"""README examples run as written: its "Library use" block and the CLI
lines that state their output, so the README cannot drift from the code."""

import ast
import io
import re
import shlex
from pathlib import Path

from finring.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _code_block(heading: str, lang: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_library_use_block_runs_as_documented():
    block = _code_block("Library use", "python")
    namespace: dict = {}
    exec(block, namespace)
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        comment = comment.strip()
        if not comment:
            continue
        if code.lstrip().startswith("report ="):  # "19/19 claims, 2 skipped"
            passed, total, skipped = map(int, re.match(r"(\d+)/(\d+) claims, (\d+) skipped", comment).groups())
            report = namespace["report"]
            assert (report.passed_count, len(report.results), len(report.skipped)) == (passed, total, skipped)
        elif comment.startswith("["):  # a list, then a remark after ":"
            assert eval(code, namespace) == ast.literal_eval(comment.split(":", 1)[0])
        elif comment.startswith("{"):  # some of a dict's items; "..." stands for the rest
            got = eval(code, namespace)
            items = re.findall(r"'([^']+)': (True|False)", comment)
            assert items and all(got[key] == (value == "True") for key, value in items)
        else:
            raise AssertionError(f"README result comment of an unknown form: {line!r}")
        checked += 1
    assert checked == 3


def test_cli_examples_print_their_documented_output():
    block = _code_block("CLI", "sh")
    examples = re.findall(r'^(finring .*?)\s+# -> "([^"]*)"$', block, flags=re.M)
    assert examples  # finring table "Z/12" jacobson -> "0 6"
    for command, expected in examples:
        out, err = io.StringIO(), io.StringIO()
        assert main(shlex.split(command)[1:], out=out, err=err) == 0, err.getvalue()
        assert out.getvalue().strip() == expected


def test_every_package_export_is_used_or_documented():
    # A name finring/__init__.py re-exports must be named by the package
    # somewhere other than its own def or class line, or in README.md;
    # otherwise it is a dead shim kept alive only by the export.
    package = Path(__file__).resolve().parent.parent / "src" / "finring"
    texts = [path.read_text(encoding="utf-8") for path in package.glob("*.py") if path.stem != "__init__"]
    unused = []
    for node in ast.parse((package / "__init__.py").read_text(encoding="utf-8")).body:
        for alias in node.names if isinstance(node, ast.ImportFrom) else ():
            uses = sum(len(re.findall(rf"\b{alias.name}\b", text)) for text in texts + [README])
            definitions = sum(len(re.findall(rf"^\s*(?:def|class) {alias.name}\b", text, flags=re.M))
                              for text in texts)
            if uses == definitions:
                unused.append(alias.name)
    assert unused == []
