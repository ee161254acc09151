import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finring
import finring.cli as cli
from finring import dump_tables, parse_and_build, parse_table_dump, zmod
from finring.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_analyze_text():
    code, out, err = run_cli("analyze", "Z/4")
    assert code == 0 and not err
    assert "2sqrtJU" in out and "order" in out
    assert "jacobson=2" in out


def test_analyze_json_schema():
    code, out, _ = run_cli("analyze", "Z/4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"expr", "order", "characteristic", "counts", "predicates", "witnesses"}
    assert set(payload["counts"]) == {"units", "jacobson", "sqrtJacobson", "nilpotents",
                                      "idempotents", "center"}
    assert payload["expr"] == "Z/4"
    assert payload["order"] == 4
    assert payload["characteristic"] == 4
    assert payload["predicates"]["2sqrtJU"] is True
    assert payload["counts"]["jacobson"] == 2


def test_analyze_matrix_witness():
    code, out, _ = run_cli("analyze", "M(2, Z/2)", "--json")
    payload = json.loads(out)
    assert payload["predicates"]["2sqrtJU"] is False
    assert payload["witnesses"]["2sqrtJU"] == 7


def test_text_and_json_agree():
    _, text, _ = run_cli("analyze", "TE(Z/9)")
    _, js, _ = run_cli("analyze", "TE(Z/9)", "--json")
    payload = json.loads(js)
    for key, value in payload["counts"].items():
        assert f"{key}={value}" in text
    for key, value in payload["predicates"].items():
        want = "yes" if value else "no"
        assert any(line.split()[:2] == [key, want] for line in text.splitlines()), key


def test_analyze_errors_exit_2():
    code, _, err = run_cli("analyze", "Z/1")
    assert code == 2 and "error" in err
    code, _, err = run_cli("analyze", "Z/4", "--max-order", "3")
    assert code == 2
    code, _, err = run_cli("analyze", "M(2, M(2, Z/4))")
    assert code == 2 and "M(2, M(2, Z/4))" in err
    code, _, err = run_cli("analyze", "POLYQ(UT(2, Z/2), [2, 0, 5])")
    assert code == 2 and "coefficient index 2 is not central" in err
    code, _, err = run_cli("analyze", "(" * 2000 + "Z/2" + ")" * 2000)
    assert code == 2 and "nested more than" in err


def test_max_order_below_2_is_usage_error():
    for value in ("-3", "1"):
        code, out, err = run_cli("analyze", "Z/4", "--max-order", value)
        assert code == 2 and not out
        assert f"--max-order: must be >= 2, got {value}" in err
    assert run_cli("analyze", "Z/2", "--max-order", "2")[0] == 0


def test_negative_seed_is_usage_error():
    for argv in (["verify", "--seed", "-1"], ["--seed", "-1", "analyze", "Z/4"]):
        code, out, err = run_cli(*argv)
        assert code == 2 and not out
        assert "--seed: must be >= 0, got -1" in err


def test_argparse_writes_to_the_given_streams(capsys):
    code, out, err = run_cli("--help")
    assert code == 0 and "usage: finring" in out and not err
    code, out, err = run_cli("bogus")
    assert code == 2 and not out and "invalid choice: 'bogus'" in err
    assert capsys.readouterr() == ("", "")


def test_one_parser_serves_calls_with_different_streams():
    assert cli._build_parser() is cli._build_parser()
    code, out, err = run_cli("analyze")
    assert code == 2 and not out and "the following arguments are required: expr" in err
    code, out, err = run_cli("analyze", "Z/4", "--json")
    assert code == 0 and not err and json.loads(out)["order"] == 4
    code, out, err = run_cli("--help")
    assert code == 0 and "usage: finring" in out and not err


def test_verify_never_imports_numpy_random():
    # every default-corpus ring is checked exhaustively, so no sampler runs
    script = ("import io, sys\n"
              "from finring import cli\n"
              "code = cli.main(['verify', '--json'], out=io.StringIO())\n"
              "print(code, 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_env_with_src(), timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "0 False\n")


def test_unexpected_exception_is_one_line_internal_error(monkeypatch):
    from finring import cli

    def boom(args, limits, out):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "analyze", boom)
    code, out, err = run_cli("analyze", "Z/4")
    assert code == 1 and not out
    assert err == "internal error (please report): RuntimeError: boom\n"


def test_closed_output_pipe_exits_0_quietly():
    # the reader of a pipe went away, as with `finring ... | head -c 100`
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    err = io.StringIO()
    assert main(["analyze", "--json", "--dump-tables", "Z/4"], out=ClosedPipe(), err=err) == 0
    assert err.getvalue() == ""


def _env_with_src():
    src = str(Path(finring.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "finring", "analyze", "Z/4", "--json"],
                          capture_output=True, text=True, env=_env_with_src(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_cli("analyze", "Z/4", "--json")[1]


def test_table_sets():
    code, out, _ = run_cli("table", "Z/12", "jacobson")
    assert code == 0 and out.strip() == "0 6"
    code, out, _ = run_cli("table", "GF(2, 2)", "nilpotents")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli("table", "UT(2, Z/2)", "units", "--json")
    assert json.loads(out)["indices"] == [5, 7]


def test_table_mul_matches_dump_format():
    code, out, _ = run_cli("table", "Z/4", "mul")
    assert code == 0
    assert out.splitlines() == ["0 0 0 0", "0 1 2 3", "0 2 0 2", "0 3 2 1"]
    code, out, _ = run_cli("table", "Z/3", "add", "--json")
    assert code == 0
    assert out == ('{"expr": "Z/3", "what": "add", "order": 3, "one": 1, '
                   '"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}\n')


def _whole_table_outputs(ring, what):
    """The reference text and JSON of ``finring table <expr> what``, built
    from the list of all rows at once."""
    rows = [row for _, block in ring.blocks(what) for row in block.tolist()]
    text = "".join(" ".join(str(v) for v in row) + "\n" for row in rows)
    return text, json.dumps({"expr": ring.label, "what": what, "order": ring.order,
                             "one": ring.one, "table": rows}) + "\n"


@pytest.mark.parametrize("expr, mode", [("UT(2, Z/7)", "table"), ("Z/1025", "lazy")])
def test_streamed_tables_match_the_whole_table_format(expr, mode):
    ring = parse_and_build(expr)
    assert ring.mode == mode and len(list(ring.blocks("mul"))) > 1
    whole = {what: _whole_table_outputs(ring, what) for what in ("add", "mul")}
    text, js = whole["mul"]
    assert run_cli("table", expr, "mul") == (0, text, "")
    assert run_cli("table", expr, "mul", "--json") == (0, js, "")
    dump = f"order {ring.order}\none {ring.one}\n{whole['add'][0]}\n{whole['mul'][0]}"
    assert dump_tables(ring) == dump
    assert run_cli("analyze", expr, "--dump-tables") == (0, run_cli("analyze", expr)[1] + dump, "")


def test_table_output_peak_stays_small():
    # finring table "UT(2, Z/13)" mul writes 2197^2 entries.  Written one
    # row block at a time they add about 5 MB to the peak RSS of a process
    # that printed a small table; built as one list and one string, 180 MB.
    script = (
        "import os, resource\n"
        "from finring.cli import main\n"
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "with open(os.devnull, 'w') as out:\n"
        "    main(['table', 'Z/6', 'mul'], out=out)\n"
        "    before = peak()\n"
        "    assert main(['table', 'UT(2, Z/13)', 'mul'], out=out) == 0\n"
        "print(peak() - before)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_env_with_src(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 16 * 1024  # KB: the peak RSS rose by less than 16 MB


def test_dump_tables_flag_roundtrips():
    code, out, _ = run_cli("table", "GR(Z/2, C2)", "units", "--dump-tables")
    assert code == 0
    lines = out.splitlines()
    dump = "\n".join(lines[1:]) + "\n"
    ring = parse_table_dump(dump)
    direct = parse_and_build("GR(Z/2, C2)")
    assert ring.order == direct.order and ring.one == direct.one
    assert ring.mul(2, 2) == direct.mul(2, 2) == 1


def test_dump_tables_outside_analyze_and_table_exits_2():
    message = "error: --dump-tables applies to analyze and table only\n"
    for argv in (("verify", "--claims", "C13", "--dump-tables"),
                 ("--dump-tables", "enumerate", "zmod", "4")):
        assert run_cli(*argv) == (2, "", message)


def test_verify_single_claim():
    code, out, _ = run_cli("verify", "--claims", "C13")
    assert code == 0
    assert "C13" in out and "PASS" in out
    assert "1 passed, 0 failed, 0 skipped" in out


def test_verify_json_schema():
    code, out, _ = run_cli("verify", "--claims", "C6,C13", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [c["id"] for c in payload["claims"]] == ["C6", "C13"]
    assert payload["summary"] == {"passed": 2, "failed": 0, "skipped": 0}
    assert all(c["passed"] for c in payload["claims"])
    assert payload["axioms"] and all(a["passed"] for a in payload["axioms"])


def test_verify_repeated_claim_runs_once():
    code, out, _ = run_cli("verify", "--claims", "C1,C1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [c["id"] for c in payload["claims"]] == ["C1"]
    assert payload["summary"] == {"passed": 1, "failed": 0, "skipped": 0}


def test_verify_corpus_errors(tmp_path):
    code, _, err = run_cli("verify", "--corpus", "missing.txt")
    assert code == 2 and "missing.txt" in err
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"Z/4\n\xff\n")
    code, _, err = run_cli("verify", "--corpus", str(latin1))
    assert code == 2 and "cannot read corpus file" in err
    code, _, err = run_cli("verify", "--claims", "C99")
    assert code == 2


def test_verify_empty_claim_list_exits_2():
    for claims in ("", "C1,"):
        code, out, err = run_cli("verify", "--claims", claims)
        assert code == 2 and out == ""
        assert "unknown claim id ''" in err


def test_verify_custom_corpus(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("Z/4\nZ/9\n# done\n")
    code, out, _ = run_cli("verify", "--corpus", str(path), "--claims", "C7")
    assert code == 0 and "C7" in out


def test_enumerate():
    code, out, _ = run_cli("enumerate", "zmod", "12")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:-1]]
    verdicts = {int(r[0]): r[6] for r in rows}
    assert {n for n, v in verdicts.items() if v == "yes"} == {2, 3, 4, 6, 8, 9, 12}
    assert verdicts[5] == verdicts[7] == verdicts[10] == verdicts[11] == "no"
    code, out, _ = run_cli("enumerate", "zmod", "2")
    assert code == 0 and out.splitlines()[1].split()[0] == "2"


def test_enumerate_above_the_limit_builds_no_ring(monkeypatch):
    built = []
    monkeypatch.setattr(cli, "zmod", lambda n, **kw: built.append(n) or zmod(n, **kw))
    code, out, err = run_cli("--max-order", "50", "enumerate", "zmod", "60")
    assert (code, out, err) == (2, "", "error: Z/51: order 51 exceeds the limit 50\n")
    assert built == []
    code, out, _ = run_cli("--max-order", "50", "enumerate", "zmod", "50")
    assert code == 0 and built == list(range(2, 51))


def test_enumerate_json():
    code, out, _ = run_cli("enumerate", "zmod", "36", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["allOk"] is True
    row36 = [r for r in payload["rows"] if r["n"] == 36][0]
    row35 = [r for r in payload["rows"] if r["n"] == 35][0]
    assert row36["predicates"]["2sqrtJU"] is True
    assert row35["predicates"]["2sqrtJU"] is False


def test_global_flags_position_independent():
    a = run_cli("--json", "analyze", "Z/6")
    b = run_cli("analyze", "Z/6", "--json")
    assert a == b


def test_usage_error_exit_2():
    code, _, _ = run_cli("frobnicate")
    assert code == 2
    code, _, _ = run_cli("enumerate", "fields", "10")
    assert code == 2


@pytest.fixture(scope="module")
def full_verify_json():
    code, out, _ = run_cli("verify", "--json")
    assert code == 0
    return json.loads(out)


def test_verify_full_run_json(full_verify_json):
    payload = full_verify_json
    assert payload["summary"] == {"passed": 19, "failed": 0, "skipped": 2}
    assert len(payload["claims"]) == 19
    assert {s["id"] for s in payload["skipped"]} == {"C-torsion", "C-powerseries"}
    assert payload["notes"]
    assert len(payload["axioms"]) == 47
    assert isinstance(payload["wallTime"], float)


BENCH_REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json")
    .read_text(encoding="utf-8"))


def test_verify_json_matches_bench_reference(full_verify_json):
    """The report, less its seed and wall times, is the one the
    benchmark checks every run against."""
    view = {k: v for k, v in full_verify_json.items() if k not in ("seed", "wallTime")}
    view["claims"] = [{k: v for k, v in c.items() if k != "wallTime"} for c in view["claims"]]
    assert view == BENCH_REFERENCE["verify"]


@pytest.mark.parametrize("expr", sorted(BENCH_REFERENCE["analyze"]))
def test_analyze_json_matches_bench_reference(expr):
    """Counts, predicates and witnesses of every ring the benchmark
    analyses, so a table build that moves one of them fails here too."""
    code, out, err = run_cli("analyze", expr, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == BENCH_REFERENCE["analyze"][expr]
