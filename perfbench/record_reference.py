"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes perfbench/reference.json: the ``analyze --json`` output of every
analyze-workload ring and the seed- and time-independent part of
``verify --json`` on the default corpus.  Re-record only when finring's
output is meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import io
import json

import workloads
from finring import cli


def _cli_json(argv: list[str]) -> dict:
    out = io.StringIO()
    rc = cli.main(argv, out=out)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return json.loads(out.getvalue())


def main() -> None:
    reference = {
        "analyze": {text: _cli_json(["analyze", text, "--json"])
                    for text in workloads.ANALYZE_TABLE + workloads.ANALYZE_LARGE},
        "verify": workloads.verify_view(_cli_json(["verify", "--json"])),
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
