"""Command-line front end.

Commands:

    finring analyze <expr>                 structural counts + class report
    finring table <expr> <what>            set listings or raw op tables
    finring verify [--claims ...] [--corpus PATH]
    finring enumerate <family> <max>       predicate sweep over a family

Global flags (accepted before or after the subcommand): --json,
--max-order N, --seed S, and --dump-tables (analyze and table only).

Exit codes: 0 success, 1 mathematical counterexample (a claim failed or
an internal consistency check tripped) or any other unexpected error,
reported in one line as an internal error, 2 usage/parse/limit error.
An output pipe closed by its reader ends the command quietly with 0.
Text and JSON modes report the same values.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from .analysis import center, idempotents, jacobson, nilpotents, sqrt_jacobson, units
from .build import zmod
from .core import (
    DEFAULT_LIMITS,
    DEFAULT_SEED,
    ArgumentError,
    InternalConsistencyError,
    LimitError,
    Limits,
    dump_lines,
    table_lines,
)
from .expr import ParseError, parse_and_build
from .harness import CorpusError, default_corpus, load_corpus, run_suite
from .predicates import CLASS_NAMES, JSON_KEYS, UNIT_CLASSES, classify

TABLE_WHAT = ("units", "jacobson", "sqrtj", "nilpotents", "idempotents", "center", "add", "mul")

_SET_FNS = {
    "units": units,
    "jacobson": jacobson,
    "sqrtj": sqrt_jacobson,
    "nilpotents": nilpotents,
    "idempotents": idempotents,
    "center": center,
}


def _at_least(minimum: int, base: int):
    """An argparse type: an integer (literal of ``base``) no smaller than ``minimum``."""
    def integer(text: str) -> int:
        value = int(text, base)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return integer


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.  argparse reads
    sys.stdout and sys.stderr only when it prints, so the redirection
    in :func:`main` still reaches every call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit JSON instead of text")
    common.add_argument("--max-order", type=_at_least(2, 10), metavar="N",
                        default=argparse.SUPPRESS,
                        help="reject constructions above this order (default 10000)")
    common.add_argument("--seed", type=_at_least(0, 0), metavar="S", default=argparse.SUPPRESS,
                        help="seed for sampled axiom checks (default 0x52314E47)")
    common.add_argument("--dump-tables", action="store_true", default=argparse.SUPPRESS,
                        help="append the add/mul table dump to the output")

    parser = argparse.ArgumentParser(prog="finring", parents=[common],
                                     description="finite-ring analysis and theorem checking")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="classify one ring expression")
    p.add_argument("expr")

    p = sub.add_parser("table", parents=[common], help="print a structural set or an op table")
    p.add_argument("expr")
    p.add_argument("what", choices=TABLE_WHAT)

    p = sub.add_parser("verify", parents=[common], help="run the theorem suite over a corpus")
    p.add_argument("--claims", metavar="ID[,ID...]", default=None,
                   help="comma-separated claim ids (default: all)")
    p.add_argument("--corpus", metavar="PATH", default=None,
                   help="corpus file (one expression per line; default corpus otherwise)")

    p = sub.add_parser("enumerate", parents=[common], help="sweep a ring family")
    p.add_argument("family", choices=["zmod"])
    p.add_argument("max", type=int)
    return parser


def _bool_word(b: bool) -> str:
    return "yes" if b else "no"


def _counts(ring) -> dict:
    return {
        "units": len(units(ring)),
        "jacobson": len(jacobson(ring)),
        "sqrtJacobson": len(sqrt_jacobson(ring)),
        "nilpotents": len(nilpotents(ring)),
        "idempotents": len(idempotents(ring)),
        "center": len(center(ring)),
    }


def _cmd_analyze(args, limits: Limits, out) -> int:
    ring = parse_and_build(args.expr, limits)
    report = classify(ring)
    counts = _counts(ring)
    payload = {
        "expr": ring.label,
        "order": ring.order,
        "characteristic": ring.characteristic(),
        "counts": counts,
    }
    payload.update(report.to_json())
    if args.json:
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(ring.label, file=out)
        print(f"  order           {ring.order}", file=out)
        print(f"  characteristic  {payload['characteristic']}", file=out)
        print("  counts          " + " ".join(f"{k}={v}" for k, v in counts.items()), file=out)
        print("  predicates:", file=out)
        for name in CLASS_NAMES:
            line = f"    {JSON_KEYS[name]:<15}{_bool_word(report.verdicts[name])}"
            if name in report.witnesses:
                line += f"   (witness unit {report.witnesses[name]})"
            print(line, file=out)
    if args.dump_tables:
        out.writelines(dump_lines(ring))
    return 0


def _cmd_table(args, limits: Limits, out) -> int:
    ring = parse_and_build(args.expr, limits)
    if args.what in _SET_FNS:
        indices = _SET_FNS[args.what](ring).indices()
        if args.json:
            print(json.dumps({"expr": ring.label, "what": args.what, "indices": indices}), file=out)
        else:
            print(" ".join(str(i) for i in indices), file=out)
    elif args.json:  # json.dumps framing up to the table's "[", then one row block at a time
        out.write(json.dumps({"expr": ring.label, "what": args.what, "order": ring.order,
                              "one": ring.one, "table": []})[:-2])
        for lo, block in ring.blocks(args.what):
            out.write((", " if lo else "") + json.dumps(block.tolist())[1:-1])
        out.write("]}\n")
    else:
        out.writelines(table_lines(ring, args.what))
    if args.dump_tables:
        out.writelines(dump_lines(ring))
    return 0


def _cmd_verify(args, limits: Limits, out) -> int:
    corpus = load_corpus(args.corpus) if args.corpus else default_corpus()
    claim_ids = args.claims.split(",") if args.claims is not None else None
    report = run_suite(corpus, claim_ids, limits, seed=args.seed)
    skipped = len(report.skipped) if claim_ids is None else 0
    if args.json:
        payload = {
            "corpus": report.corpus_name,
            "seed": report.seed,
            "axioms": [{"ring": label, "passed": ok, "failure": bad}
                       for label, ok, bad in report.axiom_records],
            "claims": [
                {
                    "id": r.claim_id,
                    "title": r.title,
                    "domain": r.domain,
                    "passed": r.passed,
                    "wallTime": round(r.wall_time, 4),
                    "records": [{"subject": rec.subject, "ok": rec.ok, "note": rec.note}
                                for rec in r.records],
                }
                for r in report.results
            ],
            "skipped": [{"id": s.claim_id, "reason": s.reason} for s in report.skipped]
            if claim_ids is None else [],
            "notes": list(report.notes),
            "summary": {"passed": report.passed_count, "failed": report.failed_count,
                        "skipped": skipped},
            "wallTime": round(report.wall_time, 3),
        }
        print(json.dumps(payload, indent=2), file=out)
    else:
        n_ax = len(report.axiom_records)
        ok_ax = sum(1 for _, ok, _ in report.axiom_records if ok)
        print(f"corpus: {report.corpus_name} ({n_ax} rings), axiom seed {report.seed:#x}", file=out)
        print(f"axioms: {ok_ax}/{n_ax} rings pass", file=out)
        for label, ok, bad in report.axiom_records:
            if not ok:
                print(f"  AXIOM FAIL {label}: {bad}", file=out)
        for r in report.results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.claim_id:<4} {r.title:<23} {status}  {len(r.records)} instances  "
                  f"{r.wall_time:.2f}s", file=out)
            print(f"     domain: {r.domain}", file=out)
            for rec in r.records:
                if not rec.ok:
                    print(f"     FAIL {rec.subject}: {rec.note}", file=out)
                elif rec.note:
                    print(f"     note {rec.subject}: {rec.note}", file=out)
        if claim_ids is None:
            for s in report.skipped:
                print(f"SKIPPED {s.claim_id}: {s.reason}", file=out)
            for note in report.notes:
                print(f"note: {note}", file=out)
        print(f"result: {report.passed_count} passed, {report.failed_count} failed, "
              f"{skipped} skipped ({report.wall_time:.1f}s)", file=out)
    return 0 if report.all_passed else 1


def _is_2a3b(n: int) -> bool:
    while n % 2 == 0:
        n //= 2
    while n % 3 == 0:
        n //= 3
    return n == 1


def _cmd_enumerate(args, limits: Limits, out) -> int:
    if args.max < 2:
        raise ArgumentError(f"enumerate needs max >= 2, got {args.max}")
    first_over = min(args.max, limits.max_order + 1)  # the sweep's first refusal, made up front
    limits.check_order(first_over, f"Z/{first_over}")
    rows = []
    all_ok = True
    for n in range(2, args.max + 1):
        ring = zmod(n, limits=limits)
        report = classify(ring)
        expected = _is_2a3b(n)
        ok = report.verdicts["2-sqrtJU"] == expected
        all_ok = all_ok and ok
        rows.append((n, report, expected, ok))
    if args.json:
        payload = {
            "family": args.family,
            "max": args.max,
            "rows": [
                {
                    "n": n,
                    "predicates": {JSON_KEYS[name]: rep.verdicts[name] for name in CLASS_NAMES},
                    "lawExpected": expected,
                    "ok": ok,
                }
                for n, rep, expected, ok in rows
            ],
            "allOk": all_ok,
        }
        print(json.dumps(payload, indent=2), file=out)
    else:
        names = list(UNIT_CLASSES)
        header = f"{'n':>4}  " + "  ".join(f"{JSON_KEYS[m]:>8}" for m in names) + "  law(2^a*3^b)  ok"
        print(header, file=out)
        for n, rep, expected, ok in rows:
            cells = "  ".join(f"{_bool_word(rep.verdicts[m]):>8}" for m in names)
            print(f"{n:>4}  {cells}  {_bool_word(expected):>12}  {'ok' if ok else 'DEVIATION'}",
                  file=out)
        print(f"law holds on all rows: {_bool_word(all_ok)}", file=out)
    return 0 if all_ok else 1


_COMMANDS = {
    "analyze": _cmd_analyze,
    "table": _cmd_table,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
}

_FLAG_DEFAULTS = {"json": False, "max_order": None, "seed": DEFAULT_SEED, "dump_tables": False}


def main(argv=None, out=None, err=None) -> int:
    out, err = out or sys.stdout, err or sys.stderr  # read per call, so redirects reach them
    parser = _build_parser()
    try:  # argparse prints usage errors to sys.stderr and exits 2, --help to sys.stdout and 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for name, default in _FLAG_DEFAULTS.items():
        vars(args).setdefault(name, default)
    limits = DEFAULT_LIMITS if args.max_order is None else Limits(max_order=args.max_order)
    try:
        if args.dump_tables and args.command not in ("analyze", "table"):
            raise ArgumentError("--dump-tables applies to analyze and table only")
        code = _COMMANDS[args.command](args, limits, out)
        out.flush()  # so a closed pipe shows here, not in the final flush
        return code
    except BrokenPipeError:  # the reader left early (``| head``): not a fault
        with contextlib.suppress(AttributeError, OSError):  # devnull takes the last flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 0
    except (ParseError, ArgumentError, LimitError, CorpusError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency error (please report): {exc}", file=err)
        return 1
    except Exception as exc:  # a bug: report it in one line, never as a traceback
        print(f"internal error (please report): {type(exc).__name__}: {exc}", file=err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
