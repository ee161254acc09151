"""Child process of the finring benchmark.  Each call runs in a fresh,
single-threaded interpreter and prints one JSON line on stdout:

    worker.py setup WORKLOAD SEED                 import finring, prepare inputs
    worker.py run WORKLOAD SEED SECONDS MAXPASSES untraced passes (MAXPASSES 0: no cap)
    worker.py trace WORKLOAD SEED INDEX           traced replay of one item

The untraced passes call ``finring.cli.main`` exactly as a user's
command line would.  The traced replay makes the same public calls as
``cli._cmd_analyze`` and ``harness.run_suite``, with a span around each,
in an order where every structural set is already cached by the calls
before it, so each span measures that call's own work.
"""

from __future__ import annotations

import gc
import io
import json
import platform
import resource
import sys
import time
import traceback

import spans
import workloads
from finring import cli, core, expr, harness, predicates
from finring.analysis import center, idempotents, jacobson, nilpotents, sqrt_jacobson, units

ANALYSIS_SETS = (units, jacobson, sqrt_jacobson, nilpotents, idempotents, center)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _call_cli(argv: list[str]) -> tuple[int | None, str, str, float]:
    """(exit code or None if it raised, stdout, error text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        rc = cli.main(argv, out=out, err=err)
    except Exception as exc:  # an escaping exception is a failed item, not a crashed run
        rc = None
        err.write(_failure(exc))
    seconds = time.perf_counter() - start
    # A ring and its analysis cache form a reference cycle.  Collect it now,
    # untimed, so the next call starts as clean as a fresh CLI process and
    # peak RSS does not depend on when the cyclic collector happened to run.
    gc.collect()
    return rc, out.getvalue(), err.getvalue(), seconds


def _analyze_pass(items: list[str], reference: dict) -> dict:
    times, problems, failed = [], [], 0
    for text in items:
        rc, out, err, seconds = _call_cli(["analyze", text, "--json"])
        times.append(seconds)
        if rc != 0:
            found = [f"exit {rc}: {err.strip()[-200:]}"]
        else:
            try:
                found = workloads.analyze_problems(text, json.loads(out), reference)
            except (ValueError, KeyError, TypeError) as exc:
                found = [f"malformed output: {_failure(exc)}"]
        failed += bool(found)
        problems += [f"{text}: {p}" for p in found]
    return {"wall": sum(times), "max_item": max(times),
            "attempted": len(items), "failed": failed, "problems": problems}


def _verify_pass(items: list[str], reference: dict) -> dict:
    rc, out, err, seconds = _call_cli(["verify", "--json", "--seed", items[0]])
    n_claims = len(reference["verify"]["claims"])
    try:
        payload = json.loads(out)
        overall, per_claim = workloads.verify_problems(workloads.verify_view(payload), reference)
        max_item = max(c["wallTime"] for c in payload["claims"])
    except (ValueError, KeyError, TypeError) as exc:
        return {"wall": seconds, "max_item": seconds, "attempted": n_claims, "failed": n_claims,
                "problems": [f"verify: exit {rc}: {err.strip()[-200:]} {_failure(exc)}"]}
    if rc != 0:
        overall.append(f"verify exited {rc}")
    problems = overall + [f"{cid}: {p}" for cid, p in per_claim.items()]
    return {"wall": seconds, "max_item": max_item,
            "attempted": n_claims, "failed": n_claims if overall else len(per_claim),
            "problems": problems}


def run(workload: str, seed: int, seconds: float, max_passes: int) -> dict:
    """Whole passes until the next one would end after ``seconds``."""
    items = workloads.inputs(workload, seed)
    reference = workloads.load_reference()
    one_pass = _verify_pass if workload == "verify-default" else _analyze_pass
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(items, reference))
        elapsed = time.perf_counter() - start
        if len(passes) == max_passes or elapsed + passes[-1]["wall"] > seconds:
            break
    return {"passes": passes, "rss_mb": _rss_mb()}


def _build_stats(rings) -> dict:
    table = [r for r in rings if r.mode == "table"]
    return {"table_bytes": sum(r.add_table.nbytes + r.mul_table.nbytes + r.neg_table.nbytes
                               for r in table),
            "table_rings": len(table), "lazy_rings": len(rings) - len(table)}


def _trace_analyze(text: str, rec: spans.Recorder, reference: dict) -> dict:
    with rec.span("item", text):
        with rec.span("expr.parse", text):
            node = expr.parse(text)
        with rec.span("expr.evaluate", text):
            ring = expr.evaluate(node, core.DEFAULT_LIMITS)
        for fn in ANALYSIS_SETS:
            with rec.span(f"analysis.{fn.__name__}", text):
                fn(ring)
        for power, target in predicates.UNIT_CLASSES.values():
            with rec.span("predicates.unit_classes", text):
                predicates.check_unit_class(ring, power, target)
        with rec.span("predicates.is_local", text):
            predicates.is_local(ring)
        with rec.span("predicates.is_dedekind_finite", text):
            predicates.is_dedekind_finite(ring)
        with rec.span("predicates.classify", text):
            report = predicates.classify(ring)
        # the rest of cli._cmd_analyze: counts (cached), characteristic, JSON
        payload = {"expr": ring.label, "order": ring.order,
                   "characteristic": ring.characteristic(), "counts": cli._counts(ring)}
        payload.update(report.to_json())
        json.dumps(payload, indent=2)
    problems = [f"{text}: {p}" for p in workloads.analyze_problems(text, payload, reference)]
    return {"attempted": 1, "failed": int(bool(problems)), "problems": problems,
            "build": _build_stats([ring])}


def _suite_view(report) -> dict:
    """``verify_view`` of the JSON ``cli._cmd_verify`` prints for ``report``."""
    return {
        "corpus": report.corpus_name,
        "axioms": [{"ring": label, "passed": ok, "failure": bad}
                   for label, ok, bad in report.axiom_records],
        "claims": [{"id": r.claim_id, "title": r.title, "domain": r.domain, "passed": r.passed,
                    "records": [{"subject": rec.subject, "ok": rec.ok, "note": rec.note}
                                for rec in r.records]}
                   for r in report.results],
        "skipped": [{"id": s.claim_id, "reason": s.reason} for s in report.skipped],
        "notes": list(report.notes),
        "summary": {"passed": report.passed_count, "failed": report.failed_count,
                    "skipped": len(report.skipped)},
    }


def _trace_verify(seed_text: str, rec: spans.Recorder, reference: dict) -> dict:
    limits, seed = core.DEFAULT_LIMITS, int(seed_text, 0)
    with rec.span("item", "verify"):
        with rec.span("harness.corpus", "corpus"):
            corpus = harness.default_corpus()
            rings = corpus.rings(limits)
        axiom_records = []
        for label, ring in rings:
            with rec.span("core.verify_axioms", label):
                axioms = core.verify_axioms(ring, seed=seed)
            bad = "" if axioms.passed else (f"{axioms.failures()[0].name} "
                                            f"(witness {axioms.failures()[0].witness})")
            axiom_records.append((label, axioms.passed, bad))
        results = []
        for cid in sorted(harness.CLAIMS, key=lambda c: int(c[1:])):
            with rec.span(f"harness.{cid}", cid):
                results.append(harness.run_claim(cid, corpus, limits))
    report = harness.SuiteReport(corpus.name, seed, tuple(results), harness.SKIPPED_CLAIMS,
                                 tuple(axiom_records), harness.REPORT_NOTES, 0.0)
    overall, per_claim = workloads.verify_problems(_suite_view(report), reference)
    n_claims = len(reference["verify"]["claims"])
    return {"attempted": n_claims, "failed": n_claims if overall else len(per_claim),
            "problems": overall + [f"{cid}: {p}" for cid, p in per_claim.items()],
            "build": _build_stats([ring for _, ring in rings])}


def trace(workload: str, seed: int, index: int) -> dict:
    text = workloads.inputs(workload, seed)[index]
    reference = workloads.load_reference()
    rec = spans.Recorder(workload)
    replay = _trace_verify if workload == "verify-default" else _trace_analyze
    result = replay(text, rec, reference)
    return dict(result, spans=rec.spans, rss_mb=_rss_mb())


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        result = {"items": len(workloads.inputs(workload, seed))}
    elif mode == "run":
        result = run(workload, seed, float(argv[3]), int(argv[4]))
    elif mode == "trace":
        result = trace(workload, seed, int(argv[3]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    import numpy
    result["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
