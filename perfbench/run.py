"""The finring benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seconds S          every workload, untraced
    python3 perfbench/run.py --check              one short pass of each, names checked

Run from the root of a checkout; finring is imported from ./src, nothing
is installed.  Each workload runs in its own single-threaded child
process (see workloads.py for why each exists, and why analyze-large is
measured but not among BENCHMARK.json's gated workloads).

Untraced (``--trace 0``) prints the end-to-end metrics of one workload:
``setup_s`` (median of several fresh interpreters importing finring and
preparing the inputs), ``wall_s`` (seconds per pass over the inputs:
measured time over passes, the reciprocal of throughput), ``max_item_s``
(the slowest item of a pass, one analyze call or the slowest claim of
verify, averaged over passes) and ``peak_rss_mb`` (peak RSS of the
workload's child).  Pass times are averaged rather than taking their
median because the CPU speed of a shared host switches between a fast
and a slow level for tens of seconds at a time: a median flips with the
level that held most of the run, an average weighs both.  The median
pass and the pass count are printed and kept in the result file.  Every
output is checked against reference.json; failed items count in
``failed``.

Traced (``--trace 1``) replays every workload with spans around the
calls into each finring module, each analyze ring in its own child so
rings do not mask each other's RSS, and prints the self time per module
and workload.  ``trace.overhead_s`` is the traced wall time minus that of
an untraced pass made just before it; ``trace.unaccounted_s`` is traced
time outside every module span (the CLI's own work).  Every run writes a result file with its provenance to
.bench_results/; a traced run's file also holds all its spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = ROOT / ".bench_results"
# The benchmark's runs must end well inside a 180 s budget each.
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 10

ANALYZE_SPANS = ("expr.parse", "expr.evaluate",
                 "analysis.units", "analysis.jacobson", "analysis.sqrt_jacobson",
                 "analysis.nilpotents", "analysis.idempotents", "analysis.center",
                 "predicates.unit_classes", "predicates.is_local",
                 "predicates.is_dedekind_finite", "predicates.classify")
VERIFY_SPANS = (("harness.corpus", "core.verify_axioms")
                + tuple(f"harness.C{i}" for i in range(1, 20)))


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Children:
    """Starts worker processes one at a time, within the run's deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.env = env

    def run(self, *args) -> tuple[dict, float]:
        """(the worker's JSON result, wall seconds from start to exit)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before worker {args}")
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(WORKER), *map(str, args)], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {args} did not finish within the run's deadline") from exc
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), seconds


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(children: Children, workload: str, seed: int, seconds: float) -> dict:
    def sample_setup():
        return [children.run("setup", workload, seed)[1] for _ in range(SETUP_SAMPLES // 2)]

    children.run("setup", workload, seed)  # warm the page cache and bytecode; not counted
    setup = sample_setup()
    out, _ = children.run("run", workload, seed, seconds, 0)
    setup += sample_setup()  # before and after the passes, so both ends of the run count
    passes = out["passes"]
    return {
        "workload": workload,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [q for p in passes for q in p["problems"]][:20],
        "metrics": {
            "setup_s": _metric(statistics.median(setup), "s"),
            "wall_s": _metric(statistics.fmean(p["wall"] for p in passes), "s"),
            "max_item_s": _metric(statistics.fmean(p["max_item"] for p in passes), "s"),
            "peak_rss_mb": _metric(out["rss_mb"], "MB"),
        },
        "samples": {"setup_s": setup, "pass_wall_s": [p["wall"] for p in passes],
                    "pass_max_item_s": [p["max_item"] for p in passes]},
        "versions": out["versions"],
    }


def traced(children: Children, seed: int) -> dict:
    """Per-layer metrics of every workload, prefixed by the workload."""
    metrics, attempted, failed, problems, ring_rss, all_spans = {}, 0, 0, [], {}, []
    for workload in workloads.WORKLOADS:
        base, _ = children.run("run", workload, seed, 0, 1)
        untraced_wall = base["passes"][0]["wall"]
        attempted += base["passes"][0]["attempted"]
        failed += base["passes"][0]["failed"]
        problems += base["passes"][0]["problems"]
        n_items = 1 if workload == "verify-default" else len(workloads.inputs(workload, seed))
        mine: list = []
        build = {"table_bytes": 0, "table_rings": 0, "lazy_rings": 0}
        for index in range(n_items):
            out, _ = children.run("trace", workload, seed, index)
            spans.append(mine, out["spans"])
            attempted += out["attempted"]
            failed += out["failed"]
            problems += out["problems"]
            for key in build:
                build[key] += out["build"][key]
            ring_rss[f"{workload}/{out['spans'][0]['item']}"] = out["rss_mb"]
        spans.append(all_spans, mine)
        self_s = spans.self_times(mine)
        wall = sum(s["end"] - s["start"] for s in mine if s["parent"] is None)
        names = VERIFY_SPANS if workload == "verify-default" else ANALYZE_SPANS
        for name in names:
            metrics[f"{workload}.{name}_s"] = _metric(self_s.get(name, 0.0), "s")
        metrics[f"{workload}.build.table_mb"] = _metric(build["table_bytes"] / 2**20, "MB")
        metrics[f"{workload}.build.table_rings"] = _metric(build["table_rings"], "count")
        metrics[f"{workload}.build.lazy_rings"] = _metric(build["lazy_rings"], "count")
        metrics[f"{workload}.trace.wall_s"] = _metric(wall, "s")
        metrics[f"{workload}.trace.overhead_s"] = _metric(wall - untraced_wall, "s")
        metrics[f"{workload}.trace.unaccounted_s"] = _metric(self_s.get("item", 0.0), "s")
    return {"workload": "all", "attempted": attempted, "failed": failed,
            "problems": problems[:20], "metrics": metrics, "ring_peak_rss_mb": ring_rss,
            "spans": all_spans, "versions": out["versions"]}


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent), GIT_OPTIONAL_LOCKS="0")
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, versions: dict) -> dict:
    sha = _git("rev-parse", "HEAD")
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if sha is None else bool(_git("status", "--porcelain")),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "seed": seed,
    }


def _write(name: str, payload) -> None:
    RESULTS.mkdir(exist_ok=True)
    tmp = RESULTS / f".{name}.tmp"
    tmp.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    tmp.replace(RESULTS / name)


def _summary(result: dict) -> str:
    m = result["metrics"]
    error_rate = result["failed"] / result["attempted"]
    line = f"{result['workload']}: error_rate {error_rate:.3f} ({result['failed']}/{result['attempted']})"
    if "samples" in result:
        walls = result["samples"]["pass_wall_s"]
        line += f", {len(walls)} passes, median pass {statistics.median(walls):.6g} s"
        if len(walls) < 20:
            line += " (too few passes for a higher percentile with ten beyond it)"
    return line + "\n" + "\n".join(f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in m.items())


def measure(workload: str | None, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Run, record result files, and return one result per printed line."""
    if trace:
        results = [traced(Children(), seed)]
    else:
        results = [untraced(Children(), w, seed, seconds)
                   for w in ([workload] if workload else workloads.WORKLOADS)]
    for r in results:
        r["provenance"] = provenance(seed, r.pop("versions"))
        r["seconds"] = seconds
        _write(f"{r['workload']}-trace{int(trace)}-seed{seed}.json", r)
    return results


def result_line(result: dict) -> str:
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


def self_check(seed: int) -> int:
    """One short pass of each workload, untraced and traced; every metric
    name and unit must match BENCHMARK.json and every output be correct."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for result in measure(None, seed, 1, trace):
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            print(_summary(result))
            for problem in result["problems"]:
                print(f"  FAIL {problem}")
            if got != want:
                ok = False
                print(f"  {key} mismatch: missing {sorted(want.keys() - got.keys())}, "
                      f"extra {sorted(got.keys() - want.keys())}, units differ "
                      f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
            ok = ok and result["failed"] == 0
    print("self-check", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="quick self-check against BENCHMARK.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "finring" / "__init__.py").is_file():
        print(f"error: no finring sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        if args.check:
            return self_check(args.seed)
        results = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in results:
        print(_summary(r))
    for r in results:
        print(result_line(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
