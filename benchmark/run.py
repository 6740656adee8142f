"""genvar benchmark: time the three workloads from outside the program.

    python3 benchmark/run.py --workload {delta-direct,module-chars,structural,all}
                             --seed N --seconds S --trace {0,1}

Every pass runs in a fresh interpreter (`worker.py`), because a command
line user pays genvar's import and empty caches on every process. With
--trace 0 the run times set-up several times, then runs identical passes
while the next one fits in S seconds (always at least one), and reports
the end-to-end times with each query at its fastest pass, scaled to the
reference host speed that `calibration.py` measures in every worker.
With --trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics. The last line of a workload's report is one JSON
object: correct, attempted, failed, metrics. `--workload all` (the
default) reports each workload in turn.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("delta-direct", "module-chars", "structural")
SETUP_PROBES = 8
RUN_LIMIT_S = 170.0
MIN_QUERIES = 50


class BenchError(RuntimeError):
    pass


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)), 1) - 1]


def run_worker(workload: str, seed: int, deadline: float, *flags) -> tuple[dict, float]:
    """Run one worker to completion; return its document and the
    monotonic time just before it was started."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), *flags]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run exceeded %.0f s before %s" % (RUN_LIMIT_S, flags))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=remaining, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker exceeded the %.0f s run limit" % RUN_LIMIT_S) from exc
    if proc.returncode != 0:
        raise BenchError("worker exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), spawned


def best_metrics(passes: list) -> dict:
    """End-to-end times from the passes of one run, at reference host
    speed. Every pass issues the same queries in the same order, so each
    query is taken at its fastest pass: a shared host only ever adds time,
    and the fastest of several tries is the steadiest estimate of what the
    query costs."""
    n = passes[0]["queries"]
    if n < MIN_QUERIES:
        raise BenchError("a pass needs at least %d queries, got %d" % (MIN_QUERIES, n))
    best = [min(t * k for t, k in zip(times, scales))
            for times, scales in zip(zip(*(doc["latencies"] for doc in passes)),
                                     zip(*(doc["scales"] for doc in passes)))]
    return {"wall_s": sum(best),
            "query_p50_s": statistics.median(best),
            "query_p80_s": percentile(best, 80),
            "peak_rss_mib": statistics.median(doc["peak_rss_kib"] for doc in passes) / 1024}


def provenance(seed: int) -> dict:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((ROOT / "src" / "genvar").glob("*.py")))
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit or "unknown", "seed": seed,
            "genvar_lines": lines}


def untraced(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    start = time.monotonic()
    setups = []
    digests = set()
    for _ in range(SETUP_PROBES):
        doc, spawned = run_worker(workload, seed, deadline, "--setup-only")
        setups.append((doc["first_query_at"] - spawned) * doc["setup_scale"])
        digests.add(doc["input_digest"])
    passes = []
    durations = []
    while True:
        t0 = time.monotonic()
        doc, spawned = run_worker(workload, seed, deadline)
        durations.append(time.monotonic() - t0)
        setups.append((doc["first_query_at"] - spawned) * doc["setup_scale"])
        digests.add(doc["input_digest"])
        passes.append(doc)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            break
    metrics = best_metrics(passes)
    metrics["setup_s"] = statistics.median(setups)
    return {"passes": passes, "input_digests": digests,
            "output_digests": {doc["output_digest"] for doc in passes},
            "metrics": metrics, "setups": len(setups)}


def traced(workload: str, seed: int, deadline: float) -> dict:
    plain, _ = run_worker(workload, seed, deadline)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / ("spans-%s.json" % workload)
    doc, _ = run_worker(workload, seed, deadline, "--trace", "--spans", str(spans))
    layers = dict(doc["layers"])
    layers["trace.overhead_ratio"] = doc["wall_s"] / plain["wall_s"]
    return {"passes": [plain, doc],
            "input_digests": {plain["input_digest"], doc["input_digest"]},
            "output_digests": {plain["output_digest"], doc["output_digest"]},
            "layers": layers, "spans": spans}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "genvar" / "__init__.py").is_file():
        print("benchmark: no genvar sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        rc = run_workload(workload, args.seed, args.seconds, args.trace)
        if rc:
            return rc
    return 0


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> int:
    """Measure one workload and print its report; the last line printed
    is the JSON result."""
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        res = (traced(workload, seed, deadline) if trace
               else untraced(workload, seed, seconds, deadline))
    except BenchError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 1

    passes = res["passes"]
    attempted = sum(doc["queries"] for doc in passes)
    failed = sum(len(doc["failed"]) for doc in passes)
    correct = (failed == 0 and len(res["input_digests"]) == 1
               and len(res["output_digests"]) == 1)
    prov = provenance(seed)
    first = passes[0]

    print("genvar benchmark  workload=%s  trace=%d" % (workload, trace))
    print("provenance  python=%(python)s  nproc=%(nproc)d  commit=%(commit)s  "
          "seed=%(seed)d  genvar_lines=%(genvar_lines)d" % prov)
    print("load  closed loop, 1 caller, 1 thread, fresh interpreter per pass; "
          "%d queries per pass, %d pass(es)" % (first["queries"], len(passes)))
    print("input_digest  %s" % ", ".join(sorted(res["input_digests"])))
    print("output_digest  %s" % ", ".join(sorted(res["output_digests"])))
    for doc in passes:
        for label in doc["failed_labels"]:
            print("failed query  %s" % label)
    if trace:
        metrics = res["layers"]
        plain, doc = passes
        print("walls  untraced %.6f s, traced %.6f s" % (plain["wall_s"], doc["wall_s"]))
        print("spans  %s" % res["spans"].relative_to(ROOT))
        units = dict(tracer.METRICS)
        for name in units:
            print("%-46s %16.6g %s" % (name, metrics[name], units[name]))
        report = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        m = res["metrics"]
        n = first["queries"]
        beyond = n - math.ceil(0.8 * n)
        rows = [("setup_s", "s", "median of %d set-ups" % res["setups"]),
                ("wall_s", "s", "sum of query latencies"),
                ("query_p50_s", "s", "median query latency"),
                ("query_p80_s", "s", "%d queries, %d beyond p80" % (n, beyond)),
                ("peak_rss_mib", "MiB", "peak resident set, median over passes")]
        print("times  each query at its fastest of %d passes, at reference host speed"
              % len(passes))
        print("passes  walls as measured %s s"
              % " ".join("%.3f" % doc["wall_s"] for doc in passes))
        print("host  probe scale per pass, median (range) %s"
              % " ".join("%.3f (%.3f-%.3f)" % (statistics.median(doc["scales"]),
                                               min(doc["scales"]), max(doc["scales"]))
                         for doc in passes))
        for name, unit, note in rows:
            print("%-14s %14.6f %-4s (%s)" % (name, m[name], unit, note))
        print("%-14s %14.6f %-4s (%d of %d queries failed)"
              % ("failed_ratio", failed / attempted, "", failed, attempted))
        report = {name: {"value": m[name], "unit": unit} for name, unit, _ in rows}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
