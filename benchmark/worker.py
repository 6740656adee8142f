"""One workload pass in a fresh interpreter.

    python3 benchmark/worker.py --workload NAME --seed N [--setup-only] [--trace] [--spans FILE]

Imports genvar from the checkout's `src`, builds the seeded inputs, runs
every query once in a closed loop (one caller, one thread), then runs the
oracles outside the timed region. The host-speed probe (`calibration.py`)
runs right after set-up and between queries, outside their latencies. Prints one JSON object on stdout:
timestamps, per-query latencies, failures and input/output digests, plus
per-layer metrics when traced. `run.py` starts this script.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import calibration  # noqa: E402
import genvar  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402


def run_queries(queries, tracer=None, probe=None):
    """Issue each query after the previous one returned. Returns the
    results (an exception for a query that raised), per-query latencies,
    the indices of queries that raised and the wall time of the loop,
    less the time the host-speed probe took between queries. With a probe
    the start time of every query is kept in `starts`."""
    outputs, latencies, failed = [], [], set()
    clock = time.perf_counter
    probed = probe.spent if probe is not None else 0.0
    start = clock()
    for qid, query in enumerate(queries):
        if tracer is not None:
            tracer.query_id = qid
        t0 = clock()
        if probe is not None:
            probe.query_starts.append(t0)
        try:
            res = query.call()
        except Exception as exc:  # a failed query is counted, not fatal
            res = exc
            failed.add(qid)
        latencies.append(clock() - t0)
        outputs.append(res)
        if probe is not None:
            probe.between_queries()
    wall = clock() - start
    if probe is not None:
        wall -= probe.spent - probed
    return outputs, latencies, failed, wall


def check(queries, outputs, skip=frozenset()) -> set:
    """Indices of queries whose oracle rejects the result (or raises)."""
    results = {q.label: r for q, r in zip(queries, outputs)}
    rejected = set()
    for qid, (query, res) in enumerate(zip(queries, outputs)):
        if qid in skip:
            continue
        try:
            ok = query.oracle(res, results)
        except Exception:  # an oracle that raises rejects the answer
            ok = False
        if ok is not True:
            rejected.add(qid)
    return rejected


def output_digest(outputs) -> str:
    return inputs.digest([("error", type(r).__name__) if isinstance(r, Exception)
                          else workloads.canon(r) for r in outputs])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    # A genvar installed elsewhere must not stand in for the checkout's.
    if SRC.resolve() not in Path(genvar.__file__).resolve().parents:
        print("genvar was imported from %s, not from %s" % (genvar.__file__, SRC),
              file=sys.stderr)
        return 2

    data = inputs.generate(args.workload, args.seed)
    queries = workloads.build(args.workload, data)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(extra_modules=(workloads,))
    doc = {"input_digest": inputs.digest(data), "queries": len(queries)}
    doc["first_query_at"] = time.monotonic()
    probe = calibration.Probe()
    for _ in range(calibration.SETUP_UNITS):
        probe.sample()
    doc["setup_scale"] = calibration.REFERENCE_S / min(probe.units)
    if args.setup_only:
        print(json.dumps(doc))
        return 0

    outputs, latencies, failed, wall = run_queries(queries, tracer, probe)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    failed |= check(queries, outputs, failed)

    doc.update({
        "wall_s": wall,
        "latencies": latencies,
        "scales": calibration.scales(probe.starts, probe.units,
                                     probe.query_starts, latencies),
        "units": len(probe.units),
        "peak_rss_kib": peak_kib,
        "failed": sorted(failed),
        "failed_labels": [repr(queries[i].label) for i in sorted(failed)][:10],
        "output_digest": output_digest(outputs),
    })
    if tracer is not None:
        doc["layers"] = tracer.metrics(wall)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
