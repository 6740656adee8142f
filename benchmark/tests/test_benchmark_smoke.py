"""Smoke test of the benchmark: tiny instances of every workload's
generator, queries and oracles, a negative control per workload, seed
determinism across processes, and the outside-in tracer.

    python3 -m pytest -q benchmark/tests
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from genvar import candecomp, laurent, repfq  # noqa: E402
from genvar.laurent import LaurentPoly  # noqa: E402


def _tiny(workload: str, seed: int = 3) -> list:
    """A cheap, representative slice of one workload's queries."""
    data = inputs.generate(workload, seed)
    if workload == "delta-direct":
        first = {}
        for g in data["generic"]:
            if g[1] in ((2, 2), (1, 1, 1), (2, 2, 2)):
                first.setdefault(g[1], g)
        data["generic"] = tuple(first.values())
    elif workload == "module-chars":
        data["sums"] = tuple(s for s in data["sums"]
                             if s[1] in ((3, 3), (2, 2, 2)))[:4]
        data["tubes"] = data["tubes"][::4]
    else:
        data["decomp"] = tuple(x for x in data["decomp"]
                               if x[1] in ((1, 1), (2, 1), (1, 1, 1), (2, 2, 2)))
        data["dynkin"] = tuple((spec, vecs[:12], hi, lo)
                               for spec, vecs, hi, lo in data["dynkin"][:1])
        data["routes"] = tuple(r for r in data["routes"]
                               if r[1] in ((1, 1), (2, 1), (1, 1, 1), (1, 0, 0)))
        data["products"] = tuple((spec, d, es[:6]) for spec, d, es in data["products"]
                                 if d == (1, 0))
        data["base_changes"] = (("G", "SZ", 8), ("G", "CZ", 8))
        data["families"] = ("G",)
    return workloads.build(workload, data)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_workload_passes_its_oracles(workload):
    queries = _tiny(workload)
    assert len(queries) >= 3
    outputs, latencies, raised, _wall = worker.run_queries(queries)
    assert raised == set()
    assert len(latencies) == len(queries)
    assert worker.check(queries, outputs) == set()


def _tamper(result):
    """The same kind of answer with one value changed."""
    one = LaurentPoly.one
    if isinstance(result, LaurentPoly):
        return result + one(result.nvars)
    if hasattr(result, "poly"):
        return type(result)(**{**result.__dict__,
                               "poly": result.poly + one(result.poly.nvars)})
    if hasattr(result, "matrix"):
        mat = [list(r) for r in result.matrix]
        mat[0][-1] += 1
        return type(result)(**{**result.__dict__,
                               "matrix": tuple(tuple(r) for r in mat)})
    raise TypeError(type(result))


@pytest.mark.parametrize("workload,kind", [
    ("delta-direct", "generic"), ("module-chars", "sum"),
    ("module-chars", "tube"), ("structural", "route-direct"),
    ("structural", "base_change")])
def test_tampered_answer_is_counted_as_failure(workload, kind):
    queries = _tiny(workload)
    outputs, _lat, _raised, _wall = worker.run_queries(queries)
    idx = next(i for i, q in enumerate(queries) if q.label[0] == kind)
    outputs[idx] = _tamper(outputs[idx])
    assert worker.check(queries, outputs) == {idx}


def test_failing_oracle_expectation_is_counted():
    """Negative control on the expected side: a tube checked against the
    wrong family element must be reported."""
    queries = _tiny("module-chars")
    idx = next(i for i, q in enumerate(queries) if q.label[0] == "tube")
    tampered = workloads.Query(
        queries[idx].label, queries[idx].call,
        lambda x, _r: x == workloads.kronecker.family_element("CZ", 4))
    queries[idx] = tampered
    outputs, _lat, _raised, _wall = worker.run_queries(queries)
    assert worker.check(queries, outputs) == {idx}


def test_raising_query_is_counted():
    def boom():
        raise repfq.BudgetError("budget")
    queries = [workloads.Query(("x",), boom, lambda _x, _r: True)]
    outputs, _lat, raised, _wall = worker.run_queries(queries)
    assert raised == {0} and isinstance(outputs[0], repfq.BudgetError)


def _setup_digest(workload: str, seed: int) -> str:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--setup-only"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])["input_digest"]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    first = _setup_digest(workload, 11)
    assert _setup_digest(workload, 11) == first
    assert _setup_digest(workload, 12) != first
    assert inputs.digest(inputs.generate(workload, 11)) == first


@pytest.mark.parametrize("module", ["inputs.py", "calibration.py"])
def test_generator_and_probe_do_not_use_genvar(module):
    tree = ast.parse((BENCH / module).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "genvar" not in (node.module or "")
        elif isinstance(node, ast.Import):
            assert all("genvar" not in a.name for a in node.names)


def test_no_assert_statements_in_benchmark_code():
    """Oracles must survive python -O."""
    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(n, ast.Assert) for n in ast.walk(tree)), path


def test_hardcoded_schur_roots_are_schur():
    for (n, arrows), roots in ((inputs.KRONECKER, inputs.KRONECKER_SCHUR),
                               (inputs.AFFINE_A2, inputs.AFFINE_A2_SCHUR)):
        q = workloads.quiver((n, arrows))
        assert all(candecomp.is_schur_root(q, e) for e in roots)


def test_end_to_end_times_take_each_query_at_its_fastest_pass():
    n = run.MIN_QUERIES
    fast = [0.001 * (i + 1) for i in range(n)]
    slow = [2 * x for x in fast]
    mixed = [a if i % 2 else b for i, (a, b) in enumerate(zip(fast, slow))]
    # The first pass ran on a host at half speed: its times count halved.
    passes = [{"queries": n, "latencies": lat, "peak_rss_kib": kib, "scales": [k] * n}
              for lat, kib, k in ((slow, 3072, 0.5), (mixed, 1024, 1.0),
                                  (slow, 2048, 1.0))]
    m = run.best_metrics(passes)
    assert m["wall_s"] == pytest.approx(sum(fast))
    assert m["query_p50_s"] == pytest.approx(0.0255)
    assert m["query_p80_s"] == pytest.approx(0.040)
    assert m["peak_rss_mib"] == 2.0
    passes[0]["scales"] = [1.0] * n
    assert run.best_metrics(passes)["wall_s"] == pytest.approx(sum(mixed))
    with pytest.raises(run.BenchError):
        run.best_metrics([{"queries": n - 1, "latencies": fast[1:],
                           "peak_rss_kib": 1024, "scales": [1.0] * (n - 1)}])


def test_scales_use_the_fastest_unit_around_each_query():
    ref = calibration.REFERENCE_S
    unit_starts = [0.0, 0.1, 0.2, 1.0, 1.1, 1.2, 5.0]
    units = [ref, 2 * ref, ref, 4 * ref, 2 * ref, 4 * ref, ref]
    # near the start; around 1 s only slow units; far from every window
    starts, durations = [0.05, 1.05, 4.0], [0.01, 0.01, 0.01]
    got = calibration.scales(unit_starts, units, starts, durations)
    assert got == [pytest.approx(1.0), pytest.approx(0.5), pytest.approx(1.0)]


def test_probe_time_stays_out_of_latencies_and_wall():
    probe = calibration.Probe()
    probe.sample()
    queries = [workloads.Query(("sleep", i), lambda: time.sleep(0.03),
                               lambda _x, _r: True) for i in range(4)]
    _out, latencies, _raised, wall = worker.run_queries(queries, probe=probe)
    assert len(probe.units) >= 3 and len(probe.query_starts) == 4
    assert wall == pytest.approx(sum(latencies), abs=0.01)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_pass_has_enough_queries(workload):
    queries = workloads.build(workload, inputs.generate(workload, 1))
    assert len(queries) >= run.MIN_QUERIES


def test_module_chars_sizes():
    data = inputs.generate("module-chars", 1)
    for spec, total, summands in data["sums"]:
        assert 2 <= len(summands) <= 3
        assert tuple(map(sum, zip(*[e for e, _m in summands]))) == total


def test_tracer_preserves_outputs_and_restores_bindings():
    queries = _tiny("structural")
    plain, _lat, _raised, wall = worker.run_queries(queries)
    orig_hom = repfq.hom_dim
    orig_mul = laurent.LaurentPoly.__mul__
    t = tracer.Tracer()
    t.install(extra_modules=(workloads,))
    try:
        assert candecomp.hom_dim is not orig_hom
        traced, _lat, raised, twall = worker.run_queries(queries, t)
    finally:
        t.uninstall()
    assert candecomp.hom_dim is orig_hom and repfq.hom_dim is orig_hom
    assert laurent.LaurentPoly.__mul__ is orig_mul
    assert raised == set()
    assert worker.output_digest(traced) == worker.output_digest(plain)
    m = t.metrics(twall)
    assert set(m) == {name for name, _u in tracer.METRICS} - {"trace.overhead_ratio"}
    assert m["candecomp.canonical_decomposition.calls"] > 0
    assert m["repfq.hom_dim.fp_calls"] > 0
    assert 0 < m["trace.coverage"] <= 1
    assert all(s[4] >= 0 for s in t.spans)


def test_benchmark_json_matches_metric_lists():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == [n for n, _u in tracer.METRICS]
    assert [m["unit"] for m in doc["per_layer"]] == [u for _n, u in tracer.METRICS]
    assert [w["name"] for w in doc["workloads"]] == list(inputs.WORKLOADS)
