"""The benchmark's tracer finds genvar's layers by name; a renamed or
deleted function would break traced runs without failing anything else."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from genvar import ccmap

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod, fn in tracer.FUNCTIONS + (("ccmap", "_sample_parts"),):
        assert callable(getattr(importlib.import_module("genvar." + mod), fn)), (mod, fn)
    params = inspect.signature(ccmap.generic_variable).parameters
    assert {"q", "d", "seed", "pool"} <= set(params)
