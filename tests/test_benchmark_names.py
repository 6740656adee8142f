"""The benchmark's tracer and workloads find genvar's layers by name; a
renamed, moved or deleted function would break benchmark runs without
failing anything else."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from genvar import ccmap, repfq

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
TRACER = BENCHMARK / "tracer.py"

# Public names of genvar.repfq before the representation layer moved to
# genvar.reps; every one must still resolve there.
REPFQ_NAMES = (
    "DEFAULT_BUDGET", "DEFAULT_PRIMES", "Representation", "chi_all",
    "count_all_subreps", "count_subreps", "counting_polynomial", "direct_sum",
    "dual_rep", "euler_char_grassmannian", "ext_dim", "ext_from_hom",
    "good_primes", "hom_dim", "interpolate", "is_prime", "poly_eval",
    "projective_rep", "rep_mod", "sample_integer_rep", "sample_representation",
    "simple_rep", "zero_rep",
)


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod, fn in tracer.FUNCTIONS + (("ccmap", "_sample_parts"),):
        assert callable(getattr(importlib.import_module("genvar." + mod), fn)), (mod, fn)
    params = inspect.signature(ccmap.generic_variable).parameters
    assert {"q", "d", "seed", "pool"} <= set(params)


def test_every_name_the_workloads_import_resolves():
    tree = ast.parse((BENCHMARK / "workloads.py").read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "genvar"
               for alias in node.names]
    assert ("genvar.repfq", "Representation") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_repfq_names_resolve_to_their_defining_module():
    for name in REPFQ_NAMES:
        obj = getattr(repfq, name)
        home = importlib.import_module(getattr(obj, "__module__", None) or "genvar.repfq")
        assert home.__name__ in ("genvar.reps", "genvar.repfq"), name
        assert getattr(home, name) is obj, name
