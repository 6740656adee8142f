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

# Names read through genvar.repfq, some defined in genvar.reps or
# genvar.errors; every one must still resolve there.
REPFQ_NAMES = (
    "DEFAULT_BUDGET", "DEFAULT_PRIMES", "Representation", "chi_all",
    "count_all_subreps", "direct_sum", "dual_rep", "good_primes", "hom_dim",
    "interpolate", "poly_eval", "rep_mod", "zero_rep",
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
        assert home.__name__ in ("genvar.errors", "genvar.reps", "genvar.repfq"), name
        assert getattr(home, name) is obj, name


def test_every_call_the_workloads_make_into_genvar_binds():
    # names resolving is not enough: a dropped parameter breaks a call such
    # as build_basis(..., seed=seed) only when the benchmark runs it
    tree = ast.parse((BENCHMARK / "workloads.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name:
                getattr(importlib.import_module(node.module), alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "genvar" for alias in node.names}
    bound = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            name, fn = func.id, imported[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in imported):
            name = func.value.id + "." + func.attr
            fn = getattr(imported[func.value.id], func.attr)
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or not all(
                kw.arg for kw in node.keywords):
            continue  # Quiver(*spec): its arity is read at run time
        try:
            inspect.signature(fn).bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            raise AssertionError("workloads.py:%d %s: %s" % (node.lineno, name, exc)) from None
        bound.add((name, len(node.args), tuple(kw.arg for kw in node.keywords)))
    assert ("candecomp.generic_ext_vanishes_cluster", 4, ()) in bound
    assert ("kronecker.build_basis", 1, ("n_max", "monomial_bound", "seed")) in bound
