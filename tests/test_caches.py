"""The package's module-level caches: one reset, one stats view, and no
cache that changes an answer or a budget verdict."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import genvar
from genvar import cache_stats, clear_caches, repfq
from genvar.candecomp import canonical_decomposition
from genvar.ccmap import cc_of_module, generic_variable
from genvar.errors import DEFAULT_BUDGET, BudgetError
from genvar.quiver import affine_a2, kronecker
from genvar.reps import Representation

KRON, ATILDE = kronecker(), affine_a2()
# A tube module of length 2 at lambda = 1. Its character is fitted at the
# good primes 5, 7, 11 and 13; at each the two-arrow source F_p^2 is
# counted whole, one visit per subspace, so the last count visits
# sum_k [2 k]_13 = 1 + 14 + 1 = 16 subspaces.
TUBE = Representation(KRON, 0, (2, 2), (((1, 0), (0, 1)), ((1, 1), (0, 1))))
TUBE_VISITS = 16

CALLS = [
    ("generic", KRON, (2, 2)),
    ("generic", KRON, (2, 1)),
    ("generic", ATILDE, (1, 1, 1)),
    ("generic", KRON, (-1, 2)),
    ("generic", ATILDE, (2, -1, 1)),
    ("generic", KRON, (-1, 2), 1),  # its positive part (0, 2) needs budget 2
    ("decomp", KRON, (3, 3), "structural"),
    ("decomp", KRON, (3, 3), "search"),
    ("decomp", ATILDE, (2, 3, 2), "structural"),
    ("decomp", ATILDE, (2, 3, 2), "search"),
    ("module", TUBE_VISITS),
    ("module", TUBE_VISITS - 1),
]


def _answer(call):
    kind = call[0]
    try:
        if kind == "generic":
            budget = call[3] if len(call) > 3 else DEFAULT_BUDGET
            v = generic_variable(call[1], call[2], budget=budget)
            return v.poly, v.samples, v.summands
        if kind == "decomp":
            dec = canonical_decomposition(call[1], call[2], method=call[3])
            return dec.summands, dec.witnesses
        return cc_of_module(TUBE, budget=call[1])
    except BudgetError as exc:
        return "BudgetError", str(exc)


def test_answers_do_not_depend_on_what_is_cached():
    for c in CALLS:
        _answer(c)
    warm = [_answer(c) for c in CALLS]  # every answer from a cache
    clear_caches()
    cold = [_answer(c) for c in CALLS]
    clear_caches()
    backwards = [_answer(c) for c in reversed(CALLS)][::-1]
    assert warm == cold == backwards
    assert warm[-1][0] == "BudgetError" and not isinstance(warm[-2], tuple)
    assert warm[5][0] == "BudgetError"


def test_a_shifted_vector_keeps_the_budget_verdict_of_its_positive_part():
    # (2, -1, 1) is answered from the entry of (2, 0, 1), which needs
    # budget 4; an entry made at the default budget answers no smaller one
    def verdict():
        with pytest.raises(BudgetError) as exc:
            generic_variable(ATILDE, (2, -1, 1), budget=3)
        return str(exc.value)
    clear_caches()
    cold = verdict()
    generic_variable(ATILDE, (2, 0, 1))
    generic_variable(ATILDE, (2, -1, 1))
    assert verdict() == cold
    assert generic_variable(ATILDE, (2, -1, 1), budget=4).vector == (2, -1, 1)


def _module_level_caches():
    """Every functools cache and every module-level dict, list or set in
    the package, found without asking the package which ones it has."""
    found = {}
    for info in pkgutil.iter_modules(genvar.__path__):
        mod = importlib.import_module("genvar." + info.name)
        for attr, obj in vars(mod).items():
            mine = getattr(obj, "__module__", mod.__name__) == mod.__name__
            if attr.startswith("__") or not mine:
                continue
            if hasattr(obj, "cache_clear") or isinstance(obj, (dict, list, set)):
                found["%s.%s" % (info.name, attr)] = obj
    return found


def test_clear_caches_empties_every_module_level_cache():
    found = _module_level_caches()
    assert set(found) == set(cache_stats())
    generic_variable(ATILDE, (1, 1, 1))
    canonical_decomposition(KRON, (3, 3))
    cc_of_module(TUBE)
    assert sum(s["size"] for s in cache_stats().values()) > 0
    clear_caches()
    for name, obj in found.items():
        size = obj.cache_info().currsize if hasattr(obj, "cache_clear") else len(obj)
        assert size == 0, name


def test_cache_stats_counts_one_witness_hit_on_a_repeated_decomposition(monkeypatch):
    counted = []

    def spy(*args, _orig=repfq._count_engine):
        counted.append(args)
        return _orig(*args)
    monkeypatch.setattr(repfq, "_count_engine", spy)
    clear_caches()
    first = canonical_decomposition(KRON, (3, 3))
    second = canonical_decomposition(KRON, (3, 3))
    stats = cache_stats()
    assert stats["candecomp._find_witnesses"] == {"hits": 1, "misses": 1, "size": 1}
    assert counted == []  # a decomposition runs no count
    assert list(stats) == sorted(stats)
    assert second.witnesses == first.witnesses
    assert cache_stats() == stats  # reading the stats changes none of them


def test_readme_lists_every_cache_by_its_stats_name():
    """README "Caches" names each cache on a line of its own, as
    `cache_stats()` does, so a memo is not added or deleted unseen."""
    _module_level_caches()  # import every module, so cache_stats sees all
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Caches\n")[1].split("\n## ")[0]
    listed = re.findall(r"^- `([\w.]+)`", section, re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(cache_stats())
