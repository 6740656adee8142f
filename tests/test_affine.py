"""Affine-type structure: normalized polynomial families, tube modules,
layered generic values, membership reports."""

from itertools import product

import pytest

from genvar import affine, candecomp, ccmap, clear_caches, mutation
from genvar.affine import (chebyshev_f, chebyshev_s, delta_character,
                           generic_variable_affine, s_as_f_sum, tube_module_kronecker)
from genvar.errors import BudgetError, ConsistencyError, InputError
from genvar.kronecker import membership_check_A
from genvar.laurent import LaurentPoly
from genvar.mutation import enumerate_cluster_variables, mutate
from genvar.errors import DEFAULT_BUDGET
from genvar.reps import Representation, ext_dim, hom_dim

substitute = LaurentPoly.substitute_univariate


def test_chebyshev_families_frozen():
    assert chebyshev_s(0) == [1]
    assert chebyshev_s(1) == [0, 1]
    assert chebyshev_s(2) == [-1, 0, 1]
    assert chebyshev_s(3) == [0, -2, 0, 1]
    assert chebyshev_s(4) == [1, 0, -3, 0, 1]
    assert chebyshev_f(0) == [2]
    assert chebyshev_f(1) == [0, 1]
    assert chebyshev_f(2) == [-2, 0, 1]
    assert chebyshev_f(3) == [0, -3, 0, 1]
    assert chebyshev_f(4) == [2, 0, -4, 0, 1]


def test_shared_three_term_recurrence():
    # P_{n+1} = x P_n - P_{n-1} for both families
    for fam in (chebyshev_s, chebyshev_f):
        for n in range(1, 9):
            prev, cur, nxt = fam(n - 1), fam(n), fam(n + 1)
            shifted = [0] + cur            # multiply by x
            expect = [a - (prev[i] if i < len(prev) else 0)
                      for i, a in enumerate(shifted)]
            assert nxt == expect


def test_trace_identity_in_laurent_ring():
    t = LaurentPoly.variable(1, 1)
    x = LaurentPoly(1, {(1,): 1, (-1,): 1})  # t + 1/t
    for n in range(0, 9):
        lhs = substitute(chebyshev_f(n), x)
        rhs = LaurentPoly(1, {(n,): 1, (-n,): 1}) if n else LaurentPoly.const(1, 2)
        assert lhs == rhs
        lhs_s = substitute(chebyshev_s(n), x)
        rhs_s = LaurentPoly(1, {(n - 2 * k,): 1 for k in range(n + 1)})
        assert lhs_s == rhs_s


def test_s_as_f_sum():
    # index 0 stands for the constant 1, not the trace value 2
    assert s_as_f_sum(0) == [1]
    assert s_as_f_sum(1) == [0, 1]
    assert s_as_f_sum(2) == [1, 0, 1]
    assert s_as_f_sum(5) == [0, 1, 0, 1, 0, 1]
    x = LaurentPoly(1, {(1,): 1, (-1,): 1})
    for n in range(0, 8):
        coeffs = s_as_f_sum(n)
        total = LaurentPoly.zero(1)
        for k, c in enumerate(coeffs):
            if not c:
                continue
            part = LaurentPoly.one(1) if k == 0 else substitute(chebyshev_f(k), x)
            total = total + part.scale(c)
        assert total == substitute(chebyshev_s(n), x)
    with pytest.raises(InputError):
        s_as_f_sum(-1)


def test_tube_modules(kron):
    t1 = tube_module_kronecker(kron, 1, 1)
    assert t1.dim == (1, 1) and t1.p == 0
    assert hom_dim(t1, t1) == 1
    t2 = tube_module_kronecker(kron, 2, 1)
    assert hom_dim(t1, t2) == 0 and hom_dim(t2, t1) == 0
    deep = tube_module_kronecker(kron, 1, 3)
    assert deep.dim == (3, 3)
    assert hom_dim(deep, deep) == 3
    assert tube_module_kronecker(kron, 5, 1).dim == (1, 1)


@pytest.mark.parametrize("length", [2.7, True, 0, "2"])
def test_tube_length_must_be_a_positive_integer(kron, length):
    # 2.7 was truncated to quasi-length 2 and True read as quasi-length 1
    with pytest.raises(InputError):
        tube_module_kronecker(kron, 1, length)


def test_tube_modules_are_not_rigid(kron):
    t1 = tube_module_kronecker(kron, 1, 1)
    assert ext_dim(t1, t1) == 1
    from genvar.candecomp import exceptional_regular_dims
    assert exceptional_regular_dims(kron) == []


# A module on A_2 has a dimension vector that fits the Kronecker quiver:
# the membership report raised ConsistencyError (exit 4).
@pytest.mark.parametrize("report", [
    lambda m: membership_check_A(ccmap.DecoratedRep(m, (0, 0))),
], ids=["membership"])
def test_affine_reports_refuse_a_module_on_another_quiver(report):
    from genvar.quiver import a_n
    m = Representation(a_n(2), 0, (1, 1), (((1,),),))
    with pytest.raises(InputError):
        report(m)


def test_delta_character_is_quasi_simple_character(kron, z_closed_form):
    assert delta_character(kron) == z_closed_form


def test_cached_delta_character_keeps_the_prime_pool(kron, z_closed_form):
    # delta is thin, so its character is decided over Q and answers on any
    # pool; a cached value still never outlives a smaller pool where the
    # character sweeps primes: (2,1) needs three good primes
    delta_character(kron)
    assert delta_character(kron, pool=(5,)) == z_closed_form
    ccmap.generic_variable(kron, (2, 1))
    with pytest.raises(BudgetError):
        ccmap.generic_variable(kron, (2, 1), pool=(5,))


def test_affine_generic_matches_direct_route(kron, atilde):
    for q, d in [(kron, (1, 1)), (kron, (2, 2)), (kron, (2, 1)),
                 (kron, (-1, 2)), (kron, (0, -2)),
                 (atilde, (1, 1, 1)), (atilde, (2, 1, 2))]:
        via_structure = generic_variable_affine(q, d)
        direct = ccmap.generic_variable(q, d)
        assert via_structure.poly == direct.poly, d
    # (2,1,2) = (1,0,1) + delta: the whole first sample, counted as one
    # module, agrees with the value assembled summand by summand
    direct = ccmap.generic_variable(atilde, (2, 1, 2))
    dim, matrices = direct.samples[0]
    whole = Representation(atilde, 0, dim, matrices)
    guards = ccmap.generic_guards(atilde, direct.rigid)
    assert ccmap.cc_of_module(whole, guards=guards) == direct.poly


def test_affine_generic_tags(kron):
    assert generic_variable_affine(kron, (2, 2)).tag == "delta_layer"
    assert generic_variable_affine(kron, (2, 2)).delta_power == 2
    assert generic_variable_affine(kron, (3, 2)).tag == "cluster_monomial"
    assert generic_variable_affine(kron, (-1, -1)).tag == "cluster_monomial"
    assert generic_variable_affine(kron, (3, 3)).delta_power == 3


@pytest.mark.parametrize("name", ["kron", "atilde"])
def test_grown_table_answers_as_the_whole_table(request, name):
    # every positive denominator of a depth-6, 10-sweep table answers from
    # the directed walks as from that table, whatever the lookup order
    q = request.getfixturevalue(name)
    whole = enumerate_cluster_variables(q, 6, sweeps=10)
    dens = [e for e in whole.entries if min(e) >= 0]
    assert all(q.q_norm(e) == 1 for e in dens)
    want = [whole.entries[e].key() for e in dens]

    def look(e):
        return affine._real_summand(q, e, DEFAULT_BUDGET).key()

    clear_caches()
    cold = [look(e) for e in dens]
    warm = [look(e) for e in dens]
    clear_caches()
    backwards = [look(e) for e in reversed(dens)][::-1]
    assert cold == warm == backwards == want


def test_a_deep_real_root_is_read_off_its_sweep_walk(kron, monkeypatch):
    # (12,11) takes 12 source sweeps; no module is counted in its place
    called = []
    monkeypatch.setattr(ccmap, "rigid_integer_rep", lambda *a, **k: called.append(a))
    clear_caches()
    want = enumerate_cluster_variables(kron, 0, sweeps=12).entries[(12, 11)]
    assert affine._real_summand(kron, (12, 11), DEFAULT_BUDGET) == want
    assert generic_variable_affine(kron, (12, 11)).poly == want
    assert called == []


def _inexact(seed, k):
    raise ConsistencyError("inexact exchange")


# Kronecker: the first source sweep takes one mutation and holds (1, 0);
# (2, 1) needs the second, where the fault strikes.
@pytest.mark.parametrize("name, fault, error", [
    ("mutate", _inexact, ConsistencyError),
])
def test_a_failed_growth_is_never_cached(kron, monkeypatch, name, fault, error):
    clear_caches()
    real, steps = getattr(mutation, name), []

    def after_one(seed, k):
        steps.append(k)
        return (real if len(steps) <= 1 else fault)(seed, k)

    monkeypatch.setattr(mutation, name, after_one)
    assert affine._real_summand(kron, (1, 0), DEFAULT_BUDGET) is not None
    for lookup in [lambda: affine._real_summand(kron, (2, 1), DEFAULT_BUDGET),
                   lambda: affine._real_summand(kron, (2, 1), DEFAULT_BUDGET),
                   lambda: affine._real_summand(kron, (12, 11), DEFAULT_BUDGET),
                   lambda: generic_variable_affine(kron, (1, 2))]:
        with pytest.raises(error):
            lookup()
    monkeypatch.undo()
    whole = enumerate_cluster_variables(kron, 6, sweeps=10)
    assert affine._real_summand(kron, (2, 1), DEFAULT_BUDGET) == whole.entries[(2, 1)]


def test_a_zero_budget_refuses_a_real_summand_whatever_is_cached(kron):
    for warm in (lambda: None, lambda: generic_variable_affine(kron, (3, 2)), clear_caches):
        warm()
        with pytest.raises(BudgetError):
            generic_variable_affine(kron, (3, 2), budget=0)


@pytest.mark.parametrize("order", [(0, -1), (-1, 0)])
def test_the_budget_boundary_is_the_walk_charge(kron, order):
    clear_caches()
    want = generic_variable_affine(kron, (3, 2)).poly
    charge = affine._walk(kron, 1)[2][(3, 2)]
    assert charge > 0
    clear_caches()
    for shift in order:
        if shift:
            with pytest.raises(BudgetError):
                generic_variable_affine(kron, (3, 2), budget=charge + shift)
        else:
            assert generic_variable_affine(kron, (3, 2), budget=charge).poly == want


def test_the_affine_route_draws_no_witness_tuple(kron, monkeypatch):
    def refuse(*args):
        raise AssertionError("witness tuple drawn")

    monkeypatch.setattr(candecomp, "_find_witnesses", refuse)
    for k in (10, 13, 20):
        value = generic_variable_affine(kron, (k, k))
        assert (value.tag, value.delta_power) == ("delta_layer", k)
        assert value.poly == delta_character(kron) ** k


def test_kronecker_chains_obey_the_division_free_recurrence(kron, z_closed_form):
    # Sherman-Zelevinsky: x_{n+1} + x_{n-1} = z x_n along both chains
    # (0,-1), (1,0), (2,1), ... and (-1,0), (0,1), (1,2), ...
    for chain in (lambda n: (n, n - 1), lambda n: (n - 1, n)):
        x = [generic_variable_affine(kron, chain(n)).poly for n in range(22)]
        assert [v.denominator_vector() for v in x] == [chain(n) for n in range(22)]
        for n in range(1, 21):
            assert x[n + 1] + x[n - 1] == z_closed_form * x[n], chain(n)


def test_every_small_affine_a2_real_schur_root_answers(atilde):
    roots = [e for e in product(range(9), repeat=3)
             if any(e) and atilde.q_norm(e) == 1 and candecomp.is_schur_root(atilde, e)]
    assert len(roots) > 20
    for e in roots:
        assert generic_variable_affine(atilde, e).poly.denominator_vector() == e


# The whole table takes 30 mutations on the Kronecker quiver and 100 on
# affine A2; these lookups need the first 2 and 3 BFS layers.
@pytest.mark.parametrize("name, d, misses", [("kron", (1, 2), 6),
                                             ("atilde", (1, 1, 2), 30)])
def test_the_affine_route_mutates_only_as_far_as_it_reads(request, name, d, misses):
    q = request.getfixturevalue(name)
    clear_caches()
    generic_variable_affine(q, d)
    assert mutate.cache_info().misses <= misses


@pytest.mark.parametrize("d, seed", [((2, 1), "x"), ((2, 1), True),
                                     ((-1, 0), "x"), ((1, 1), "x")])
def test_affine_generic_checks_the_seed_on_every_vector(kron, d, seed):
    # (2, 1) reads the walk and (-1, 0) only a monomial: neither draws a
    # sample, yet both refuse a seed that is not an int
    with pytest.raises(InputError):
        generic_variable_affine(kron, d, seed=seed)


def test_affine_generic_rejects_dynkin(a2):
    with pytest.raises(InputError):
        generic_variable_affine(a2, (1, 1))


def test_membership_tube_characters(kron):
    t1 = tube_module_kronecker(kron, 1, 1)
    report = membership_check_A(ccmap.DecoratedRep(t1, (0, 0)))
    assert report["integral"] is True
    assert report["den"] == [1, 1]
    assert report["coefficients"] == [["imag:1", 1]]


def test_membership_builds_its_family_under_the_callers_budget(kron):
    # the character of a quasi-simple costs 4 visits, its family window more
    obj = ccmap.DecoratedRep(tube_module_kronecker(kron, 1, 1), (0, 0))
    with pytest.raises(BudgetError):
        membership_check_A(obj, budget=4)


def test_membership_deeper_tube(kron):
    t2 = tube_module_kronecker(kron, 1, 2)
    report = membership_check_A(ccmap.DecoratedRep(t2, (0, 0)))
    assert report["integral"] is True
    assert report["den"] == [2, 2]
    # hand-computed character: submodule counts over F_q for the
    # quasi-length-two module (identity, nilpotent Jordan block) give
    # 1, q+2, q+2, 1 by total dimension, so the character equals the
    # degree-two normalized family element: one generic layer minus the
    # unit monomial.
    names = dict((n, c) for n, c in report["coefficients"])
    assert names == {"imag:2": 1, "mono:0,0": -1}


def test_membership_rejects_other_quivers(atilde):
    m = Representation(atilde, 0, (1, 1, 1), (((1,),), ((1,),), ((2,),)))
    with pytest.raises(InputError):
        membership_check_A(ccmap.DecoratedRep(m, (0, 0, 0)))
