"""Representations: Hom/Ext, subrepresentation counting, interpolation."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genvar import repfq
from genvar.errors import BudgetError, ConsistencyError, InputError
from genvar.linalg import PackedFp, gauss_binom, rank_mod_p
from genvar.quiver import Quiver, a_n, affine_a2, kronecker
from genvar.repfq import (Representation, count_all_subreps, count_subreps,
                          counting_polynomial, direct_sum, dual_rep, ext_dim,
                          euler_char_grassmannian, good_primes, hom_dim,
                          projective_rep, rep_mod, sample_integer_rep,
                          sample_representation, simple_rep, zero_rep)


# ------------------------------------------------------------- hom and ext

def test_projective_dimensions(a3):
    assert projective_rep(a3, 1).dim == (1, 1, 1)
    assert projective_rep(a3, 2).dim == (0, 1, 1)
    assert projective_rep(a3, 3).dim == (0, 0, 1)


def test_hom_from_projective_reads_fibre_dimension(a3):
    p1 = projective_rep(a3, 1)
    p3 = projective_rep(a3, 3)
    assert hom_dim(p1, p1) == 1
    assert hom_dim(p1, p3) == 0
    assert hom_dim(p3, p1) == 1  # fibre of p1 at vertex 3
    assert ext_dim(p1, p3) == 0 and ext_dim(p3, p1) == 0


def test_simple_reps_ext_counts_arrows(kron, a3):
    s1, s2 = simple_rep(kron, 1), simple_rep(kron, 2)
    assert hom_dim(s1, s2) == 0
    assert ext_dim(s1, s2) == 2  # one per arrow
    assert ext_dim(s2, s1) == 0
    t1, t3 = simple_rep(a3, 1), simple_rep(a3, 3)
    assert ext_dim(t1, t3) == 0  # no arrow 1 -> 3


def test_hom_minus_ext_is_euler_form(kron, a3, atilde):
    rng = random.Random(5)
    cases = [(kron, (2, 1), (1, 2)), (kron, (1, 1), (2, 2)),
             (a3, (1, 1, 0), (0, 1, 1)), (atilde, (1, 1, 1), (1, 0, 1)),
             (atilde, (2, 1, 2), (1, 1, 1))]
    for q, dm, dn in cases:
        m = sample_integer_rep(q, dm, rng)
        n = sample_integer_rep(q, dn, rng)
        assert (hom_dim(m, n) - ext_dim(m, n)) == q.euler_form(dm, dn)
        assert (hom_dim(n, m) - ext_dim(n, m)) == q.euler_form(dn, dm)


def test_direct_sum_hom_is_additive(kron):
    rng = random.Random(9)
    a = sample_integer_rep(kron, (1, 1), rng)
    b = sample_integer_rep(kron, (2, 1), rng)
    s = direct_sum(a, b)
    assert s.dim == (3, 2)
    total = (hom_dim(a, a) + hom_dim(a, b) + hom_dim(b, a) + hom_dim(b, b))
    assert hom_dim(s, s) == total


def test_representation_validation(kron):
    with pytest.raises(InputError):
        Representation(kron, 1, (1, 1), (((1,),), ((1,),)))
    with pytest.raises(InputError):
        Representation(kron, -3, (1, 1), (((1,),), ((1,),)))
    with pytest.raises(InputError):
        Representation(kron, 0, (1, 1), (((1,),),))  # missing a matrix
    with pytest.raises(InputError):
        Representation(kron, 0, (1, 1), (((1, 2),), ((1,),)))  # bad shape


# ------------------------------------------------- counting, brute-force

def _subspaces(n, p):
    """Every subspace of F_p^n once, as the frozenset of its vectors mapped
    to its dimension: grow each found subspace s by one vector v to
    {a + c v}."""
    vectors = list(itertools.product(range(p), repeat=n))
    found = {frozenset([(0,) * n]): 0}
    frontier = list(found)
    while frontier:
        grown = []
        for s in frontier:
            for v in vectors:
                if v in s:
                    continue
                t = frozenset(tuple((a + c * b) % p for a, b in zip(u, v))
                              for u in s for c in range(p))
                if t not in found:
                    found[t] = found[s] + 1
                    grown.append(t)
        frontier = grown
    return found


def brute_force_counts(m):
    """Every stable subspace tuple by its definition: a subspace is the set
    of its vectors, and a tuple is stable when each arrow maps the set at
    its tail into the set at its head. Exponential; no code shared with
    the engine."""
    p, q = m.p, m.quiver
    per_vertex = [_subspaces(m.dim[v - 1], p) for v in range(1, q.vertices + 1)]
    dims = {sub: k for subs in per_vertex for sub, k in subs.items()}
    images = {}  # (arrow, subspace) -> image set
    for ai, (s, _t) in enumerate(q.arrows):
        mat = m.matrices[ai]
        for sub in per_vertex[s - 1]:
            images[ai, sub] = frozenset(
                tuple(sum(a * b for a, b in zip(row, u)) % p for row in mat)
                for u in sub)
    counts = {}
    for combo in itertools.product(*(list(subs) for subs in per_vertex)):
        if all(images[ai, combo[s - 1]] <= combo[t - 1]
               for ai, (s, t) in enumerate(q.arrows)):
            e = tuple(dims[c] for c in combo)
            counts[e] = counts.get(e, 0) + 1
    return counts


def _three_arrow():
    return Quiver(2, ((1, 2), (1, 2), (1, 2)))


def _two_sinks():
    return Quiver(3, ((1, 2), (1, 3)))


@pytest.mark.parametrize("builder,d,p,seed", [
    (kronecker, (2, 2), 3, 11),
    (kronecker, (2, 2), 5, 12),
    (kronecker, (3, 2), 3, 13),   # dualized direction
    (kronecker, (3, 3), 3, 15),   # single-source fast path
    (lambda: a_n(2), (3, 2), 3, 16),
    (lambda: a_n(3), (1, 2, 1), 3, 17),
    (lambda: affine_a2(), (1, 1, 1), 3, 18),
    (lambda: affine_a2(), (2, 1, 2), 3, 19),  # forced-containment lifting
    (kronecker, (3, 3), 5, 14),   # linear last row at a larger prime
    (_three_arrow, (3, 3), 3, 20),  # one row's images span the sink
    (_three_arrow, (3, 2), 3, 21),  # dual: saturated before the last row
    (_two_sinks, (3, 2, 2), 3, 22),  # one source, two sinks
    (_two_sinks, (2, 2, 1), 2, 23),
])
def test_counts_match_brute_force(builder, d, p, seed):
    q = builder()
    m = sample_representation(q, d, p, seed)
    assert count_all_subreps(m) == brute_force_counts(m)


@pytest.mark.parametrize("p", [2, 3, 43, 10007])
def test_packed_kernel_matches_plain_elimination(p):
    rng = random.Random(p)
    kern = PackedFp(p, 5)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(rng.randint(1, 5))]
        packed = [kern.pack(r) for r in rows]
        basis = ()
        for u in packed:
            basis = kern.extend(basis, u)
        assert len(basis) == kern.rank(packed) == rank_mod_p(rows, p)
        # the residue against a fixed basis is linear, and zero on its span
        x, y = (kern.pack([rng.randrange(p) for _ in range(n)]) for _ in range(2))
        a = rng.randrange(p)
        lhs = kern.residue(basis, kern.reduce(x + a * y))
        assert lhs == kern.reduce(kern.residue(basis, x) + a * kern.residue(basis, y))
        assert all(kern.residue(basis, u) == 0 for u in packed)
        assert kern.coords(kern.reduce(sum(packed)), n) == [
            sum(col) % p for col in zip(*rows)]


def test_count_structure_full_fibre(kron):
    # Taking the whole fibre at the sink admits every source subspace once.
    m = sample_representation(kron, (4, 4), 5, 99)
    got = count_all_subreps(m)
    for k in range(5):
        tot = sum(c for e, c in got.items() if e[0] == k and e[1] == 4)
        assert tot == gauss_binom(4, k, 5)
    # the zero source subspace admits every sink subspace
    tot0 = sum(c for e, c in got.items() if e[0] == 0)
    assert tot0 == sum(gauss_binom(4, j, 5) for j in range(5))


def test_count_duality(kron):
    m = sample_representation(kron, (2, 3), 7, 21)
    counts = count_all_subreps(m)
    dual_counts = count_all_subreps(dual_rep(m))
    for e, c in counts.items():
        comp = tuple(a - b for a, b in zip(m.dim, e))
        assert dual_counts.get(comp, 0) == c


def test_count_subreps_validation(kron):
    m = sample_representation(kron, (2, 2), 5, 3)
    with pytest.raises(InputError):
        count_subreps(m, (3, 0))
    integer_m = sample_integer_rep(kron, (1, 1), random.Random(0))
    with pytest.raises(InputError):
        count_all_subreps(integer_m)  # needs a finite field


def test_budget_error_on_tiny_budget(kron):
    m = sample_representation(kron, (2, 2), 5, 4)
    with pytest.raises(BudgetError):
        repfq._count_engine(m, budget=1)


@pytest.mark.parametrize("builder,d,p,seed,visits", [
    # one source: every subspace of F_3^3 is one visit, sum_k [3 k]_3 = 28
    (kronecker, (3, 3), 3, 15, sum(gauss_binom(3, k, 3) for k in range(4))),
    # general engine: subspaces at vertex 1, then superspaces at vertex 2
    (lambda: affine_a2(), (2, 2, 2), 3, 5, 26),
])
def test_budget_boundary_is_the_visit_count(builder, d, p, seed, visits):
    m = sample_representation(builder(), d, p, seed)
    with pytest.raises(BudgetError):
        repfq._count_engine(m, budget=visits - 1)
    repfq._count_engine(m, budget=visits)


def test_count_cache_keeps_the_budget(kron):
    m = sample_representation(kron, (2, 2), 5, 41)
    with pytest.raises(BudgetError):
        count_all_subreps(m, budget=1)  # cold cache
    counts = count_all_subreps(m)
    with pytest.raises(BudgetError):
        count_all_subreps(m, budget=1)  # warm cache, same verdict
    assert count_all_subreps(m, budget=8) == counts  # 1 + [2 1]_5 + 1 visits


# ------------------------------------------------------- chi interpolation

def test_counting_polynomial_rigid_21(kron):
    # The rigid (2,1) representation has Grassmannian counts
    # 1, 0, q+1, 1, 1 at e = (0,0), (1,0), (1,1), (0,1), (2,1).
    m = Representation(kron, 0, (2, 1), (((1, 0),), ((0, 1),)))
    assert hom_dim(m, m) == 1 and ext_dim(m, m) == 0
    assert counting_polynomial(m, (0, 0)) == [1]
    assert counting_polynomial(m, (1, 0)) == [0]
    assert counting_polynomial(m, (1, 1)) == [1, 1]
    assert counting_polynomial(m, (0, 1)) == [1]
    assert counting_polynomial(m, (2, 1)) == [1]
    assert euler_char_grassmannian(kron, m, (1, 1)) == 2


def test_quasi_simple_counting_polynomials(kron):
    # dim (1,1) with both maps invertible: only 0, the graph line, and all.
    m = Representation(kron, 0, (1, 1), (((1,),), ((1,),)))
    assert counting_polynomial(m, (0, 0)) == [1]
    assert counting_polynomial(m, (1, 0)) == [0]
    assert counting_polynomial(m, (0, 1)) == [1]
    assert counting_polynomial(m, (1, 1)) == [1]


def test_good_primes_skips_degenerating_reductions(kron):
    # both arrow maps vanish mod 5, the module decomposes into simples
    # and End jumps from 1 to 2, so the prime must be rejected
    m = Representation(kron, 0, (1, 1), (((5,),), ((10,),)))
    assert hom_dim(m, m) == 1
    mp = rep_mod(m, 5)
    assert hom_dim(mp, mp) == 2
    primes = good_primes(m, (5, 7, 11), 2)
    assert primes == [7, 11]


def test_good_primes_guard_filter(atilde):
    # m has maps (a, b, c) = (1, 5, 1): End stays one-dimensional mod 5
    # (the chain through a still rigidifies), but with b = 0 the module
    # slides into the rank-two tube and acquires a map onto the (1,0,1)
    # class. Only the guard comparison can see that.
    m = Representation(atilde, 0, (1, 1, 1), (((1,),), ((5,),), ((1,),)))
    g = Representation(atilde, 0, (1, 0, 1), ((), ((),), ((1,),)))
    assert hom_dim(g, g) == 1 and ext_dim(g, g) == 0
    assert hom_dim(m, g) == 0 and hom_dim(g, m) == 0
    mp = rep_mod(m, 5)
    assert hom_dim(mp, mp) == 1  # End does not notice
    assert hom_dim(mp, rep_mod(g, 5)) == 1  # the guard does
    assert good_primes(m, (5, 7, 11), 2) == [5, 7]
    assert good_primes(m, (5, 7, 11), 2, guards=(g,)) == [7, 11]


def test_good_primes_budget_error(kron):
    m = Representation(kron, 0, (1, 1), (((5,),), ((10,),)))
    with pytest.raises(BudgetError):
        good_primes(m, (5,), 1)  # 5 is bad, pool exhausted


def test_interpolation_checks_integrality_and_extra_points():
    square_plus_one = [(x, x * x + 1) for x in (5, 7, 11, 13)]
    assert repfq._interpolate(square_plus_one, 2, {}) == [1, 0, 1]
    with pytest.raises(ConsistencyError, match="extra-prime"):
        repfq._interpolate(square_plus_one[:3] + [(13, 171)], 2, {})
    with pytest.raises(ConsistencyError, match="not integral"):
        repfq._interpolate([(5, 0), (7, 1)], 1, {})  # slope 1/2


def test_chi_all_matches_counting_polynomial(kron):
    m = Representation(kron, 0, (2, 1), (((1, 0),), ((0, 1),)))
    chi = repfq.chi_all(m)
    assert chi[(1, 1)] == 2
    assert chi[(0, 0)] == 1
    assert chi[(1, 0)] == 0
    assert sum(chi.values()) == 5  # 1 + 0 + 2 + 1 + 1


def test_zero_rep_counts(kron):
    z = zero_rep(kron, 5)
    assert count_all_subreps(z) == {(0, 0): 1}
