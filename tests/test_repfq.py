"""Representations: Hom/Ext, subrepresentation counting, interpolation."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genvar import linalg, repfq, reps
from genvar.affine import tube_module_kronecker
from genvar.errors import BudgetError, ConsistencyError, InputError
from genvar.linalg import (PackedFp, gauss_binom, image_rank_counts, kernel_meet_counts,
                           pencil_layer_counts, rank_mod_p)
from genvar.quiver import Quiver, a_n, affine_a2, kronecker
from genvar.repfq import (DEFAULT_BUDGET, DEFAULT_PRIMES, Representation, chi_all,
                          count_all_subreps, good_primes, interpolate)
from genvar.reps import (direct_sum, dual_rep, ext_dim, hom_dim, rep_mod, sample_integer_rep,
                         sample_representation, zero_rep)

# simple modules S_1 and S_2 of the double-arrow quiver, S_1 and S_3 of affine A2 over F_3
KRON_S1 = Representation(kronecker(), 0, (1, 0), ((), ()))
KRON_S2 = Representation(kronecker(), 0, (0, 1), (((),), ((),)))
ATILDE_S1_MOD3 = Representation(affine_a2(), 3, (1, 0, 0), ((), (), ()))
ATILDE_S3_MOD3 = Representation(affine_a2(), 3, (0, 0, 1), ((), ((),), ((),)))


def _counting_polynomial(m, e):
    """Coefficients of the e-count of m over F_q, trailing zeros stripped."""
    ints = repfq._counting_polynomials(m, [e], DEFAULT_PRIMES, DEFAULT_BUDGET, ())[e]
    while len(ints) > 1 and ints[-1] == 0:
        ints.pop()
    return ints


# ------------------------------------------------------------- hom and ext

# the indecomposable projectives of 1 -> 2 -> 3: paths from vertex i
def _a3_projectives(a3):
    return (Representation(a3, 0, (1, 1, 1), (((1,),), ((1,),))),
            Representation(a3, 0, (0, 1, 1), (((),), ((1,),))),
            Representation(a3, 0, (0, 0, 1), ((), ((),))))


def test_projective_dimensions(a3):
    p1, p2, p3 = _a3_projectives(a3)
    assert p1.dim == (1, 1, 1)
    assert p2.dim == (0, 1, 1)
    assert p3.dim == (0, 0, 1)


def test_hom_from_projective_reads_fibre_dimension(a3):
    p1, _p2, p3 = _a3_projectives(a3)
    assert hom_dim(p1, p1) == 1
    assert hom_dim(p1, p3) == 0
    assert hom_dim(p3, p1) == 1  # fibre of p1 at vertex 3
    assert ext_dim(p1, p3) == 0 and ext_dim(p3, p1) == 0


def test_simple_reps_ext_counts_arrows(kron, a3):
    s1, s2 = KRON_S1, KRON_S2
    assert hom_dim(s1, s2) == 0
    assert ext_dim(s1, s2) == 2  # one per arrow
    assert ext_dim(s2, s1) == 0
    t1 = Representation(a3, 0, (1, 0, 0), ((), ()))
    t3 = Representation(a3, 0, (0, 0, 1), ((), ((),)))
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


def test_direct_sum_of_three_is_block_diagonal(kron):
    a = Representation(kron, 0, (1, 1), (((1,),), ((2,),)))
    b, c = KRON_S2, KRON_S1
    s = direct_sum(a, b, c)
    assert s.dim == (2, 2)
    assert s.matrices == (((1, 0), (0, 0)), ((2, 0), (0, 0)))
    assert direct_sum(a) == a
    assert direct_sum(direct_sum(a, b), c) == s
    with pytest.raises(InputError):
        direct_sum(a, b, rep_mod(KRON_S1, 5))


def test_direct_sum_hom_is_additive(kron):
    rng = random.Random(9)
    a = sample_integer_rep(kron, (1, 1), rng)
    b = sample_integer_rep(kron, (2, 1), rng)
    s = direct_sum(a, b)
    assert s.dim == (3, 2)
    total = (hom_dim(a, a) + hom_dim(a, b) + hom_dim(b, a) + hom_dim(b, b))
    assert hom_dim(s, s) == total


@pytest.mark.parametrize("seed", range(6))
def test_blockwise_hom_sum_is_the_hom_of_the_direct_sum(seed):
    # the sample certificates of generic_variable read Hom block by block
    rng = random.Random(seed)
    q = (kronecker(), a_n(3), affine_a2(), _jumping_quiver())[seed % 4]
    p = (0, 5)[seed % 2]
    parts = [sample_integer_rep(q, tuple(rng.randint(0, 2) for _ in range(q.vertices)),
                                rng) for _ in range(rng.randint(1, 4))]
    if p:
        parts = [rep_mod(part, p) for part in parts]
    total = zero_rep(q, p)
    for part in parts:
        total = direct_sum(total, part)
    g = parts[0] if p else sample_integer_rep(q, (1,) * q.vertices, rng)
    assert hom_dim(total, total) == sum(hom_dim(a, b) for a in parts for b in parts)
    assert hom_dim(total, g) == sum(hom_dim(a, g) for a in parts)
    assert hom_dim(g, total) == sum(hom_dim(g, a) for a in parts)


THREE_ARROW = Quiver(2, ((1, 2), (1, 2), (1, 2)))


@pytest.mark.parametrize("q", [kronecker(), affine_a2(), a_n(3), THREE_ARROW],
                         ids=["kronecker", "affine-a2", "a3", "three-arrow"])
def test_thin_hom_matches_elimination(q):
    # random thin pairs with independent supports and entries in [-3, 3]
    # (zero scalars included): the support graph against the Bareiss
    # elimination over Q and the packed F_p rank at p = 2, 3, 5
    rng = random.Random(30)
    dims = list(itertools.product((0, 1), repeat=q.vertices))
    full = (1,) * q.vertices
    full_homs = set()
    for case in range(400):
        m = sample_integer_rep(q, rng.choice(dims), rng)
        n = m if case % 5 == 0 else sample_integer_rep(q, rng.choice(dims), rng)
        hom = reps._thin_hom_dim(m, n)
        assert hom == hom_dim(m, n) == repfq._hom_minor(m, n)[0]
        if m.dim == n.dim == full and all(reps.thin_scalars(m) + reps.thin_scalars(n)):
            full_homs.add(hom)
        for p in (2, 3, 5):
            mp, np_ = rep_mod(m, p), rep_mod(n, p)
            total, rows = reps._hom_equations(mp, np_)
            assert reps._thin_hom_dim(mp, np_) == hom_dim(mp, np_) == (
                total - rank_mod_p(rows, p) if rows else total)
    # with every scalar nonzero, ratios that disagree around a cycle (the
    # affine A2 triangle, or two parallel arrows) kill Hom, agreeing ones keep it
    assert full_homs == ({1} if q == a_n(3) else {0, 1})


def test_thin_hom_runs_no_elimination(monkeypatch, kron, atilde):
    def refuse(*_args):
        raise AssertionError("a thin Hom was eliminated")
    monkeypatch.setattr(reps, "echelon", refuse)
    monkeypatch.setattr(reps, "rank_mod_p", refuse)
    tube = Representation(kron, 0, (1, 1), (((1,),), ((2,),)))
    cycle = Representation(atilde, 0, (1, 1, 1), (((1,),), ((1,),), ((2,),)))
    assert hom_dim(tube, tube) == 1 and hom_dim(rep_mod(tube, 5), rep_mod(tube, 5)) == 1
    c3, s1, s3 = rep_mod(cycle, 3), ATILDE_S1_MOD3, ATILDE_S3_MOD3
    assert hom_dim(cycle, cycle) == 1 and hom_dim(c3, s1) == hom_dim(s3, c3) == 1
    assert hom_dim(s1, c3) == hom_dim(c3, s3) == 0
    assert hom_dim(KRON_S1, tube) == 0  # both arrows' equations kill phi_1
    with pytest.raises(AssertionError, match="eliminated"):
        hom_dim(direct_sum(tube, tube), tube)
    with pytest.raises(InputError):
        hom_dim(tube, rep_mod(tube, 5))
    with pytest.raises(InputError):
        hom_dim(tube, cycle)


# Each of these answered or raised a raw exception instead of InputError.
BAD_ARGUMENTS = {
    "float_characteristic": lambda: Representation(kronecker(), 5.0, (1, 1),
                                                   (((1,),), ((1,),))),
    "rep_mod_float_prime": lambda: rep_mod(KRON_S1, 5.0),
    "sample_bounds_reversed": lambda: sample_integer_rep(kronecker(), (1, 1),
                                                         random.Random(0), lo=3, hi=-3),
    "sample_float_bound": lambda: sample_integer_rep(kronecker(), (1, 1),
                                                     random.Random(0), lo=0.5),
}


@pytest.mark.parametrize("name", sorted(BAD_ARGUMENTS))
def test_bad_representation_arguments_raise_input_error(name):
    with pytest.raises(InputError):
        BAD_ARGUMENTS[name]()


def test_representation_validation(kron):
    with pytest.raises(InputError):
        Representation(kron, 1, (1, 1), (((1,),), ((1,),)))
    with pytest.raises(InputError):
        Representation(kron, -3, (1, 1), (((1,),), ((1,),)))
    with pytest.raises(InputError):
        Representation(kron, 4, (1, 1), (((1,),), ((1,),)))  # composite
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


def _path_and_branch():
    # the last enumerated vertex 2 has one arrow, into sink 3, while
    # vertex 1 forces the other sink, 4
    return Quiver(4, ((1, 2), (2, 3), (1, 4)))


BRUTE_FORCE_CASES = [
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
    (kronecker, (4, 2), 3, 24),  # up to three tails at the last row
    (_two_sinks, (4, 1, 2), 3, 25),  # two targets: the product lattice
    (_path_and_branch, (2, 2, 2, 2), 3, 27),  # closed form beside a forced sink
    (_path_and_branch, (2, 3, 2, 2), 2, 30),
]


def _engine_both_ways(m):
    """Counts from the engine run on m and, mapped back, on its dual: both
    directions, not only the one `count_all_subreps` picks."""
    direct = repfq._count_engine(m, repfq.DEFAULT_BUDGET)[0]
    dual = repfq._count_engine(dual_rep(m), repfq.DEFAULT_BUDGET)[0]
    return direct, {tuple(a - b for a, b in zip(m.dim, e)): c for e, c in dual.items()}


@pytest.mark.parametrize("builder,d,p,seed", BRUTE_FORCE_CASES)
def test_counts_match_brute_force(builder, d, p, seed):
    q = builder()
    m = sample_representation(q, d, p, seed)
    want = brute_force_counts(m)
    assert count_all_subreps(m) == want
    assert _engine_both_ways(m) == (want, want)


def test_brute_force_cases_reach_every_last_row_path(monkeypatch):
    # the whole last vertex in closed form (one arrow leaves it: type A,
    # affine A2), its ends, lines and hyperplanes from the pencil of two
    # arrows into one target (Kronecker), else at its last row the lattice
    # with one target and with several, and the loop (the middle layer of
    # Kronecker N = 4, the two sinks, three arrows)
    seen = set()

    def vertex_spy(n, rho, p):
        seen.add("vertex")
        return kernel_meet_counts(n, rho, p)

    def layers_spy(kern, n, a, b):
        seen.add("layers")
        return pencil_layer_counts(kern, n, a, b)

    def lattice_spy(kern, targets, ntails):
        out = image_rank_counts(kern, targets, ntails)
        seen.add("loop" if out is None else min(len(targets), 2))
        return out

    monkeypatch.setattr(repfq, "image_rank_counts", lattice_spy)
    monkeypatch.setattr(repfq, "kernel_meet_counts", vertex_spy)
    monkeypatch.setattr(repfq, "pencil_layer_counts", layers_spy)
    for builder, d, p, seed in BRUTE_FORCE_CASES:
        _engine_both_ways(sample_representation(builder(), d, p, seed))
    assert seen == {"vertex", "layers", 1, 2, "loop"}


def test_kronecker_counts_build_no_kernel_per_pencil(monkeypatch):
    # every Kronecker count takes one pencil, which works in the count's
    # own kernel: a count builds one PackedFp, and its pencil none
    reps = [sample_representation(kronecker(), (3, 3), 5, seed) for seed in range(8)]
    built, pencils = [], []
    init = linalg.PackedFp.__init__

    def init_spy(self, p, n_max):
        built.append((p, n_max))
        init(self, p, n_max)

    def layers_spy(kern, n, a, b):
        before = len(built)
        out = pencil_layer_counts(kern, n, a, b)
        pencils.append(len(built) - before)
        return out

    monkeypatch.setattr(linalg.PackedFp, "__init__", init_spy)
    monkeypatch.setattr(repfq, "pencil_layer_counts", layers_spy)
    for m in reps:
        repfq._count_engine(m, repfq.DEFAULT_BUDGET)
    assert pencils == [0] * len(reps)
    assert built == [(5, 6)] * len(reps)


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
    # rows walked fewer tails first: still one visit per subspace of F_3^4
    (kronecker, (4, 3), 3, 26, sum(gauss_binom(4, k, 3) for k in range(5))),
    # 1 -> 2 -> 3, seed 0 draws an invertible first map: the 1 + 4 + 1
    # subspaces of F_3^2 at vertex 1, then at vertex 2 the subspaces holding
    # their image: 6 over the zero space, 2 over each of 4 lines, 1 over F_3^2
    (lambda: a_n(3), (2, 2, 2), 3, 0, 6 + 6 + 4 * 2 + 1),
    # 1 -> 2 -> 3 and 1 -> 4, seed 27 draws a rank-one map 1 -> 2: the 6
    # subspaces of F_3^2 at vertex 1, then at vertex 2 those holding their
    # image: 6 over the zero space and over the kernel line, 2 over each
    # of the 3 other lines and over F_3^2
    (_path_and_branch, (2, 2, 2, 2), 3, 27, 6 + 6 + 6 + 3 * 2 + 2),
])
def test_budget_boundary_is_the_visit_count(builder, d, p, seed, visits):
    m = sample_representation(builder(), d, p, seed)
    with pytest.raises(BudgetError):
        repfq._count_engine(m, budget=visits - 1)
    repfq._count_engine(m, budget=visits)


def test_every_small_budget_count_raises(kron):
    m = sample_representation(kron, (2, 2), 5, 41)
    with pytest.raises(BudgetError):
        count_all_subreps(m, budget=1)  # before any full count
    counts = count_all_subreps(m)
    with pytest.raises(BudgetError):
        count_all_subreps(m, budget=1)  # after one, same verdict
    assert count_all_subreps(m, budget=8) == counts  # 1 + [2 1]_5 + 1 visits


def test_every_count_returns_its_own_dict(kron):
    m = sample_representation(kron, (2, 2), 5, 42)
    counts = count_all_subreps(m)
    want = dict(counts)
    counts.clear()
    assert count_all_subreps(m) == want
    assert count_all_subreps(m).get((2, 2), 0) == 1


# ------------------------------------------------------- chi interpolation

def test_counting_polynomial_rigid_21(kron):
    # The rigid (2,1) representation has Grassmannian counts
    # 1, 0, q+1, 1, 1 at e = (0,0), (1,0), (1,1), (0,1), (2,1).
    m = Representation(kron, 0, (2, 1), (((1, 0),), ((0, 1),)))
    assert hom_dim(m, m) == 1 and ext_dim(m, m) == 0
    assert _counting_polynomial(m, (0, 0)) == [1]
    assert _counting_polynomial(m, (1, 0)) == [0]
    assert _counting_polynomial(m, (1, 1)) == [1, 1]
    assert _counting_polynomial(m, (0, 1)) == [1]
    assert _counting_polynomial(m, (2, 1)) == [1]
    assert chi_all(m)[(1, 1)] == 2


def test_quasi_simple_counting_polynomials(kron):
    # dim (1,1) with both maps invertible: only 0, the graph line, and all.
    m = Representation(kron, 0, (1, 1), (((1,),), ((1,),)))
    assert _counting_polynomial(m, (0, 0)) == [1]
    assert _counting_polynomial(m, (1, 0)) == [0]
    assert _counting_polynomial(m, (0, 1)) == [1]
    assert _counting_polynomial(m, (1, 1)) == [1]


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


def _old_good_primes(m, pool, guards):
    """Every pool prime the per-prime rule accepts: reduce m and every
    guard mod p and compare each Hom dimension with the rational one."""
    good = []
    for p in pool:
        mp = rep_mod(m, p)
        if hom_dim(mp, mp) != hom_dim(m, m):
            continue
        if all(hom_dim(mp, rep_mod(g, p)) == hom_dim(m, g)
               and hom_dim(rep_mod(g, p), mp) == hom_dim(g, m) for g in guards):
            good.append(p)
    return good


def test_good_primes_match_the_per_prime_rule(monkeypatch):
    # small pools with 2 and 3 make primes that divide a certificate
    # minor common, so the F_p fallback runs as well as the minor test
    fallbacks = []

    def spy(a, b):
        fallbacks.append(a.p)
        return hom_dim(a, b)

    monkeypatch.setattr(repfq, "hom_dim", spy)
    rng = random.Random(2024)
    pool = (2, 3, 5, 7, 11, 13)
    rejected = 0
    for case in range(400):
        q = (kronecker(), a_n(3), affine_a2(), _jumping_quiver())[case % 4]

        def rep():
            d = tuple(rng.randint(0, 2) for _ in range(q.vertices))
            return sample_integer_rep(q, d, rng, lo=-6, hi=6)

        m = rep()
        guards = tuple(rep() for _ in range(rng.randint(0, 2)))
        want = _old_good_primes(m, pool, guards)
        rejected += len(pool) - len(want)
        if want:
            assert good_primes(m, pool, len(want), guards) == want
        with pytest.raises(BudgetError):
            good_primes(m, pool, len(want) + 1, guards)
    assert rejected > 300 and fallbacks and all(fallbacks)


def test_good_primes_needs_integer_representations(kron):
    m = sample_integer_rep(kron, (1, 1), random.Random(1))
    with pytest.raises(InputError):
        good_primes(rep_mod(m, 5), (7,), 1)
    with pytest.raises(InputError):
        good_primes(m, (7,), 1, guards=(rep_mod(m, 5),))


def test_good_primes_rejects_a_repeated_prime(kron):
    # a repeated node would make the extra-prime check vacuous, or the
    # Lagrange basis divide by zero
    m = sample_integer_rep(kron, (2, 1), random.Random(1))
    with pytest.raises(InputError):
        good_primes(m, (5, 7, 11, 11), 3)
    with pytest.raises(InputError):
        repfq.chi_all(m, pool=(5, 5, 7, 7, 11, 11, 13, 13, 17, 17, 19, 19))


def test_good_primes_rejects_a_composite(kron):
    # the self-Hom minor of this module is 49: no composite below divides
    # it, so each would pass without a reduction that could catch it
    m = sample_integer_rep(kron, (2, 1), random.Random(4))
    assert repfq._hom_minor(m, m)[1] == 49
    with pytest.raises(InputError):
        good_primes(m, (4, 6), 2)
    with pytest.raises(InputError):
        good_primes(m, (5, 9, 7, 11), 3)


@pytest.mark.parametrize("pool", [(4, 4), (4, 9)])
def test_a_thin_module_refuses_a_bad_pool(kron, pool):
    # a thin module consults no prime, yet its pool is checked as any other
    with pytest.raises(InputError):
        repfq.chi_all(tube_module_kronecker(kron, 2, 1), pool=pool)


def test_good_primes_budget_error(kron):
    m = Representation(kron, 0, (1, 1), (((5,),), ((10,),)))
    with pytest.raises(BudgetError):
        good_primes(m, (5,), 1)  # 5 is bad, pool exhausted


@pytest.mark.parametrize("count,guards", [
    (0, ()), (-1, ()), (1.5, ()), (True, ()),  # not a positive int
    (1, 5), (1, None), (1, "ab"), (1, [5]), (1, ({},))])  # not representations
def test_good_primes_checks_count_and_guards(kron, count, guards):
    m = sample_integer_rep(kron, (2, 1), random.Random(1))
    with pytest.raises(InputError):
        good_primes(m, repfq.DEFAULT_PRIMES, count, guards)
    assert good_primes(m, repfq.DEFAULT_PRIMES, 1, [m]) == [5]


def test_interpolation_checks_integrality_and_extra_points():
    square_plus_one = [(x, x * x + 1) for x in (5, 7, 11, 13)]
    assert interpolate(square_plus_one, 2) == [1, 0, 1]
    with pytest.raises(ConsistencyError, match="extra-prime"):
        interpolate(square_plus_one[:3] + [(13, 171)], 2)
    with pytest.raises(ConsistencyError, match="not integral"):
        interpolate([(5, 0), (7, 1)], 1)  # slope 1/2


@pytest.mark.parametrize("points,degree", [
    ([(5, 26), (7, 50)], 2), ([], 0), ([], 1), ([], -1),  # too few, a negative degree
    ([(5, 1), (5, 1)], 1), ([(5, 1), (7, 2), (5, 1)], 1)])  # a repeated node
def test_interpolation_needs_degree_plus_one_points(points, degree):
    with pytest.raises(InputError, match="points"):
        interpolate(points, degree)


SQUARE_PLUS_ONE = [(5, 26), (7, 50), (11, 122)]


@pytest.mark.parametrize("points,degree", [
    ([(5.0, 26), (7, 50), (11, 122)], 2), ([(True, 2), (7, 50), (11, 122)], 2),  # nodes
    ([(5, "26"), (7, 50), (11, 122)], 2), ([(5, 26), (7, 50.0), (11, 122)], 2),  # values
    ([(5, 26), (7, 50), (11, False)], 2),
    (SQUARE_PLUS_ONE, 0.5), (SQUARE_PLUS_ONE, True), (SQUARE_PLUS_ONE, "2"),  # degrees
    (iter(SQUARE_PLUS_ONE), 2), (dict(SQUARE_PLUS_ONE), 2), ([5, 7, 11], 2),  # not pairs
    ([(5, 26, 0), (7, 50, 0), (11, 122, 0)], 2), ("ab", 1)])
def test_interpolation_refuses_malformed_points(points, degree):
    with pytest.raises(InputError, match="points"):
        interpolate(points, degree)
    assert interpolate(tuple(map(list, SQUARE_PLUS_ONE)), 2) == [1, 0, 1]


def test_chi_all_matches_counting_polynomial(kron):
    m = Representation(kron, 0, (2, 1), (((1, 0),), ((0, 1),)))
    chi = repfq.chi_all(m)
    assert chi[(1, 1)] == 2
    assert chi[(0, 0)] == 1
    assert chi[(1, 0)] == 0
    assert sum(chi.values()) == 5  # 1 + 0 + 2 + 1 + 1


def _jumping_quiver():
    return Quiver(3, ((2, 1), (3, 1), (2, 3)))


def _jumping_module():
    # End and every Hom survive reduction mod 11, but the number of
    # (1,1,1)-dimensional subrepresentations is 1 there and 2 at every
    # other pool prime
    return Representation(_jumping_quiver(), 0, (2, 2, 2),
                          (((0, 0), (3, 2)), ((-2, 1), (0, 1)), ((1, 3), (3, 3))))


def test_a_count_that_jumps_at_one_good_prime_is_outvoted_by_a_second_sweep():
    m = _jumping_module()
    assert [count_all_subreps(rep_mod(m, p)).get((1, 1, 1), 0) for p in (7, 11, 13)] == [2, 1, 2]
    assert good_primes(m, repfq.DEFAULT_PRIMES, 10) == list(repfq.DEFAULT_PRIMES[:10])
    chi = repfq.chi_all(m)
    assert chi[(1, 1, 1)] == 2
    assert _counting_polynomial(m, (1, 1, 1)) == [2]
    # the single sweep without p = 11 agrees with the second sweep
    assert repfq.chi_all(m, pool=(5, 7, 13, 17, 19)) == chi
    # too few primes for a whole second sweep: the failure stands
    with pytest.raises(ConsistencyError, match="not integral"):
        repfq.chi_all(m, pool=repfq.DEFAULT_PRIMES[:9])


def test_a_budget_too_small_for_the_second_sweep_is_a_budget_error():
    # up to 76 visits a first-sweep count runs out, from 77 to 156 a
    # second-sweep count does: both are budget verdicts, never the first
    # sweep's ConsistencyError; 157 pays for every count of both sweeps
    m = _jumping_module()
    for budget in range(157):
        with pytest.raises(BudgetError):
            repfq.chi_all(m, budget=budget)
    for budget in (157, 158, 1000):
        assert repfq.chi_all(m, budget=budget)[(1, 1, 1)] == 2


def _five_vertex_quiver():
    return Quiver(5, ((1, 2), (1, 2), (2, 3), (1, 4), (4, 3), (3, 5), (4, 5)))


def _thin_modules(rng, count):
    """Random thin integer modules (every d_v <= 1) with scalars in
    [-3, 3], zeros included, each with its list of subdimension vectors."""
    quivers = (kronecker(), affine_a2(), a_n(3), _jumping_quiver(), _five_vertex_quiver())
    for case in range(count):
        q = quivers[case % len(quivers)]
        m = sample_integer_rep(q, tuple(rng.randint(0, 1) for _ in range(q.vertices)), rng)
        yield m, list(itertools.product(*[range(x + 1) for x in m.dim]))


def test_thin_modules_are_decided_over_q_as_the_counts_mod_p(monkeypatch):
    def no_sweep(*_args):
        raise AssertionError("a thin module swept primes")

    monkeypatch.setattr(repfq, "good_primes", no_sweep)
    for m, es in _thin_modules(random.Random(21), 200):
        chi = repfq.chi_all(m)
        assert sorted(chi) == es
        scalars = [x for mat in m.matrices for row in mat for x in row if x]
        for p in (5, 7, 11, 13):
            if any(x % p == 0 for x in scalars):
                continue
            counts = count_all_subreps(rep_mod(m, p))
            assert all(chi[e] == counts.get(e, 0) for e in es), (m, p)
        e = es[-1]
        assert _counting_polynomial(m, e) == [chi[e]]


def test_thin_modules_charge_one_visit_per_subdimension_vector():
    for m, es in _thin_modules(random.Random(5), 10):
        with pytest.raises(BudgetError):
            repfq.chi_all(m, budget=len(es) - 1)
        assert len(repfq.chi_all(m, budget=len(es))) == len(es)


def test_thin_modules_need_integer_representations(kron):
    m = Representation(kron, 0, (1, 1), (((1,),), ((2,),)))
    with pytest.raises(InputError):
        repfq.chi_all(rep_mod(m, 5))
    with pytest.raises(InputError):
        repfq.chi_all(m, guards=(rep_mod(m, 5),))


def test_good_primes_checks_its_pool(kron):
    m = Representation(kron, 0, (2, 1), (((1, 0),), ((0, 1),)))
    for pool in (5, "5,7", (5, 7.0), [5, True]):
        with pytest.raises(InputError):
            good_primes(m, pool, 2)


# Kronecker modules of dimension (2, 2) whose (1,1) count follows how the
# characteristic polynomial of A^-1 B splits mod p, so it is not a
# polynomial in p; the value over C is 2, one per eigenline.
# t^2 + 6t - 24 (discriminant 4 * 33): 0, 0, 1, 0, 2, 0, 0, 2 at p = 5..29
_SPLIT_33 = (((1, -3), (1, 1)), ((0, -3), (-2, -3)))
# a random module: 2, 0, 0, 0, 0, 0, 2, 0 at p = 5..29, and 1 at p = 41
_SPLIT_RANDOM = (((-1, -2), (3, 1)), ((0, 2), (-2, 1)))


@pytest.mark.parametrize("mats, pool", [
    (_SPLIT_33, (5, 7, 13, 17, 19)),  # every count but one is 0
    (_SPLIT_33, (5, 7, 11, 13, 19)),
    (_SPLIT_33, repfq.DEFAULT_PRIMES),
    (_SPLIT_RANDOM, repfq.DEFAULT_PRIMES),  # every count but the first is 0
])
def test_a_count_that_follows_a_splitting_is_never_fitted(mats, pool):
    m = Representation(kronecker(), 0, (2, 2), mats)
    assert len({count_all_subreps(rep_mod(m, p)).get((1, 1), 0)
                for p in repfq.DEFAULT_PRIMES}) == 3
    with pytest.raises(ConsistencyError):
        repfq.chi_all(m, pool=pool)


def test_a_second_sweep_tolerates_one_jump_only(kron, monkeypatch):
    m = Representation(kron, 0, (1, 2), (((1,), (2,)), ((0,), (1,))))
    want = repfq.chi_all(m)
    original = repfq.count_all_subreps

    def jumping(at):
        def counts(mp, budget):
            c = dict(original(mp, budget))
            if mp.p in at:
                c[(1, 1)] = c.get((1, 1), 0) + 1
            return c
        return counts

    # the sweeps are (5, 7, 11) and (13, 17, 19)
    monkeypatch.setattr(repfq, "count_all_subreps", jumping((7,)))
    assert repfq.chi_all(m) == want
    for at in ((7, 11), (7, 13)):  # two jumps in the first sweep, or one in each
        monkeypatch.setattr(repfq, "count_all_subreps", jumping(at))
        with pytest.raises(ConsistencyError):
            repfq.chi_all(m)


def test_dual_is_built_only_when_it_is_cheaper(kron, monkeypatch):
    built = []

    def spy(m):
        built.append(m.dim)
        return dual_rep(m)

    monkeypatch.setattr(repfq, "dual_rep", spy)
    count_all_subreps(sample_representation(kron, (1, 3), 7, 5))  # enumerates F_7^1
    assert built == []
    count_all_subreps(sample_representation(kron, (3, 1), 7, 5))  # the dual does
    assert built == [(3, 1)]


def test_zero_rep_counts(kron):
    z = zero_rep(kron, 5)
    assert count_all_subreps(z) == {(0, 0): 1}
