"""The exact elimination kernels: fraction-free integer elimination over Q
(rank, primitive kernel, solve) against the packed F_p rank and against
a Gauss-Jordan reference, and the closed-form counts of subspaces and of
tails by rank against enumeration."""

import itertools
import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from genvar.linalg import (PackedFp, _back_substitute, echelon, gauss_binom,
                           image_rank_counts, kernel_basis, kernel_meet_counts,
                           pencil_layer_counts, rank_fraction, rank_mod_p, solve)

# Every minor of a matrix below is at most (3 sqrt 5)^5 < 13,600 in absolute
# value (Hadamard), so none vanishes mod 65537 and the largest rank mod p
# is the rank over Q.
PRIMES = (2, 3, 65537)


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


def _apply(a, x):
    return [sum(c * v for c, v in zip(row, x)) for row in a]


@given(matrices())
def test_rank_is_the_largest_rank_mod_p_and_fits_the_kernel(a):
    r = rank_fraction(a)
    assert r == max(rank_mod_p(a, p) for p in PRIMES)
    assert r == len(a[0]) - len(kernel_basis(a))


@st.composite
def led_matrices(draw):
    """Rows with drawn leading columns: zero rows, distinct leads and
    repeated leads all common; possibly no rows or no columns."""
    cols = draw(st.integers(0, 5))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        lead = draw(st.integers(0, cols))  # cols: a zero row
        tail = draw(st.lists(st.integers(-3, 3), min_size=max(cols - lead - 1, 0),
                             max_size=max(cols - lead - 1, 0)))
        head = [draw(st.sampled_from((-2, -1, 1, 3)))] if lead < cols else []
        rows.append([0] * lead + head + tail)
    return rows


@given(st.one_of(led_matrices(), matrices()))
@example([])
@example([[0, 0], [0, 0]])
@example([[0, 2, 1], [0, 0, 0], [5, 0, 0]])
@example([[1, 2], [2, 4]])
@example([[0, 1], [1, 0], [1, 1]])
def test_rank_certificate_agrees_with_elimination(a):
    # `rank_fraction` is the number of pivot columns of `echelon`, whether
    # the leads are distinct, repeated or on zero rows
    assert rank_fraction(a) == len(echelon(a)[1])


@given(matrices(), st.sampled_from((2, 3, 5, 7, 11, 13)))
def test_a_prime_missing_the_last_pivot_keeps_the_rank(a, p):
    # the last Bareiss pivot is a nonzero minor of full rank: the good
    # prime certificate of `repfq.good_primes`
    _ech, pivots, d = echelon(a)
    assert d != 0
    if d % p:
        assert rank_mod_p(a, p) == rank_fraction(a) == len(pivots)
    else:
        assert rank_mod_p(a, p) <= rank_fraction(a)


@given(matrices())
def test_kernel_vectors_are_primitive_and_exact(a):
    for v in kernel_basis(a):
        assert gcd(*v) == 1
        assert _apply(a, v) == [0] * len(a)


@given(matrices(), st.data())
def test_solve_is_exact_or_none(a, data):
    if data.draw(st.booleans()):  # a consistent right-hand side
        b = _apply(a, data.draw(st.lists(st.integers(-3, 3), min_size=len(a[0]),
                                         max_size=len(a[0]))))
    else:
        b = data.draw(st.lists(st.integers(-3, 3), min_size=len(a), max_size=len(a)))
    x = solve([list(c) for c in zip(*a)], b)
    r = rank_fraction(a)
    consistent = rank_fraction([row + [v] for row, v in zip(a, b)]) == r
    if r == len(a[0]) and consistent:
        assert x is not None and _apply(a, x) == b
        assert all(isinstance(c, Fraction) for c in x)
    else:
        assert x is None


# ------------------------- row echelon form against a Gauss-Jordan reference

def _gauss_jordan(rows):
    """Reference: fraction-free Gauss-Jordan elimination (Bareiss 1968),
    which also clears every pivot column above its pivot, so its pivot
    rows are d times the reduced echelon form over Q. Kept as the package
    computed it before `echelon` stopped at the row echelon form."""
    m = [list(row) for row in rows if any(row)]
    pivots = []
    d = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        a = top[c]
        for i, row in enumerate(m):
            if i == r:
                continue
            f = row[c]
            if f:
                m[i] = [(a * x - f * y) // d for x, y in zip(row, top)]
            elif a != d:
                m[i] = [a * x // d for x in row]
        pivots.append(c)
        d = a
        m[r + 1:] = [row for row in m[r + 1:] if any(row)]
    return m[:len(pivots)], pivots, d


def _reference_kernel(rows):
    ech, pivots, d = _gauss_jordan(rows)
    basis = []
    for fc in (c for c in range(len(rows[0])) if c not in pivots):
        v = [0] * len(rows[0])
        v[fc] = d
        for row, pc in zip(ech, pivots):
            v[pc] = -row[fc]
        g = gcd(*v) * (1 if d > 0 else -1)
        basis.append([x // g for x in v])
    return basis


def _reference_solve(cols, b):
    n = len(cols)
    ech, pivots, d = _gauss_jordan([[c[i] for c in cols] + [v] for i, v in enumerate(b)])
    if pivots != list(range(n)):
        return None
    return [Fraction(row[n], d) for row in ech]


@given(matrices())
@example([[0, 2, 1], [0, 0, 0], [5, 0, 0]])
@example([[1, 2], [2, 4]])
def test_row_echelon_form_keeps_the_pivots_and_minor_of_gauss_jordan(a):
    # rank and the good-prime minor read only the pivots and d, which the
    # forward pass already fixes; back-substitution gives the reduced form
    ech, pivots, d = echelon(a)
    ref, ref_pivots, ref_d = _gauss_jordan(a)
    assert (pivots, d) == (ref_pivots, ref_d)
    assert all(not any(row[:c]) for row, c in zip(ech, pivots))
    assert _back_substitute(ech, pivots, d) == ref


@given(matrices(), st.data())
def test_kernel_and_solve_match_the_gauss_jordan_reference(a, data):
    assert kernel_basis(a) == _reference_kernel(a)
    if data.draw(st.booleans()):  # a consistent right-hand side
        b = _apply(a, data.draw(st.lists(st.integers(-3, 3), min_size=len(a[0]),
                                         max_size=len(a[0]))))
    else:
        b = data.draw(st.lists(st.integers(-3, 3), min_size=len(a), max_size=len(a)))
    cols = [list(c) for c in zip(*a)]
    assert solve(cols, b) == _reference_solve(cols, b)


# ------------------------------------ subspaces counted by their image rank

def _echelon_subspaces(n, p):
    """Every subspace of F_p^n once, as the rows of its reduced echelon
    basis: pivot columns, then every value of the entries right of a
    pivot that sit in no pivot column."""
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [(i, j) for i, c in enumerate(pivots) for j in range(c + 1, n)
                    if j not in pivots]
            for vals in itertools.product(range(p), repeat=len(free)):
                rows = [[int(j == c) for j in range(n)] for c in pivots]
                for (i, j), x in zip(free, vals):
                    rows[i][j] = x
                yield rows


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_meet_counts_match_enumeration(p):
    rng = random.Random(p)
    for n in range(5):
        for kappa in range(n + 1):
            kernel = []  # a random kappa-dimensional K in F_p^n
            while rank_mod_p(kernel, p) < kappa:
                kernel = [[rng.randrange(p) for _ in range(n)] for _ in range(kappa)]
            got, total = kernel_meet_counts(n, n - kappa, p)
            want, seen = {}, 0
            for rows in _echelon_subspaces(n, p):
                meet = len(rows) + kappa - rank_mod_p(rows + kernel, p)
                key = (len(rows), len(rows) - meet)  # (dim W, dim W - dim(W meet K))
                want[key] = want.get(key, 0) + 1
                seen += 1
            assert {(k, r): c for k, r, c in got} == want
            assert len(got) == len(want)
            assert total == seen == sum(gauss_binom(n, k, p) for k in range(n + 1))


def _two_map_cases(p):
    """Named pairs of maps F_p^N -> F_p^n as column lists (a, b): degenerate
    pencils, then pairs with every kappa = dim ker[A B] from 0 to 2N for
    N = 2..4, then random pairs with degenerate columns."""
    rng = random.Random(100 + p)
    eye = [[int(i == j) for i in range(3)] for j in range(3)]
    shift = [[int(i == j + 1) for i in range(3)] for j in range(3)]  # nilpotent, rank 2

    def rank_one(n, size):
        u, v = [rng.randrange(1, p) for _ in range(n)], [rng.randrange(1, p) for _ in range(size)]
        return [[x * y % p for x in u] for y in v]

    rand = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
    cases = {
        "A = B": (rand, rand),
        "A = 0": ([[0] * 3] * 3, rand),
        "B = 0": (rand, [[0] * 3] * 3),
        "both zero": ([[0] * 2] * 4, [[0] * 2] * 4),
        "rank one each": (rank_one(3, 4), rank_one(3, 4)),
        "drops at (0:1) only": (eye, shift),  # x I + y J is singular only at x = 0
        "drops at (1:0) only": (shift, eye),
        "rank[A B] < n": ([[x % p, 2 * x % p, 0, 0, 1] for x in range(2)],
                          [[1, 2 % p, 0, 0, 1], [0, 0, 0, 0, 0]]),
    }
    for size in range(2, 5):
        for kappa in range(2 * size + 1):
            n = max(2 * size - kappa, 1)
            cols = None
            while cols is None or rank_mod_p(cols, p) != 2 * size - kappa:
                basis = [[rng.randrange(p) for _ in range(n)] for _ in range(2 * size - kappa)]
                cols = [[sum(rng.randrange(p) * v[i] for v in basis) % p for i in range(n)]
                        for _ in range(2 * size)]
            cases["N = %d, kappa = %d" % (size, kappa)] = (cols[:size], cols[size:])
    for i in range(40):
        size, n, earlier = rng.randint(2, 4), rng.randint(1, 4), []
        for _ in range(2 * size):
            earlier.append(_column(rng, p, n, earlier))
        cases["random %d" % i] = (earlier[:size], earlier[size:])
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pencil_layer_counts_match_enumeration(p):
    for name, (a, b) in _two_map_cases(p).items():
        size, n = len(a), len(a[0])
        kern = PackedFp(p, 2 * max(n, size))  # two n-vectors side by side
        got, total = pencil_layer_counts(kern, n, [kern.pack(u) for u in a],
                                         [kern.pack(u) for u in b])
        closed = {0, 1, size - 1, size}
        want = {}
        for rows in _echelon_subspaces(size, p):
            if len(rows) in closed:
                images = [[sum(x * col[i] for x, col in zip(row, m)) % p for i in range(n)]
                          for m in (a, b) for row in rows]
                key = (len(rows), rank_mod_p(images, p))
                want[key] = want.get(key, 0) + 1
        assert {(k, r): c for k, r, c in got} == want, name
        assert len(got) == len(want), name
        assert total == sum(want.values()) == sum(gauss_binom(size, k, p) for k in closed)


def _wide_kernel_pencil(kern, n, a, b):
    """Reference: the pencil's rows and total as the package computed them
    before it took z and z1 as stacked ranks, with K = ker[A B] read off
    the echelon basis of [a_j | e_j] in a fresh kernel of n + 2N fields.
    Also returns z1, z and the p + 1 pencil ranks."""
    p, rank, size = kern.p, kern.rank, len(a)
    rhos = [rank(a)] + [rank([kern.reduce(x * u + v) for u, v in zip(a, b)]) for x in range(p)]
    wide = PackedFp(p, n + 2 * size)
    cols = [kern.coords(u, n) for u in a + b]
    basis = ()
    for j, c in enumerate(cols):
        basis = wide.extend(basis, wide.pack(c + [int(i == j) for i in range(2 * size)]))
    half = size * wide.w
    ker = [u for off, u in basis if off < 2 * half]
    z = size - wide.rank([u >> half for u in ker] + [u & ((1 << half) - 1) for u in ker])
    z1 = size - wide.rank([wide.pack(r) for h in (cols[:size], cols[size:]) for r in zip(*h)])
    rk = 2 * size - len(ker)

    def lines(s):
        return (p ** s - 1) // (p - 1)

    table = [(0, 0, 1), (size, rk, 1)]
    for k, r0, zero, top in [(1, 0, z1, size), (size - 1, rk - 2, z, rk)][:size - 1]:
        counts = [lines(zero), sum(lines(top - r) - lines(zero) for r in rhos)]
        counts.append(lines(size) - sum(counts))
        table += [(k, r0 + g, c) for g, c in enumerate(counts) if c]
    total = sum(gauss_binom(size, k, p) for k in {0, 1, size - 1, size})
    return table, total, z1, z, rhos


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31])
def test_pencil_layer_counts_match_the_wide_kernel_reference(p):
    rng = random.Random(300 + p)
    cases = list(_two_map_cases(p).values())
    for size in range(2, 5):
        for n in range(1, 6):
            for _ in range(12):
                cols = []
                for _ in range(2 * size):
                    cols.append(_column(rng, p, n, cols))
                cases.append((cols[:size], cols[size:]))
    seen = set()
    for a, b in cases:
        size, n = len(a), len(a[0])
        kern = PackedFp(p, 2 * max(n, size))  # two n-vectors side by side
        a, b = [kern.pack(u) for u in a], [kern.pack(u) for u in b]
        table, total, z1, z, rhos = _wide_kernel_pencil(kern, n, a, b)
        assert pencil_layer_counts(kern, n, a, b) == (table, total)
        seen.update(name for name, hit in [
            ("z1 > 0", z1 > 0), ("z > 0", size > 2 and z > 0),
            ("singular at every point", max(rhos) < size), ("drop at (1:0)", rhos[0] < max(rhos)),
            ("N = 2", size == 2), ("n < N", n < size)] if hit)
    assert len(seen) == 6, seen


# --------------------------------------------- tails counted by image rank

def _lattice(ks, p):
    return prod(sum(gauss_binom(k, j, p) for j in range(k + 1)) for k in ks)


def _column(rng, p, n, earlier):
    """A random column, or a degenerate one: zero, a repeat of an earlier
    column, or a combination of the earlier ones."""
    kind = rng.choice(("random", "random", "zero", "repeat", "span"))
    if kind == "random" or not earlier and kind != "zero":
        return [rng.randrange(p) for _ in range(n)]
    if kind == "zero":
        return [0] * n
    if kind == "repeat":
        return list(rng.choice(earlier))
    coeffs = [rng.randrange(p) for _ in earlier]
    return [sum(a * u[i] for a, u in zip(coeffs, earlier)) % p for i in range(n)]


def _system(rng, p, n, k, ntails):
    """Per arrow (c_a, [d_a1, ..]) as plain lists; c_a is often drawn in the
    span of the d's."""
    arrows, earlier = [], []
    for _ in range(k):
        ds = []
        for _ in range(ntails):
            ds.append(_column(rng, p, n, earlier))
            earlier.append(ds[-1])
        c = _column(rng, p, n, ds if rng.random() < 0.5 else earlier)
        earlier.append(c)
        arrows.append((c, ds))
    return arrows


def _ranks_by_enumeration(p, systems, ntails):
    """The loop the closed form replaces: one rank per target and tail x."""
    out = {}
    for x in itertools.product(range(p), repeat=ntails):
        key = tuple(rank_mod_p([[(c[i] + sum(a * d[i] for a, d in zip(x, ds))) % p
                                 for i in range(len(c))] for c, ds in arrows], p)
                    for arrows in systems)
        out[key] = out.get(key, 0) + 1
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("ntargets", [1, 2])
def test_image_rank_counts_match_enumeration(p, ntargets):
    rng = random.Random(100 * p + ntargets)
    for k_max in (1, 2, 3):
        for _ in range(6):
            ks = [rng.randint(1, k_max) for _ in range(ntargets)]
            ks[0] = k_max
            lattice = _lattice(ks, p)
            ntails = next(t for t in itertools.count(1) if p ** t > lattice)
            if p ** ntails > 20000:
                continue
            ns = [rng.randint(1, 3) for _ in ks]
            systems = [_system(rng, p, n, k, ntails) for n, k in zip(ns, ks)]
            kern = PackedFp(p, max(ns + [ntails + 1]))
            packed = [(n, [(kern.pack(c), [kern.pack(d) for d in ds]) for c, ds in arrows])
                      for n, arrows in zip(ns, systems)]
            assert image_rank_counts(kern, packed, ntails) == _ranks_by_enumeration(
                p, systems, ntails)
            # one tail fewer and the subspace tuples are too many to pay off
            assert image_rank_counts(kern, [(n, [(c, ds[1:]) for c, ds in arrows])
                                            for n, arrows in packed], ntails - 1) is None
