"""Exact linear algebra: one fraction-free elimination over the integers,
one packed reduction kernel over F_p, Gaussian binomials, and three
closed-form counts: subspaces by the rank of one map on them
(`kernel_meet_counts`), affine families of vectors by the rank of their
span, by Moebius inversion on the subspace lattice (`image_rank_counts`),
and lines and hyperplanes by the rank of two maps on them, from the ranks
of their pencil (`pencil_layer_counts`, the counting engine's route at a
last vertex with two arrows into one target).

Over Q, `echelon` is the only elimination, and it stops at the
fraction-free row echelon form: its pivot columns and last pivot d are
all that rank (`rank_fraction`) and the good-prime minor
(`reps._hom_minor`) read. The primitive integer kernel (`kernel_basis`)
and exact solving (`solve`) then back-substitute to the reduced form
(`_back_substitute`); quiver type recognition reads those two on the
Gram matrix.
Over F_p, `PackedFp` is the only one: the counting engine uses it
directly, `rank_mod_p` takes the rank of a plain integer matrix with it,
`image_rank_counts` solves its affine systems with it, and
`pencil_layer_counts` takes a pencil's ranks and the ranks of two
stacked matrices, [A; B] and [[A B 0], [0 A B]], with the counting
engine's kernel, which holds two fibres side by side. Everything here is
deterministic; `PackedFp` and the closed forms sit inside the
grassmannian point-counting hot loop.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, prod
from typing import Sequence

from .errors import ConsistencyError


# ------------------------------------------------------------ integers

def echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free row echelon form of an integer matrix (Bareiss 1968):
    (pivot rows, pivot columns, d).

    Pivot row k is zero left of its pivot column, and its entries are
    (k + 1) x (k + 1) minors of the input; d, the last pivot, is a
    nonzero r x r minor, r the rank (1 when r = 0). Each step replaces
    every row below the pivot row by (a * row - f * top) / d_prev, a
    division that is exact because every entry is a minor of the input;
    a row with f = 0 is only rescaled, and rows that become zero are
    dropped. Only the columns from the pivot on are touched: the rows
    below are zero left of it. Rank and the good-prime minor read this
    form; `_back_substitute` turns it into the reduced one.
    """
    m = [list(row) for row in rows if any(row)]
    pivots: list[int] = []
    d = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r][c:]
        a = top[0]
        zeros = [0] * c
        for i in range(r + 1, len(m)):
            row = m[i]
            f = row[c]
            if f:
                m[i] = zeros + [(a * x - f * y) // d for x, y in zip(row[c:], top)]
            elif a != d:
                m[i] = zeros + [a * x // d for x in row[c:]]
        pivots.append(c)
        d = a
        m[r + 1:] = [row for row in m[r + 1:] if any(row)]
    return m[:len(pivots)], pivots, d


def _back_substitute(ech: list[list[int]], pivots: list[int], d: int) -> list[list[int]]:
    """The pivot rows of `echelon` made d times the reduced echelon form
    over Q: every pivot entry d, every other entry of a pivot column zero.
    From the last row up, row k becomes (d R_k - sum_{j > k} R_k[c_j] S_j)
    / R_k[c_k], with S_j the rows already reduced; the division is exact
    because the result is d times the reduced form, whose entries are
    r x r minors over d (Cramer)."""
    out = list(ech)  # rows are replaced, never changed in place
    for k in range(len(out) - 2, -1, -1):
        row = out[k]
        acc = [d * x for x in row]
        for j in range(k + 1, len(out)):
            f = row[pivots[j]]
            if f:
                acc = [x - f * y for x, y in zip(acc, out[j])]
        lead = row[pivots[k]]
        out[k] = [x // lead for x in acc]
    return out


def rank_fraction(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix, exact."""
    return len(echelon(rows)[1])


def kernel_basis(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the right kernel over Q: one primitive integer vector per
    free column, positive at that column and zero at the other free ones,
    read off the back-substituted echelon form."""
    ech, pivots, d = echelon(rows)
    ech = _back_substitute(ech, pivots, d)
    basis = []
    for fc in (c for c in range(len(rows[0])) if c not in pivots):
        v = [0] * len(rows[0])
        v[fc] = d
        for row, pc in zip(ech, pivots):
            v[pc] = -row[fc]
        g = gcd(*v) * (1 if d > 0 else -1)
        basis.append([x // g for x in v])
    return basis


def solve(cols: Sequence[Sequence[int]], b: Sequence[int]) -> list[Fraction] | None:
    """The unique x with sum_j x_j cols[j] = b over Q, or None when the
    system is inconsistent or the columns are dependent; only a system
    with a unique solution is back-substituted."""
    n = len(cols)
    ech, pivots, d = echelon([[c[i] for c in cols] + [v] for i, v in enumerate(b)])
    if pivots != list(range(n)):
        return None
    return [Fraction(row[n], d) for row in _back_substitute(ech, pivots, d)]


# ------------------------------------------------------------------- mod p

def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p of an integer matrix, by the packed kernel."""
    if not rows:
        return 0
    kern = PackedFp(p, len(rows[0]))
    return kern.rank([kern.pack(row) for row in rows])


def gauss_binom(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n (Gaussian binomial)."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise ConsistencyError("Gaussian binomial is not an integer")
    return num // den


@cache
def kernel_meet_counts(n: int, rho: int, q: int) -> tuple[tuple, int]:
    """Subspaces W of F_q^n as (dim W, dim A(W), count) rows, A linear of
    rank rho, and their total sum_k [n k]_q: the k-dimensional W meeting
    ker A (dimension kappa = n - rho) in s dimensions number [kappa s]_q
    [rho k-s]_q q^((kappa-s)(k-s)) (Andrews 1976, ch. 13)."""
    kappa = n - rho
    table = tuple((k, k - s, gauss_binom(kappa, s, q) * gauss_binom(rho, k - s, q)
                   * q ** ((kappa - s) * (k - s)))
                  for k in range(n + 1) for s in range(max(0, k - rho), min(k, kappa) + 1))
    return table, sum(gauss_binom(n, k, q) for k in range(n + 1))


class PackedFp:
    """One reduction kernel for vectors of F_p^n packed into Python ints.

    Coordinate j of an n-vector sits in the w-bit field n-1-j, so the first
    nonzero coordinate is the highest nonzero field and its offset follows
    from `bit_length`. Packed vectors add and scale field by field as
    plain ints while every field stays below 2^b, b = bits(max(n_max, 2) p^2);
    `reduce` then brings all fields back to [0, p) at once, with the
    quotient of each field taken as (x * mul) >> shift, exact for x < 2^b.

    An echelon basis is a tuple of (offset, row) pairs with distinct
    offsets in descending order, each row scaled to leading coefficient 1.
    `residue(basis, u)` subtracts from u its component in the span: the
    result is zero at every pivot field and linear in u. `extend(basis, u)`
    returns the echelon basis of span(basis, u), `basis` itself when u
    lies in the span. `rank(vectors)` is the dimension of their span, found
    by the same field elimination against unscaled rows, with no basis
    built. The operations are closures over the constants, which keeps the
    hot loop free of attribute lookups.
    """

    __slots__ = ("p", "w", "pack", "coords", "reduce", "residue", "extend", "rank")

    def __init__(self, p: int, n_max: int):
        b = (max(n_max, 2) * p * p).bit_length()
        shift = b + p.bit_length()
        mul = (1 << shift) // p + 1
        w = b + shift + 1
        mask = (1 << w) - 1
        qmask = sum(((1 << b) - 1) << (i * w) for i in range(max(n_max, 1)))

        def pack(coords: Sequence[int]) -> int:
            u = 0
            for x in coords:
                u = (u << w) | (x % p)
            return u

        def coords(u: int, n: int) -> list[int]:
            return [(u >> (w * i)) & mask for i in range(n - 1, -1, -1)]

        def reduce(x: int) -> int:
            return x - (((x * mul) >> shift) & qmask) * p

        def residue(basis: tuple, u: int) -> int:
            for off, row in basis:
                f = (u >> off) & mask
                if f:
                    u += (p - f) * row
                    u -= (((u * mul) >> shift) & qmask) * p
            return u

        def extend(basis: tuple, u: int) -> tuple:
            if basis:
                u = residue(basis, u)
            if not u:
                return basis
            off = (u.bit_length() - 1) // w * w
            new = (off, reduce(u * pow(u >> off, -1, p)))
            return tuple(sorted(basis + (new,), reverse=True)) if basis else (new,)

        def rank(vectors: Sequence[int]) -> int:
            # leading-field elimination against unscaled rows keyed by offset
            leads: dict[int, int] = {}
            for u in vectors:
                while u:
                    off = (u.bit_length() - 1) // w * w
                    row = leads.get(off)
                    if row is None:
                        leads[off] = u
                        break
                    u = (row >> off) * u + (p - (u >> off)) * row
                    u -= (((u * mul) >> shift) & qmask) * p
            return len(leads)

        self.p, self.w = p, w
        self.pack, self.coords, self.reduce = pack, coords, reduce
        self.residue, self.extend, self.rank = residue, extend, rank


@cache
def lattice_size(ks: tuple, p: int) -> int:
    """Number of tuples of subspaces of F_p^k, one k per entry of ks."""
    return prod(sum(gauss_binom(k, j, p) for j in range(k + 1)) for k in ks)


@cache
def _mobius_row(d: int, p: int) -> tuple:
    """sum over the s-dimensional subspaces L of a d-dimensional L' of the
    Moebius function mu(L, L') of the subspace lattice, for s = 0..d:
    (-1)^m p^(m(m-1)/2) [d s]_p with m = d - s."""
    return tuple((-1) ** (d - s) * p ** ((d - s) * (d - s - 1) // 2) * gauss_binom(d, s, p)
                 for s in range(d + 1))


def image_rank_counts(kern: PackedFp, targets: Sequence, ntails: int) -> dict[tuple, int] | None:
    """Number of tails x in F_p^T (T = ntails) by the rank of their images
    at each target, in closed form; None when the p^T tails are fewer than
    the subspace tuples the closed form visits.

    targets[t] = (n, columns) holds, per arrow a into target t, packed
    n-vectors (c_a, [d_a1, ..., d_aT]); the images are v_a(x) = c_a +
    sum_j x_j d_aj, and their rank is k_t - dim K_t(x), where K_t(x) is the
    space of lambda in F_p^(k_t) with sum_a lambda_a v_a(x) = 0. For a
    tuple L of subspaces L_t of F_p^(k_t), f(L) = #{x : every L_t lies in
    K_t(x)} counts the solutions of one affine system in x, whose rows are
    the coordinates of sum_a lambda_a v_a(x) for lambda in an echelon basis
    of each L_t: f(L) is 0 when the system is inconsistent and p^(T - r)
    otherwise, r its rank. Moebius inversion on the product of subspace
    lattices (Rota 1964) counts the x with dim K_t(x) = s_t as the sum over
    L of f(L) times prod_t mu-sums from `_mobius_row`.

    Each L_t is reached in a tree whose children add one echelon row with
    a smaller pivot, so a child contains its parent and extends its
    system; an inconsistent system prunes everything below it. Rows have
    T + 1 fields with the constant last, and sums of k_t rows are reduced
    once, so `kern` must fit T + 1 fields and k_t <= its n_max. Tails that
    are free coordinates of one of its vectors give the first, and a
    lattice smaller than p^T implies k_t <= T, which gives the second.
    """
    p = kern.p
    ks = tuple(len(cols) for _, cols in targets)
    if lattice_size(ks, p) >= p ** ntails:
        return None
    pack, coords, red, extend = kern.pack, kern.coords, kern.reduce, kern.extend
    systems = []  # per target, per nonzero fibre coordinate i: per arrow (d_a1[i], .., c_a[i])
    for n, cols in targets:
        per_arrow = [zip(*[coords(u, n) for u in ds + [c]]) for c, ds in cols]
        systems.append([[pack(r) for r in rows] for rows in zip(*per_arrow)
                        if any(map(any, rows))])
    sums: dict[tuple, int] = {}

    def grow(t: int, dims: tuple, pivots: tuple, basis: tuple) -> None:
        """Every L_t whose echelon rows extend those with `pivots` by rows
        with smaller pivots, on top of the consistent system `basis`."""
        if t == len(systems):
            sums[dims] = sums.get(dims, 0) + p ** (ntails - len(basis))
            return
        grow(t + 1, dims + (len(pivots),), (), basis)
        rows, k = systems[t], ks[t]
        for c in range(pivots[0] if pivots else k):
            free = [j for j in range(c + 1, k) if j not in pivots]
            for lam in product(range(p), repeat=len(free)):
                nb = basis
                for row in rows:
                    nb = extend(nb, red(row[c] + sum(x * row[j] for x, j in zip(lam, free))))
                if not nb or nb[-1][0]:  # no pivot in the constant field
                    grow(t, dims, (c,) + pivots, nb)

    grow(0, (), (), ())
    out: dict[tuple, int] = {}
    for dims, f in sums.items():
        for s in product(*[range(d + 1) for d in dims]):
            c = f
            for d, si in zip(dims, s):
                c *= _mobius_row(d, p)[si]
            key = tuple(k - si for k, si in zip(ks, s))
            out[key] = out.get(key, 0) + c
    if min(out.values()) < 0:
        raise ConsistencyError("negative count of tails by image rank")
    return {r: c for r, c in out.items() if c}


def pencil_layer_counts(kern: PackedFp, n: int, a: list, b: list) -> tuple[list, int]:
    """Subspaces W of F_p^N of dimension 0, 1, N - 1 and N (N = len(a) >= 2)
    as (dim W, dim(A(W) + B(W)), count) rows, A and B the maps whose columns
    are the packed n-vectors a and b, and their total number: 2 + P(N) at
    N = 2, 2 + 2 P(N) above, P(s) = (p^s - 1)/(p - 1) the lines of F_p^s.
    `kern` must hold 2n fields.

    Both layers read rho(x:y) = rank(xA + yB) at the p + 1 points of P^1
    (Gantmacher 1959, ch. XII), through a histogram of those ranks; xA + B
    steps by one addition per x. A line span(u) has rank <= 1 exactly when
    u lies in some ker(xA + yB), any two of which meet in ker A meet ker B
    (rank 0; dimension z1 = N - rank[A; B]). A hyperplane ker f has rank
    R - 2 + g, R = rank[A B] and g the rank of f on the two projections of
    K = ker[A B]. g <= 1 exactly when f vanishes on {x k1 + y k2 : k in K}
    for some (x:y); those f form a space of dimension R - rho(y:-x), and
    any two of those spaces meet in S1 meet S2 (g = 0), where
    S1 = {f : (f, 0) in rowspace[A B]} and S2 = {f : (0, f) in rowspace}.
    Its dimension is z = 2R - rank[[A B 0], [0 A B]]: the (l, m) with
    lA = 0, lB + mA = 0 and mB = 0 map onto it by f = lB, with kernel the
    pairs from the left kernel of [A B], of dimension 2(n - R). Both
    stacked ranks are taken on columns of 2n fields: [A; B] by its columns
    with the halves swapped, b_j over a_j, and [[A B 0], [0 A B]] by
    those, a_j over 0 and 0 over b_j. At N = 2 the hyperplanes are the
    lines."""
    p, rank, red, size = kern.p, kern.rank, kern.reduce, len(a)
    rhos, step = [rank(a), rank(b)], b
    for _ in range(p - 1):
        step = [red(u + v) for u, v in zip(a, step)]
        rhos.append(rank(step))
    rk = rank(a + b)
    shift = n * kern.w
    cols = [(v << shift) | u for u, v in zip(a, b)]
    lines = [(p ** s - 1) // (p - 1) for s in range(max(size, rk) + 1)]
    table, layers = [(0, 0, 1), (size, rk, 1)], [(1, 0, size - rank(cols), size)]
    if size > 2:
        z = 2 * rk - rank([u << shift for u in a] + cols + b)
        layers.append((size - 1, rk - 2, z, rk))
    # per layer: rank r0 + g with g = 0, 1, 2
    hist = [(r, rhos.count(r)) for r in set(rhos)]
    for k, r0, zero, top in layers:
        counts = [lines[zero], sum(c * lines[top - r] for r, c in hist) - (p + 1) * lines[zero]]
        counts.append(lines[size] - sum(counts))
        table += [(k, r0 + g, c) for g, c in enumerate(counts) if c]
    return table, 2 + (2 if size > 2 else 1) * lines[size]
