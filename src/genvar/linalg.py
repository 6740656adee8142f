"""Exact linear algebra: Fractions over Q, dense elimination over F_p,
Gaussian binomials and the packed F_p reduction kernel.

Everything here is deterministic and allocation-light; `PackedFp` sits
inside the grassmannian point-counting hot loop.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


# ---------------------------------------------------------------- rationals

def rank_fraction(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix with int/Fraction entries, exact."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    col = 0
    while rank < len(m) and col < ncols:
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def nullspace_fraction(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Basis of the right kernel over Q."""
    if not rows:
        return []
    nrows, ncols = len(rows), len(rows[0])
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def solve_fraction(a_rows: Sequence[Sequence], b_cols: Sequence[Sequence]) -> list[list[Fraction]]:
    """Solve A X = B exactly for square invertible A; B given column-wise.

    Returns X column-wise. Raises ValueError when A is singular.
    """
    n = len(a_rows)
    k = len(b_cols)
    m = [[Fraction(a_rows[r][c]) for c in range(n)] + [Fraction(b_cols[j][r]) for j in range(k)]
         for r in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [[m[r][n + j] for r in range(n)] for j in range(k)]


def classify_gram(s: Sequence[Sequence[int]]) -> str:
    """Classify a symmetric integer matrix: 'positive_definite',
    'positive_semidefinite' or 'indefinite'.

    Symmetric elimination; a zero diagonal pivot with a nonzero residual row
    is indefinite (the 2x2 principal minor is negative).
    """
    n = len(s)
    a = [[Fraction(s[i][j]) for j in range(n)] for i in range(n)]
    zero_pivots = 0
    for i in range(n):
        if a[i][i] < 0:
            return "indefinite"
        if a[i][i] == 0:
            if any(a[i][j] != 0 for j in range(i + 1, n)):
                return "indefinite"
            zero_pivots += 1
            continue
        # row elimination alone leaves the symmetric Schur complement
        for r in range(i + 1, n):
            if a[r][i] != 0:
                f = a[r][i] / a[i][i]
                for c in range(i, n):
                    a[r][c] -= f * a[i][c]
    return "positive_definite" if zero_pivots == 0 else "positive_semidefinite"


# ------------------------------------------------------------------- mod p

def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p; rows are int sequences, not necessarily reduced."""
    m = [[x % p for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    col = 0
    while rank < len(m) and col < ncols:
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        row_r = m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], row_r)]
        rank += 1
        col += 1
    return rank


def gauss_binom(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n (Gaussian binomial)."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


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

    __slots__ = ("w", "pack", "coords", "reduce", "residue", "extend", "rank")

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

        self.w = w
        self.pack, self.coords, self.reduce = pack, coords, reduce
        self.residue, self.extend, self.rank = residue, extend, rank
