"""Lines and hyperplanes of F_p^N counted by the rank of two maps on them,
from the ranks of their pencil; the counting engine's route at a last
vertex with two arrows into one target. All F_p arithmetic goes through
`linalg.PackedFp`."""

from __future__ import annotations

from .linalg import PackedFp, gauss_binom


def pencil_layer_counts(kern: PackedFp, n: int, a: list, b: list) -> tuple[list, int]:
    """Subspaces W of F_p^N of dimension 0, 1, N - 1 and N (N = len(a) >= 2)
    as (dim W, dim(A(W) + B(W)), count) rows, A and B the maps whose columns
    are the packed n-vectors a and b, and their total number.

    Both layers read rho(x:y) = rank(xA + yB) at the p + 1 points of P^1
    (Gantmacher 1959, ch. XII); P(s) = (p^s - 1)/(p - 1) counts lines. A line
    span(u) has rank <= 1 exactly when u lies in some ker(xA + yB), any two
    of which meet in ker A meet ker B (dimension z1, rank 0). A hyperplane
    ker f has rank R - 2 + g, R = rank[A B] and g the rank of f on the two
    projections of K = ker[A B]. g <= 1 exactly when f vanishes on
    {x k1 + y k2 : k in K} for some (x:y); those f form a space of dimension
    R - rho(y:-x), and any two of those spaces meet in the annihilator of
    pi1 K + pi2 K (dimension z, g = 0). K comes from the echelon basis of
    [a_j | e_j] in a kernel wide enough for n + 2N fields."""
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

    def lines(s: int) -> int:
        return (p ** s - 1) // (p - 1)

    table = [(0, 0, 1), (size, rk, 1)]
    # per layer: rank r0 + g with g = 0, 1, 2; at N = 2 the hyperplanes are the lines
    for k, r0, zero, top in [(1, 0, z1, size), (size - 1, rk - 2, z, rk)][:size - 1]:
        counts = [lines(zero), sum(lines(top - r) - lines(zero) for r in rhos)]
        counts.append(lines(size) - sum(counts))
        table += [(k, r0 + g, c) for g, c in enumerate(counts) if c]
    return table, sum(gauss_binom(size, k, p) for k in {0, 1, size - 1, size})
