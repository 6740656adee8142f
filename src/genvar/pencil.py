"""Lines and hyperplanes of F_p^N counted by the rank of two maps on them,
from the ranks of their pencil; the counting engine's route at a last
vertex with two arrows into one target. All F_p arithmetic goes through
the count's own `linalg.PackedFp`, which holds two fibres side by side."""

from __future__ import annotations

from .linalg import PackedFp


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
