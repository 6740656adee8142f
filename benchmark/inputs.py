"""Seeded input generation for the genvar benchmark workloads.

Inputs are plain data built with `random` alone: dimension vectors,
per-query seeds and integer matrices. Nothing here imports genvar, so the
program under test receives only what the workload seed determines.
"""

from __future__ import annotations

import hashlib
import random
from itertools import product

WORKLOADS = ("delta-direct", "module-chars", "structural")

# Quivers by arrow list: the double-arrow (Kronecker) quiver, the acyclic
# affine A2 quiver, and linearly oriented A2 and A3.
KRONECKER = (2, ((1, 2), (1, 2)))
AFFINE_A2 = (3, ((1, 2), (2, 3), (1, 3)))
A2 = (2, ((1, 2),))
A3 = (3, ((1, 2), (2, 3)))

# delta-direct: non-rigid vectors that contain delta, each at its own
# number of seeds drawn from the workload seed. A run repeats the whole
# pass several times and keeps each query's fastest latency, so a pass has
# to stay short: the costly vectors get few seeds, the cheap ones many.
# Kronecker (3,3) gets 12 seeds so that the 80th percentile falls in the
# middle of its block of latencies rather than on the edge between two
# vectors.
DELTA_VECTORS = (((KRONECKER, (2, 2)), 7), ((KRONECKER, (3, 3)), 12),
                 ((AFFINE_A2, (1, 1, 1)), 7), ((AFFINE_A2, (2, 2, 2)), 7),
                 ((AFFINE_A2, (1, 3, 1)), 7), ((AFFINE_A2, (3, 1, 3)), 3),
                 ((AFFINE_A2, (2, 1, 2)), 7))
# (3,2,3) runs once at the library's default seed 0. It is the costliest
# query of a pass, and its cost depends on the sample seed by 2x (0.8 s to
# 1.5 s over six seeds, as rejected primes lengthen the sweep), so a
# seed-drawn (3,2,3) would set the run-to-run spread of wall_s by itself.
# Affine A2 (3,3,3) is left out: one query costs 10-20 s, longer than a
# pass may take.
DELTA_ONCE = (AFFINE_A2, (3, 2, 3), 0)

# module-chars: the Schur roots that splittings of the totals below use
# (the smoke test confirms each with candecomp.is_schur_root).
KRONECKER_SCHUR = ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 3), (3, 2),
                   (3, 4), (4, 3))
AFFINE_A2_SCHUR = ((0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1),
                   (1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 1),
                   (2, 2, 1), (2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 3, 2))
# Totals (3,5), (5,3) and (3,2,3) are left out: each adds 1-2.5 s to a
# pass, which has to stay short (see delta-direct).
MODULE_TOTALS = ((KRONECKER, KRONECKER_SCHUR, ((3, 3), (3, 4), (4, 3))),
                 (AFFINE_A2, AFFINE_A2_SCHUR, ((2, 2, 2), (2, 3, 2))))
# Every splitting of a total into two or three Schur roots is evaluated
# MODULE_DRAWS times with fresh matrices: the seed draws the matrices,
# never the splitting shapes, whose cost differs by up to 30x. With one
# draw per shape the 80th percentile spread by 0.10 between seeds.
MODULE_PARTS = (2, 3)
MODULE_DRAWS = 2
ENTRY_RANGE = (-3, 3)
# Summand matrices are redrawn until End = Q. A degenerate draw can split
# off a regular part whose eigenvalues are irrational (seed 2 once drew a
# (3,2) summand with pencil t^2 - 14t + 6): its F_p point counts are not
# polynomial, and cc_of_module rightly refuses it with ConsistencyError.
SCHUR_DRAWS = 100
TUBE_LENGTHS = (1, 2, 3)
TUBES_PER_LENGTH = 5
TUBE_PARAMETERS = (-9, 9)

# structural: the grids of acceptance criteria 5, 7 and 8, with the
# products restricted to pairs whose sum stays inside the route grid. The
# affine A2 decomposition grid stops at 2 and the A3 grid at 2: the
# structural decomposition of (2,3,2) alone costs about 8 s and the A3
# value at (3,3,3) about 1.7 s, longer than a pass may take.
DECOMP_GRID = ((KRONECKER, 3), (AFFINE_A2, 2))
DYNKIN_GRID = ((A2, -2, 3), (A3, -2, 2))
ROUTE_GRID = ((KRONECKER, 3), (AFFINE_A2, 2))
PRODUCT_GRID = ((KRONECKER, 2), (AFFINE_A2, 1))
BASE_CHANGES = (("G", "SZ", 16), ("G", "CZ", 16))
FAMILIES = ("G", "SZ", "CZ")


def generate(workload: str, seed: int) -> dict:
    """All inputs of one workload run, as plain nested tuples."""
    rnd = random.Random(seed)
    if workload == "delta-direct":
        return _delta_direct(rnd)
    if workload == "module-chars":
        return _module_chars(rnd)
    if workload == "structural":
        return _structural(rnd)
    raise ValueError("unknown workload %r" % (workload,))


def digest(obj) -> str:
    """Short stable digest of plain nested data."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _draw_seed(rnd: random.Random) -> int:
    return rnd.randrange(2 ** 32)


def _delta_direct(rnd: random.Random) -> dict:
    queries = [(quiver, d, _draw_seed(rnd))
               for (quiver, d), n in DELTA_VECTORS for _ in range(n)]
    queries.append(DELTA_ONCE)
    return {"generic": tuple(queries)}


def splittings(total, roots, parts: int) -> list:
    """Multisets of `parts` roots (as sorted tuples) summing to total."""
    out = []

    def walk(rest, start, chosen):
        if len(chosen) == parts:
            if not any(rest):
                out.append(tuple(chosen))
            return
        for i in range(start, len(roots)):
            e = roots[i]
            if all(a <= b for a, b in zip(e, rest)):
                walk(tuple(b - a for a, b in zip(e, rest)), i, chosen + [e])

    walk(tuple(total), 0, [])
    return out


def random_matrices(rnd: random.Random, quiver, dim) -> tuple:
    """Integer arrow matrices (rows = target dimension) for one summand."""
    lo, hi = ENTRY_RANGE
    return tuple(tuple(tuple(rnd.randint(lo, hi) for _ in range(dim[s - 1]))
                       for _ in range(dim[t - 1]))
                 for s, t in quiver[1])


def end_dim_mod_p(quiver, dim, mats, p: int = 2 ** 31 - 1) -> int:
    """Dimension over F_p of the endomorphisms of the reduction mod p:
    the solutions phi of phi_t M_a = M_a phi_s for every arrow a: s -> t.
    Reduction can only add solutions, so a value of 1 proves End = Q.
    Plain elimination, independent of genvar's own linear algebra."""
    offs, total = [], 0
    for d in dim:
        offs.append(total)
        total += d * d
    rows = []
    for (s, t), m in zip(quiver[1], mats):
        ds, dt = dim[s - 1], dim[t - 1]
        for r in range(dt):
            for c in range(ds):
                row = [0] * total
                for k in range(dt):  # (phi_t M)[r][c]
                    row[offs[t - 1] + r * dt + k] += m[k][c]
                for k in range(ds):  # (M phi_s)[r][c]
                    row[offs[s - 1] + k * ds + c] -= m[r][k]
                rows.append([x % p for x in row])
    rank = 0
    for col in range(total):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return total - rank


def schur_matrices(rnd: random.Random, quiver, dim) -> tuple:
    """Random integer matrices of a Schur representation (End = Q)."""
    for _ in range(SCHUR_DRAWS):
        mats = random_matrices(rnd, quiver, dim)
        if end_dim_mod_p(quiver, dim, mats) == 1:
            return mats
    raise ValueError("no Schur representation of %r in %d draws" % (dim, SCHUR_DRAWS))


def _module_chars(rnd: random.Random) -> dict:
    sums = []
    for quiver, roots, totals in MODULE_TOTALS:
        for total in totals:
            for parts in MODULE_PARTS:
                for shape in splittings(total, roots, parts):
                    for _ in range(MODULE_DRAWS):
                        summands = tuple((e, schur_matrices(rnd, quiver, e))
                                         for e in shape)
                        sums.append((quiver, total, summands))
    lo, hi = TUBE_PARAMETERS
    tubes = tuple((KRONECKER, rnd.randint(lo, hi), n)
                  for n in TUBE_LENGTHS for _ in range(TUBES_PER_LENGTH))
    return {"sums": tuple(sums), "tubes": tubes}


def box(lo: int, hi: int, n: int) -> list:
    return list(product(range(lo, hi + 1), repeat=n))


def _structural(rnd: random.Random) -> dict:
    seed = _draw_seed(rnd)
    decomp = tuple((quiver, d) for quiver, hi in DECOMP_GRID
                   for d in box(0, hi, quiver[0]) if any(d))
    dynkin = tuple((quiver, tuple(box(lo, hi, quiver[0])), (hi,) * quiver[0],
                    (lo,) * quiver[0])
                   for quiver, lo, hi in DYNKIN_GRID)
    routes = tuple((quiver, d) for quiver, b in ROUTE_GRID
                   for d in box(-b, b, quiver[0]))
    inside = dict(ROUTE_GRID)
    products = tuple(
        (quiver, d, tuple(e for e in box(-b, b, quiver[0])
                          if all(abs(x + y) <= inside[quiver] for x, y in zip(d, e))))
        for quiver, b in PRODUCT_GRID for d in box(-b, b, quiver[0]))
    return {"seed": seed, "decomp": decomp, "dynkin": dynkin,
            "routes": routes, "products": products,
            "base_changes": BASE_CHANGES, "families": FAMILIES}
