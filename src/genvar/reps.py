"""Quiver representations over F_p or over Q: construction, sampling,
reduction mod p, and Hom and Ext dimensions.

A `Representation` holds one matrix per arrow over F_p (p prime) or over
the integers (p = 0, read over Q), with entries checked to be integers
and reduced mod p. Hom(m, n) is the solution space of the intertwining
equations phi_t * M_a = N_a * phi_s; `hom_dim` takes their rank with the
packed F_p kernel (`linalg.rank_mod_p`) or the fraction-free elimination
over Q (`linalg.echelon`), and `_hom_minor` also returns the last Bareiss
pivot, the minor that certifies which primes keep a rational Hom
dimension. Ext^1 follows from Hom by the Euler form (`ext_from_hom`),
since path algebras of quivers are hereditary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

from .errors import ConsistencyError, InputError
from .linalg import echelon, rank_mod_p
from .quiver import DimVector, Quiver


@dataclass(frozen=True)
class Representation:
    quiver: Quiver
    p: int  # prime field characteristic, or 0 for the rationals
    dim: DimVector
    matrices: tuple  # per arrow: rows (length dim[target]) of tuples (length dim[source])

    def __post_init__(self):
        q, p = self.quiver, self.p
        d = q.check_dim(self.dim)
        if any(x < 0 for x in d):
            raise InputError("bad dimension vector %r" % (self.dim,))
        if p != 0 and not is_prime(p):
            raise InputError("field characteristic must be 0 or a prime")
        if len(self.matrices) != len(q.arrows):
            raise InputError("expected %d arrow matrices" % len(q.arrows))
        mats = []
        for (s, t), m in zip(q.arrows, self.matrices):
            rows = tuple([tuple([(x % p if p else x) if type(x) is int else _not_int(x)
                                 for x in row]) for row in m])
            if len(rows) != d[t - 1] or any(len(r) != d[s - 1] for r in rows):
                raise InputError("matrix shape mismatch on arrow (%d,%d)" % (s, t))
            mats.append(rows)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "matrices", tuple(mats))

    def key(self) -> tuple:
        return (self.quiver.vertices, self.quiver.arrows, self.p, self.dim, self.matrices)

    def to_json(self) -> dict:
        return {"dim": list(self.dim),
                "matrices": [[list(r) for r in m] for m in self.matrices]}

    @classmethod
    def from_json(cls, q: Quiver, doc: dict, p: int = 0) -> "Representation":
        if not isinstance(doc, dict) or "dim" not in doc or "matrices" not in doc:
            raise InputError("representation document needs 'dim' and 'matrices'")
        dim, mats = doc["dim"], doc["matrices"]
        if not (isinstance(dim, list) and all(type(x) is int for x in dim)
                and isinstance(mats, list) and all(isinstance(m, list) and all(
                    isinstance(r, list) and all(type(x) is int for x in r) for r in m)
                    for m in mats)):
            raise InputError("'dim' and 'matrices' must hold integers only")
        return cls(q, p, tuple(dim), tuple(tuple(tuple(r) for r in m) for m in mats))


def _not_int(x):
    raise InputError("matrix entry %r is not an integer" % (x,))


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, isqrt(n) + 1))


# ------------------------------------------------------------ constructors

def zero_rep(q: Quiver, p: int = 0) -> Representation:
    return Representation(q, p, (0,) * q.vertices, tuple(() for _ in q.arrows))


def simple_rep(q: Quiver, i: int, p: int = 0) -> Representation:
    d = [0] * q.vertices
    d[i - 1] = 1
    mats = []
    for s, t in q.arrows:
        mats.append(tuple(tuple(0 for _ in range(d[s - 1])) for _ in range(d[t - 1])))
    return Representation(q, p, tuple(d), tuple(mats))


def projective_rep(q: Quiver, i: int, p: int = 0) -> Representation:
    """Indecomposable projective at vertex i: basis = paths starting at i,
    arrows act by path concatenation."""
    paths: list[tuple] = [()]  # path = tuple of arrow indices, start fixed at i
    frontier = [((), i)]
    ends = {(): i}
    while frontier:
        path, v = frontier.pop()
        for idx, (s, t) in enumerate(q.arrows):
            if s == v:
                new = path + (idx,)
                paths.append(new)
                ends[new] = t
                frontier.append((new, t))
    by_vertex: dict[int, list[tuple]] = {v: [] for v in range(1, q.vertices + 1)}
    for path in sorted(paths):
        by_vertex[ends[path]].append(path)
    d = tuple(len(by_vertex[v]) for v in range(1, q.vertices + 1))
    mats = []
    for idx, (s, t) in enumerate(q.arrows):
        src = by_vertex[s]
        tgt = by_vertex[t]
        rows = [[0] * len(src) for _ in range(len(tgt))]
        for c, path in enumerate(src):
            rows[tgt.index(path + (idx,))][c] = 1
        mats.append(tuple(tuple(r) for r in rows))
    return Representation(q, p, d, tuple(mats))


def direct_sum(a: Representation, b: Representation) -> Representation:
    if a.quiver != b.quiver or a.p != b.p:
        raise InputError("direct sum needs matching quiver and field")
    d = tuple(x + y for x, y in zip(a.dim, b.dim))
    mats = []
    for (s, _t), ma, mb in zip(a.quiver.arrows, a.matrices, b.matrices):
        # block diagonal: rows of ma padded right, rows of mb padded left
        mats.append(tuple(r + (0,) * b.dim[s - 1] for r in ma)
                    + tuple((0,) * a.dim[s - 1] + r for r in mb))
    return Representation(a.quiver, a.p, d, tuple(mats))


def dual_rep(m: Representation) -> Representation:
    """Linear dual over the opposite quiver; subreps become quotients."""
    qop = m.quiver.opposite()
    mats = tuple(tuple(tuple(mat[r][c] for r in range(m.dim[t - 1])) for c in range(m.dim[s - 1]))
                 for mat, (s, t) in zip(m.matrices, m.quiver.arrows))
    return Representation(qop, m.p, m.dim, mats)


def rep_mod(m: Representation, p: int) -> Representation:
    if m.p != 0:
        raise InputError("can only reduce an integer representation")
    return Representation(m.quiver, p, m.dim, m.matrices)


def sample_representation(q: Quiver, d, p: int, rng_seed: int) -> Representation:
    """Uniformly random arrow matrices over F_p, deterministic in rng_seed."""
    d = q.check_dim(d)
    rng = random.Random(rng_seed)
    mats = tuple(tuple(tuple(rng.randrange(p) for _ in range(d[s - 1])) for _ in range(d[t - 1]))
                 for s, t in q.arrows)
    return Representation(q, p, d, mats)


def sample_integer_rep(q: Quiver, d, rng: random.Random,
                       lo: int = -3, hi: int = 3) -> Representation:
    """Random integer representation with entries in [lo, hi], over Q."""
    d = q.check_dim(d)
    mats = tuple(tuple(tuple(rng.randint(lo, hi) for _ in range(d[s - 1])) for _ in range(d[t - 1]))
                 for s, t in q.arrows)
    return Representation(q, 0, d, mats)


# ------------------------------------------------------------- hom and ext

def _hom_equations(m: Representation, n: Representation) -> tuple[int, list[list[int]]]:
    """The intertwining equations phi_t * M_a = N_a * phi_s of Hom(m, n):
    (number of unknowns, integer rows). They are linear in the matrix
    entries, so reducing them mod p gives the equations of the reductions."""
    if m.quiver != n.quiver:
        raise InputError("hom_dim needs a common quiver")
    if m.p != n.p:
        raise InputError("hom_dim needs a common field")
    offs = []
    total = 0
    for v in range(m.quiver.vertices):
        offs.append(total)
        total += n.dim[v] * m.dim[v]
    rows = []
    for (s, t), ma, na in zip(m.quiver.arrows, m.matrices, n.matrices):
        ss, tt = s - 1, t - 1
        # phi_t * M_a - N_a * phi_s = 0, one equation per (r, c)
        for r in range(n.dim[tt]):
            for c in range(m.dim[ss]):
                row = [0] * total
                for k in range(m.dim[tt]):
                    row[offs[tt] + r * m.dim[tt] + k] += ma[k][c]
                for k in range(n.dim[ss]):
                    row[offs[ss] + k * m.dim[ss] + c] -= na[r][k]
                rows.append(row)
    return total, rows


def hom_dim(m: Representation, n: Representation) -> int:
    """Dimension of the space of intertwiners m -> n: the number of
    unknowns minus the rank of the intertwining equations, taken by the
    packed kernel over F_p (`rank_mod_p`) and by `_hom_minor` over Q."""
    if not m.p:
        return _hom_minor(m, n)[0]
    total, rows = _hom_equations(m, n)
    return total - rank_mod_p(rows, m.p) if rows else total


def _hom_minor(m: Representation, n: Representation) -> tuple[int, int]:
    """(dim Hom(m, n) over Q, d), d the last pivot of the fraction-free
    elimination (`linalg.echelon`) of the intertwining equations, or 1
    when they have rank 0.

    d is a nonzero r x r minor of the equations, r their rank over Q.
    Reduction mod p never raises a rank, and it keeps this minor nonzero
    when p does not divide d, so every such prime keeps the dimension."""
    total, rows = _hom_equations(m, n)
    _ech, pivots, d = echelon(rows)
    return total - len(pivots), d


def ext_from_hom(q: Quiver, d, e, hom: int) -> int:
    """dim Ext^1(M, N) = dim Hom(M, N) - <d, e> for modules of dimension
    vectors d and e; nonnegative for hereditary path algebras, so a
    negative value is a bug."""
    ext = hom - q.euler_form(d, e)
    if ext < 0:
        raise ConsistencyError("negative ext dimension computed")
    return ext


def ext_dim(m: Representation, n: Representation) -> int:
    """dim Ext^1(m, n), from `hom_dim` by `ext_from_hom`."""
    return ext_from_hom(m.quiver, m.dim, n.dim, hom_dim(m, n))
