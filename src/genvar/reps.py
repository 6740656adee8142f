"""Quiver representations over F_p or over Q: construction, sampling,
reduction mod p, and Hom and Ext dimensions.

A `Representation` holds one matrix per arrow over F_p (p prime) or over
the integers (p = 0, read over Q), with entries checked to be integers
and reduced mod p. Every random draw in the package flows from one
root seed through `derive`, a SHA-256 split of the seed by a tag path,
so runs are reproducible and independent subtasks get independent
streams; the samplers take a seed or a generator made from one
(`make_rng`). Hom(m, n) is the solution space of the intertwining
equations phi_t * M_a = N_a * phi_s; `hom_dim` takes their rank with the
packed F_p kernel (`linalg.rank_mod_p`) or the fraction-free elimination
over Q (`linalg.echelon`), and `_hom_minor` also returns the last Bareiss
pivot, the minor that certifies which primes keep a rational Hom
dimension. Ext^1 follows from Hom by the Euler form (`ext_from_hom`),
since path algebras of quivers are hereditary.

A thin module (every d_v <= 1) is read by its support pattern
(`thin_scalars`): per arrow the scalar it carries, 0 unless both ends
have dimension 1. Hom between two thin modules needs no elimination:
each equation a * phi_t = b * phi_s has at most two unknowns, so
`hom_dim` reads it from the graph on the common support, one dimension
per component that no equation kills and whose ratios agree around
every cycle.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .errors import ConsistencyError, InputError, is_prime
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
        d = _nonnegative_dim(q, self.dim)
        if type(p) is not int or p and not is_prime(p):
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

    @classmethod
    def _trusted(cls, q: Quiver, p: int, dim: DimVector, matrices: tuple) -> "Representation":
        """Wrap parts already in the form `__post_init__` leaves, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "quiver", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrices", matrices)
        return self

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


def _nonnegative_dim(q: Quiver, d) -> DimVector:
    d = q.check_dim(d)
    if any(x < 0 for x in d):
        raise InputError("bad dimension vector %r" % (d,))
    return d


# ------------------------------------------------------------ constructors

def zero_rep(q: Quiver, p: int = 0) -> Representation:
    return Representation(q, p, (0,) * q.vertices, tuple(() for _ in q.arrows))


def direct_sum(first: Representation, *rest: Representation) -> Representation:
    """Block-diagonal direct sum of representations over one quiver and field."""
    q, p, summands = first.quiver, first.p, (first,) + rest
    if any(m.quiver != q or m.p != p for m in rest):
        raise InputError("direct sum needs matching quiver and field")
    d = tuple(map(sum, zip(*[m.dim for m in summands])))
    mats = []
    for a, (s, _t) in enumerate(q.arrows):
        rows, before = [], 0  # before: columns of the summands already placed
        for m in summands:
            after = (0,) * (d[s - 1] - before - m.dim[s - 1])
            rows.extend((0,) * before + r + after for r in m.matrices[a])
            before += m.dim[s - 1]
        mats.append(tuple(rows))
    return Representation._trusted(q, p, d, tuple(mats))


def dual_rep(m: Representation) -> Representation:
    """Linear dual over the opposite quiver; subreps become quotients."""
    mats = tuple(tuple(tuple(mat[r][c] for r in range(m.dim[t - 1])) for c in range(m.dim[s - 1]))
                 for mat, (s, t) in zip(m.matrices, m.quiver.arrows))
    return Representation._trusted(m.quiver.opposite(), m.p, m.dim, mats)


def rep_mod(m: Representation, p: int) -> Representation:
    if m.p != 0 or not is_prime(p):
        raise InputError("can only reduce an integer representation modulo a prime")
    mats = tuple([tuple([tuple([x % p for x in r]) for r in mat]) for mat in m.matrices])
    return Representation._trusted(m.quiver, p, m.dim, mats)


def derive(seed: int, *tags) -> int:
    """Derive a child seed from a root int seed (InputError otherwise) and a tag path."""
    if type(seed) is not int:
        raise InputError("seed %r must be an integer" % (seed,))
    material = repr((seed,) + tags).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def make_rng(seed: int, *tags) -> random.Random:
    """Return a `random.Random` seeded from the derived child seed."""
    return random.Random(derive(seed, *tags))


def sample_representation(q: Quiver, d, p: int, rng_seed: int) -> Representation:
    """Uniformly random arrow matrices over F_p, deterministic in rng_seed."""
    d = _nonnegative_dim(q, d)
    if not is_prime(p):
        raise InputError("sampling needs a prime field, not p = %r" % (p,))
    rng = random.Random(rng_seed)
    mats = tuple(tuple(tuple(rng.randrange(p) for _ in range(d[s - 1])) for _ in range(d[t - 1]))
                 for s, t in q.arrows)
    return Representation._trusted(q, p, d, mats)


def sample_integer_rep(q: Quiver, d, rng: random.Random,
                       lo: int = -3, hi: int = 3) -> Representation:
    """Random integer representation with entries in [lo, hi], over Q."""
    d = _nonnegative_dim(q, d)
    if type(lo) is not int or type(hi) is not int or lo > hi:
        raise InputError("entry bounds %r, %r must be integers with lo <= hi" % (lo, hi))
    mats = tuple(tuple(tuple(rng.randint(lo, hi) for _ in range(d[s - 1])) for _ in range(d[t - 1]))
                 for s, t in q.arrows)
    return Representation._trusted(q, 0, d, mats)


# ------------------------------------------------------------- hom and ext

def _check_pair(m: Representation, n: Representation) -> None:
    if m.quiver != n.quiver:
        raise InputError("hom_dim needs a common quiver")
    if m.p != n.p:
        raise InputError("hom_dim needs a common field")


def _hom_equations(m: Representation, n: Representation) -> tuple[int, list[list[int]]]:
    """The intertwining equations phi_t * M_a = N_a * phi_s of Hom(m, n):
    (number of unknowns, integer rows). They are linear in the matrix
    entries, so reducing them mod p gives the equations of the reductions."""
    _check_pair(m, n)
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
    """Dimension of the space of intertwiners m -> n. Between two thin
    modules it is read from their support graph (`_thin_hom_dim`);
    otherwise it is the number of unknowns minus the rank of the
    intertwining equations, taken by the packed kernel over F_p
    (`rank_mod_p`) and by `_hom_minor` over Q."""
    _check_pair(m, n)
    if max(m.dim + n.dim) <= 1:
        return _thin_hom_dim(m, n)
    if not m.p:
        return _hom_minor(m, n)[0]
    total, rows = _hom_equations(m, n)
    return total - rank_mod_p(rows, m.p) if rows else total


def thin_scalars(m: Representation) -> tuple:
    """The support pattern of a thin module (every d_v <= 1): per arrow
    the scalar of its 1 x 1 matrix, or 0 when an end has dimension 0."""
    return tuple([mat[0][0] if mat and mat[0] else 0 for mat in m.matrices])


def _thin_hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(m, n) of two thin modules over one field, without elimination.

    The unknowns are phi_v on the common support. Arrow s -> t gives the
    one equation a * phi_t = b * phi_s when m_s = n_t = 1, with a, b the
    scalars of m and n on it: a term with a zero scalar drops out, one
    nonzero term kills its unknown, and two link phi_t = (b / a) * phi_s.
    Only the scalars are read: two nonzero ones put both ends on the common
    support, and one nonzero scalar whose equation is absent (n_t = 0 or
    m_s = 0) kills a vertex off it, which holds no unknown.
    Every unknown of a linked component is a fixed multiple of the first
    one reached, so the component spans one dimension unless an unknown in
    it is killed or two paths give it different multiples. Multiples are
    kept as (numerator, denominator) pairs, reduced mod p over F_p, and
    compared by cross-multiplication."""
    p, md, nd = m.p, m.dim, n.dim
    links: dict[int, list] = {v: [] for v in range(len(md)) if md[v] and nd[v]}
    dead = set()
    for (s, t), a, b in zip(m.quiver.arrows, thin_scalars(m), thin_scalars(n)):
        s, t = s - 1, t - 1
        if a and b:
            links[s].append((t, b, a))  # phi_t = b / a * phi_s
            links[t].append((s, a, b))
        elif a or b:
            dead.add(t if a else s)
    ratio: dict[int, tuple] = {}
    alive = 0
    for root in links:
        if root in ratio:
            continue
        ratio[root] = (1, 1)
        component, agree = [root], True
        for u in component:  # grows while it is walked
            num, den = ratio[u]
            for v, x, y in links[u]:
                new = (num * x % p, den * y % p) if p else (num * x, den * y)
                if v not in ratio:
                    ratio[v] = new
                    component.append(v)
                else:
                    cross = ratio[v][0] * new[1] - new[0] * ratio[v][1]
                    agree = agree and not (cross % p if p else cross)
        alive += agree and dead.isdisjoint(component)
    return alive


def _hom_minor(m: Representation, n: Representation) -> tuple[int, int]:
    """(dim Hom(m, n) over Q, d), d the last pivot of the fraction-free
    row echelon form (`linalg.echelon`) of the intertwining equations, or
    1 when they have rank 0; no back-substitution is needed for either.

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
    ext = hom - sum(c * x for c, x in zip(q.euler_coefficients(d)[0], e))
    if ext < 0:
        raise ConsistencyError("negative ext dimension computed")
    return ext


def ext_dim(m: Representation, n: Representation) -> int:
    """dim Ext^1(m, n), from `hom_dim` by `ext_from_hom`."""
    return ext_from_hom(m.quiver, m.dim, n.dim, hom_dim(m, n))
