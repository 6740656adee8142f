"""Schur-root testing, generic Ext vanishing and canonical decomposition.

The oracles are sampling-based and can only err toward a missed witness:
a positive answer always carries a concrete witness representation, and
negative answers on tiny dimension vectors are confirmed by exhaustive
enumeration over F_2. Every decomposition returned here is re-verified
against the full pairwise certificate (each summand Schur, all ordered
pairs of distinct summand instances with vanishing Ext).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

from . import rng
from .errors import BudgetError, InputError
from .quiver import DimVector, Quiver, positive_part
from .repfq import (Representation, ext_dim, hom_dim, sample_representation)

ORACLE_SAMPLES = 12
ORACLE_PRIMES = (5, 7)
EXHAUSTIVE_CAP = 1_000_000


def _as_dim(q: Quiver, d) -> DimVector:
    d = tuple(int(x) for x in d)
    if len(d) != q.vertices:
        raise InputError("dimension vector length mismatch")
    return d


def _iter_all_reps(q: Quiver, d: DimVector, p: int):
    """Every representation of dimension d over F_p (exhaustive)."""
    shapes = [(d[t - 1], d[s - 1]) for s, t in q.arrows]
    cells = sum(r * c for r, c in shapes)
    for flat in product(range(p), repeat=cells):
        mats = []
        i = 0
        for r, c in shapes:
            mats.append(tuple(tuple(flat[i + row * c:i + (row + 1) * c])
                              for row in range(r)))
            i += r * c
        yield Representation(q, p, d, tuple(mats))


def _exhaustive_space(q: Quiver, d: DimVector, p: int = 2) -> int:
    cells = sum(d[s - 1] * d[t - 1] for s, t in q.arrows)
    return p ** cells


def is_schur_root(q: Quiver, d, seed: int = 0) -> bool:
    """True iff some representation of dimension d has a trivial
    endomorphism algebra. Sampling first; definitive small-case negative
    by exhaustion over F_2."""
    d = _as_dim(q, d)
    if not any(d):
        raise InputError("zero vector is not a root")
    if any(x < 0 for x in d):
        return False
    if q.q_norm(d) > 1:
        return False  # not a root at all
    return _is_schur(q, d, seed)


@cache
def _is_schur(q: Quiver, d: DimVector, seed: int) -> bool:
    aff = q.affine_data() if q.type_class() == "affine" else None
    if aff is not None and all(x % y == 0 for x, y in zip(d, aff.delta)):
        ks = {x // y for x, y in zip(d, aff.delta)}
        if len(ks) == 1 and ks.pop() >= 2:
            # proper multiples of delta: every representation, regular or
            # decomposable, has endomorphism dimension at least the factor
            return False
    for p in ORACLE_PRIMES:
        for k in range(ORACLE_SAMPLES):
            m = sample_representation(q, d, p, rng.derive(seed, "schur", d, p, k))
            if hom_dim(m, m) == 1:
                return True
    if _exhaustive_space(q, d) <= EXHAUSTIVE_CAP:
        for m in _iter_all_reps(q, d, 2):
            if hom_dim(m, m) == 1:
                return True
        return False
    return False


def generic_ext_vanishes(q: Quiver, d, e, seed: int = 0) -> bool:
    """True iff Ext^1(M, N) = 0 for some (hence generic) pair of
    representations of dimensions d and e."""
    d = _as_dim(q, d)
    e = _as_dim(q, e)
    if any(x < 0 for x in d) or any(x < 0 for x in e):
        raise InputError("module ext vanishing needs nonnegative vectors")
    if not any(d) or not any(e):
        return True
    if q.euler_form(d, e) < 0:
        return False  # ext = hom - <d,e> >= -<d,e> > 0 for every pair
    return _ext_vanishes(q, d, e, seed)


@cache
def _ext_vanishes(q: Quiver, d: DimVector, e: DimVector, seed: int) -> bool:
    for p in ORACLE_PRIMES:
        for k in range(ORACLE_SAMPLES):
            m = sample_representation(q, d, p, rng.derive(seed, "extL", d, e, p, k))
            n = sample_representation(q, e, p, rng.derive(seed, "extR", d, e, p, k))
            if ext_dim(m, n) == 0:
                return True
    if _exhaustive_space(q, d) * _exhaustive_space(q, e) <= EXHAUSTIVE_CAP:
        for m in _iter_all_reps(q, d, 2):
            for n in _iter_all_reps(q, e, 2):
                if ext_dim(m, n) == 0:
                    return True
        return False
    return False


def generic_ext_vanishes_cluster(q: Quiver, d, e, seed: int = 0) -> bool:
    """Ext vanishing for decorated objects: shifted projectives at vertex i
    obstruct exactly the vectors with support at i on the other side, and
    the module parts must be ext-orthogonal both ways."""
    d = _as_dim(q, d)
    e = _as_dim(q, e)
    for di, ei in zip(d, e):
        if (di < 0 and ei > 0) or (di > 0 and ei < 0):
            return False
    dp, ep = positive_part(d), positive_part(e)
    return (generic_ext_vanishes(q, dp, ep, seed)
            and generic_ext_vanishes(q, ep, dp, seed))


def exceptional_regular_dims(q: Quiver) -> list[DimVector]:
    """Dimension vectors of the rigid regular simples (quasi-simples of
    the exceptional tubes) of an affine quiver: real Schur roots strictly
    below delta with defect zero."""
    aff = q.affine_data()
    if aff is None:
        return []
    out = []
    for e in product(*[range(x + 1) for x in aff.delta]):
        if not any(e) or e == aff.delta:
            continue
        if q.defect(aff, e) == 0 and q.q_norm(e) == 1 and is_schur_root(q, e):
            out.append(e)
    return sorted(out)


@dataclass(frozen=True)
class CanonicalDecomposition:
    vector: DimVector
    summands: tuple  # ((DimVector, multiplicity, tag), ...) sorted
    witnesses: tuple  # per expanded instance: (p, dim, matrices)

    def expanded(self) -> list[DimVector]:
        out = []
        for e, mult, _tag in self.summands:
            out.extend([e] * mult)
        return out

    def to_json(self) -> dict:
        return {"vector": list(self.vector),
                "summands": [{"vector": list(e), "multiplicity": m, "kind": tag}
                             for e, m, tag in self.summands],
                "witnesses": [{"p": p, "dim": list(dim),
                               "matrices": [[list(r) for r in mat] for mat in mats]}
                              for p, dim, mats in self.witnesses]}


def _tag(q: Quiver, e: DimVector) -> str:
    return "real_schur" if q.q_norm(e) == 1 else "imaginary_schur"


def canonical_decomposition(q: Quiver, d, method: str = "auto",
                            seed: int = 0) -> CanonicalDecomposition:
    """The unique generic direct-sum splitting of d into Schur roots with
    pairwise generic Ext vanishing.

    method 'search' splits recursively; 'structural' uses the affine
    shapes (multiples of delta; real non-Schur roots split as
    delta^k + minimal-height real root) before searching; 'auto' picks
    'structural' on affine quivers. The result always re-verifies the
    full pairwise witness certificate.
    """
    d = _as_dim(q, d)
    if any(x < 0 for x in d):
        raise InputError("canonical decomposition needs a nonnegative vector")
    if method not in ("auto", "search", "structural"):
        raise InputError("unknown method %r" % (method,))
    summands = _summands(q, d, method, seed)
    witnesses = _find_witnesses(q, [e for e, m, _t in summands for _ in range(m)], seed)
    out = CanonicalDecomposition(vector=d, summands=summands, witnesses=witnesses)
    verify_certificate(q, out)
    return out


@cache
def _summands(q: Quiver, d: DimVector, method: str, seed: int) -> tuple:
    if method == "auto":
        use = "structural" if q.type_class() == "affine" else "search"
    else:
        use = method
    if use == "structural" and q.type_class() != "affine":
        raise InputError("structural method needs an affine quiver")
    merged: dict[DimVector, int] = {}
    for e in _decompose(q, d, use, seed):
        merged[e] = merged.get(e, 0) + 1
    return tuple(sorted((e, m, _tag(q, e)) for e, m in merged.items()))


def _decompose(q: Quiver, d: DimVector, method: str, seed: int) -> list[DimVector]:
    if not any(d):
        return []
    if method == "structural":
        aff = q.affine_data()
        delta = aff.delta
        if all(x % delta[i] == 0 for i, x in enumerate(d)):
            ks = {x // delta[i] for i, x in enumerate(d)}
            if len(ks) == 1:
                k = ks.pop()
                if k >= 1 and is_schur_root(q, delta, seed):
                    return [delta] * k
        if q.q_norm(d) == 1:
            if is_schur_root(q, d, seed):
                return [d]
            d0 = _minimal_height_real(q, delta, d)
            diff = tuple(a - b for a, b in zip(d, d0))
            ks = {diff[i] // delta[i] for i in range(len(d)) if delta[i]}
            if len(ks) == 1 and all(diff[i] == ks.copy().pop() * delta[i] for i in range(len(d))):
                k = ks.pop()
                if k >= 1 and is_schur_root(q, d0, seed):
                    return [delta] * k + [d0]
        # outside the structural shapes: try delta-stripping splits first
        for k in range(min(d[i] // delta[i] for i in range(len(d))), 0, -1):
            a = tuple(k * x for x in delta)
            b = tuple(x - y for x, y in zip(d, a))
            if not any(b):
                continue
            if generic_ext_vanishes(q, a, b, seed) and generic_ext_vanishes(q, b, a, seed):
                return _decompose(q, a, method, seed) + _decompose(q, b, method, seed)
    if is_schur_root(q, d, seed):
        return [d]
    for a, b in _splittings(d):
        if generic_ext_vanishes(q, a, b, seed) and generic_ext_vanishes(q, b, a, seed):
            return _decompose(q, a, method, seed) + _decompose(q, b, method, seed)
    raise BudgetError("canonical decomposition search exhausted for %r" % (d,))


def _splittings(d: DimVector):
    """Unordered proper splittings d = a + b, ordered by height of a then
    lexicographically; each pair listed once."""
    cands = []
    for a in product(*[range(x + 1) for x in d]):
        if not any(a):
            continue
        b = tuple(x - y for x, y in zip(d, a))
        if not any(b):
            continue
        if a <= b:
            cands.append((sum(a), a, b))
    for _h, a, b in sorted(cands):
        yield a, b


def _minimal_height_real(q: Quiver, delta: DimVector, d: DimVector) -> DimVector:
    """The positive root of minimal height in d + Z*delta."""
    best = None
    m = 0
    while True:
        cand = tuple(x - m * y for x, y in zip(d, delta))
        if any(x < 0 for x in cand):
            break
        if any(cand) and q.q_norm(cand) == 1:
            best = cand
        m += 1
    if best is None:
        raise BudgetError("no real root in the delta-line of %r" % (d,))
    return best


def _find_witnesses(q: Quiver, instances: list[DimVector], seed: int) -> tuple:
    """Sample one representation per summand instance so that every
    instance is Schur and all ordered pairs have Ext = 0."""
    if not instances:
        return ()
    for p in (5, 7, 11, 13):
        for attempt in range(24):
            reps = [sample_representation(q, e, p, rng.derive(seed, "wit", tuple(e), p, attempt, i))
                    for i, e in enumerate(instances)]
            if all(hom_dim(m, m) == 1 for m in reps) and all(
                    ext_dim(reps[i], reps[j]) == 0
                    for i in range(len(reps)) for j in range(len(reps)) if i != j):
                return tuple((p, m.dim, m.matrices) for m in reps)
    raise BudgetError("no witness tuple found within the sampling budget")


def verify_certificate(q: Quiver, dec: CanonicalDecomposition) -> bool:
    """Exactly re-check the stored witnesses; ConsistencyError on failure."""
    from .errors import ConsistencyError
    total = [0] * q.vertices
    for e, mult, _tag_ in dec.summands:
        for i, x in enumerate(e):
            total[i] += mult * x
    if tuple(total) != dec.vector:
        raise ConsistencyError("summands do not sum to the input vector")
    expanded = dec.expanded()
    if len(dec.witnesses) != len(expanded):
        raise ConsistencyError("witness count mismatch")
    reps = []
    for (p, dim, mats), e in zip(dec.witnesses, expanded):
        if tuple(dim) != e:
            raise ConsistencyError("witness dimension mismatch")
        reps.append(Representation(q, p, tuple(dim), mats))
    for m in reps:
        if hom_dim(m, m) != 1:
            raise ConsistencyError("witness is not a Schur representation")
    for i in range(len(reps)):
        for j in range(len(reps)):
            if i != j and ext_dim(reps[i], reps[j]) != 0:
                raise ConsistencyError("witness pair has nonvanishing Ext")
    return True
