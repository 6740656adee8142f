"""Schur-root testing, generic Ext vanishing and canonical decomposition.

Both oracles are exact and build no representation. They follow
Schofield's recursion (General representations of quivers, 1992,
Thm 3.3, 5.4 and 6.1): generic Ext and generic subdimension vectors are
decided from the Euler form alone, memoised on the quiver and the two
vectors. On an affine quiver `is_schur_root` reads the answer from the
defect and runs the recursion only on real roots of defect 0 below
delta; the 'search' method keeps the recursion everywhere, so the two
methods share the Schur test only below delta. Every decomposition
returned here carries sampled witness representations as its
certificate, checked exactly when they are drawn (each summand Schur,
all ordered pairs of distinct summand instances with vanishing Ext);
`verify_certificate` re-checks a stored one. Draws are a
function of (quiver, instances, seed), so `_find_witnesses` is memoised:
each witness tuple is drawn once per process (a failure is not cached).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product
from operator import le, mul, sub

from .errors import BudgetError, ConsistencyError, InputError
from .quiver import DimVector, Quiver, positive_part
from .reps import Representation, derive, ext_dim, hom_dim, sample_representation


def _proper_subvectors(e: DimVector):
    """Every s with 0 <= s <= e componentwise, s != 0 and s != e."""
    for s in product(*[range(x + 1) for x in e]):
        if any(s) and s != e:
            yield s


def _minus(a: DimVector, b: DimVector) -> DimVector:
    return tuple(x - y for x, y in zip(a, b))


@cache
def _ext_zero(q: Quiver, d: DimVector, e: DimVector) -> bool:
    """Generic Ext(d, e) = 0: <d, e> >= 0 and <d, e - s> >= 0 for every
    proper generic subdimension vector s of e, where s embeds generically
    in e iff generic Ext(s, e - s) = 0. Each recursive call has a smaller
    total |d| + |e|, and the cheap Euler-form test comes first."""
    c = q.euler_coefficients(d)[0]  # <d, f> = sum(c_i f_i)
    de = sum(map(mul, c, e))  # <d, e - s> < 0 iff <d, s> > <d, e>
    return de >= 0 and not any(sum(map(mul, c, s)) > de and _ext_zero(q, s, _minus(e, s))
                               for s in _proper_subvectors(e))


@cache
def _is_schur(q: Quiver, d: DimVector) -> bool:
    """d is Schur iff <s, d> - <d, s> > 0 for every proper generic
    subdimension vector s of d."""
    left, right = q.euler_coefficients(d)
    w = list(map(sub, right, left))  # <s, d> - <d, s> = sum(w_i s_i)
    return not any(sum(map(mul, w, s)) <= 0 and _ext_zero(q, s, _minus(d, s))
                   for s in _proper_subvectors(d))


def is_schur_root(q: Quiver, d) -> bool:
    """True iff a general representation of dimension d has a trivial
    endomorphism algebra. Exact and decided from the Euler form alone: on
    an affine quiver from the defect (`_schur_by_defect`), elsewhere by
    Schofield's recursion."""
    d = q.check_dim(d)
    if not any(d):
        raise InputError("zero vector is not a root")
    if any(x < 0 for x in d):
        return False
    return _schur_by_defect(q, d) if q.type_class() == "affine" else _schur_root(q, d)


def _schur_root(q: Quiver, d: DimVector) -> bool:
    """Schofield's answer for a nonzero d >= 0: d is a root (q(d) <= 1)
    and passes `_is_schur`."""
    return q.q_norm(d) <= 1 and _is_schur(q, d)


def _schur_by_defect(q: Quiver, d: DimVector) -> bool:
    """`_schur_root` on an affine quiver, read from the defect
    (Dlab-Ringel 1976, Mem. AMS 173; Ringel 1984, LNM 1099): delta is the
    only Schur imaginary root; a real root of nonzero defect is the
    dimension of a preprojective or preinjective indecomposable, which is
    exceptional; a real root of defect 0 is Schur only if it lies below
    delta, where `_is_schur` decides."""
    aff = q.affine_data()
    if q.q_norm(d) != 1:
        return d == aff.delta  # q(d) = 0 on the multiples of delta, q(d) > 1 off the roots
    return q.defect(aff, d) != 0 or (all(map(le, d, aff.delta)) and _is_schur(q, d))


def generic_ext_vanishes(q: Quiver, d, e) -> bool:
    """True iff Ext^1(M, N) = 0 for general representations M, N of
    dimensions d and e. Exact: decided from the Euler form alone."""
    d = q.check_dim(d)
    e = q.check_dim(e)
    if any(x < 0 for x in d) or any(x < 0 for x in e):
        raise InputError("module ext vanishing needs nonnegative vectors")
    return _ext_zero(q, d, e)


def generic_ext_vanishes_cluster(q: Quiver, d, e, seed: int = 0) -> bool:
    """Ext vanishing for decorated objects: shifted projectives at vertex i
    obstruct exactly the vectors with support at i on the other side, and
    the module parts must be ext-orthogonal both ways. Exact; `seed` changes
    nothing and stays because the benchmark's workloads pass it."""
    d = q.check_dim(d)
    e = q.check_dim(e)
    for di, ei in zip(d, e):
        if (di < 0 and ei > 0) or (di > 0 and ei < 0):
            return False
    dp, ep = positive_part(d), positive_part(e)
    return _ext_zero(q, dp, ep) and _ext_zero(q, ep, dp)


def exceptional_regular_dims(q: Quiver) -> list[DimVector]:
    """Dimension vectors of the rigid regular simples (quasi-simples of
    the exceptional tubes) of an affine quiver: real Schur roots strictly
    below delta with defect zero. Computed once per quiver; each call
    gets its own list."""
    return list(_exceptional_regular_dims(q))


@cache
def _exceptional_regular_dims(q: Quiver) -> tuple[DimVector, ...]:
    aff = q.affine_data()
    if aff is None:
        return ()
    out = []
    for e in product(*[range(x + 1) for x in aff.delta]):
        if not any(e) or e == aff.delta:
            continue
        if q.defect(aff, e) == 0 and q.q_norm(e) == 1 and _is_schur(q, e):
            out.append(e)
    return tuple(sorted(out))


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
    'structural' on affine quivers. The result always carries a full
    pairwise witness certificate that passed the exact check; seed picks
    the witnesses and does not change the summands.
    """
    d = q.check_dim(d)
    if any(x < 0 for x in d):
        raise InputError("canonical decomposition needs a nonnegative vector")
    if method not in ("auto", "search", "structural"):
        raise InputError("unknown method %r" % (method,))
    summands = _summands(q, d, method)
    witnesses = _find_witnesses(q, tuple(e for e, m, _t in summands for _ in range(m)), seed)
    out = CanonicalDecomposition(vector=d, summands=summands, witnesses=witnesses)
    _check_shape(q, out)  # the witnesses themselves passed `_witness_fault` when drawn
    return out


@cache
def _summands(q: Quiver, d: DimVector, method: str) -> tuple:
    if method == "auto":
        use = "structural" if q.type_class() == "affine" else "search"
    else:
        use = method
    if use == "structural" and q.type_class() != "affine":
        raise InputError("structural method needs an affine quiver")
    merged: dict[DimVector, int] = {}
    for e in _decompose(q, d, use):
        merged[e] = merged.get(e, 0) + 1
    return tuple(sorted((e, m, _tag(q, e)) for e, m in merged.items()))


def _decompose(q: Quiver, d: DimVector, method: str) -> list[DimVector]:
    if not any(d):
        return []
    if method == "structural":
        aff = q.affine_data()
        delta = aff.delta
        if all(x % delta[i] == 0 for i, x in enumerate(d)):
            ks = {x // delta[i] for i, x in enumerate(d)}
            if len(ks) == 1:
                k = ks.pop()
                if k >= 1 and is_schur_root(q, delta):
                    return [delta] * k
        if q.q_norm(d) == 1:
            if is_schur_root(q, d):
                return [d]
            k, d0 = _minimal_height_real(q, delta, d)
            if k >= 1 and is_schur_root(q, d0):
                return [delta] * k + [d0]
        # outside the structural shapes: try delta-stripping splits first
        for k in range(min(d[i] // delta[i] for i in range(len(d))), 0, -1):
            a = tuple(k * x for x in delta)
            b = _minus(d, a)
            if not any(b):
                continue
            if _ext_zero(q, a, b) and _ext_zero(q, b, a):
                return _decompose(q, a, method) + _decompose(q, b, method)
    # 'search' keeps the recursion on affine quivers too, so the two
    # methods share the Schur test only below delta
    if is_schur_root(q, d) if method == "structural" else _schur_root(q, d):
        return [d]
    for a, b in _splittings(d):
        if _ext_zero(q, a, b) and _ext_zero(q, b, a):
            return _decompose(q, a, method) + _decompose(q, b, method)
    raise BudgetError("canonical decomposition search exhausted for %r" % (d,))


def _splittings(d: DimVector):
    """Unordered proper splittings d = a + b, ordered by height of a then
    lexicographically; each pair listed once."""
    pairs = [(a, _minus(d, a)) for a in _proper_subvectors(d)]
    for _h, a, b in sorted((sum(a), a, b) for a, b in pairs if a <= b):
        yield a, b


def _minimal_height_real(q: Quiver, delta: DimVector, d: DimVector) -> tuple[int, DimVector]:
    """(m, d - m*delta) with the largest m >= 0 that leaves a positive real
    root: the positive root of minimal height in d + Z*delta, for a real root d."""
    best = (0, d)
    m = 1
    while True:
        cand = tuple(x - m * y for x, y in zip(d, delta))
        if any(x < 0 for x in cand):
            break
        if any(cand) and q.q_norm(cand) == 1:
            best = (m, cand)
        m += 1
    return best


def _witness_fault(reps: list[Representation]) -> str | None:
    """The certificate test the witnesses fail, or None when each is Schur
    and every ordered pair of distinct ones has Ext = 0. It also certifies
    the samples of `ccmap.generic_variable`."""
    if any(hom_dim(m, m) != 1 for m in reps):
        return "witness is not a Schur representation"
    if any(i != j and ext_dim(a, b) != 0 for i, a in enumerate(reps) for j, b in enumerate(reps)):
        return "witness pair has nonvanishing Ext"
    return None


@lru_cache(maxsize=None, typed=True)  # typed: seed True must not hit seed 1
def _find_witnesses(q: Quiver, instances: tuple, seed: int) -> tuple:
    """Sample one representation per summand instance so that every
    instance is Schur and all ordered pairs have Ext = 0."""
    if not instances:
        return ()
    for p in (5, 7, 11, 13):
        for attempt in range(24):
            reps = [sample_representation(q, e, p, derive(seed, "wit", tuple(e), p, attempt, i))
                    for i, e in enumerate(instances)]
            if _witness_fault(reps) is None:
                return tuple((p, m.dim, m.matrices) for m in reps)
    raise BudgetError("no witness tuple found within the sampling budget")


def _check_shape(q: Quiver, dec: CanonicalDecomposition) -> None:
    """ConsistencyError unless the summands of `dec` sum to its vector and
    each summand instance has one witness of its dimension; builds nothing."""
    expanded = dec.expanded()
    if tuple(map(sum, zip((0,) * q.vertices, *expanded))) != dec.vector:
        raise ConsistencyError("summands do not sum to the input vector")
    if len(dec.witnesses) != len(expanded):
        raise ConsistencyError("witness count mismatch")
    if any(tuple(dim) != e for (_p, dim, _mats), e in zip(dec.witnesses, expanded)):
        raise ConsistencyError("witness dimension mismatch")


def verify_certificate(q: Quiver, dec: CanonicalDecomposition) -> bool:
    """Exactly re-check the stored witnesses; ConsistencyError on failure."""
    _check_shape(q, dec)
    fault = _witness_fault([Representation(q, p, tuple(d), m) for p, d, m in dec.witnesses])
    if fault:
        raise ConsistencyError(fault)
    return True
