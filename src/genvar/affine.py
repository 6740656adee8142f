"""Affine-type structure: the two normalized Chebyshev families, explicit
tube representations on the double-arrow quiver, tagged generic variables
and the desk-scale basis-membership report.

Both polynomial families follow the three-term recurrence
P_{n+1}(x) = x*P_n(x) - P_{n-1}(x) from P_1 = x; they differ only in P_0:

    S: S_0 = 1                   (so S_n(t + 1/t) = (t^{n+1}-t^{-n-1})/(t-1/t))
    F: F_0 = 2                   (so F_n(t + 1/t) = t^n + t^{-n})

The integer sequences connecting x^n, S_n and F_n are what the basis
comparisons on the double-arrow quiver are made of.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import ccmap, mutation
from .errors import ConsistencyError, InputError
from .laurent import LaurentPoly
from .quiver import DimVector, Quiver, negative_part, positive_part
from .repfq import DEFAULT_BUDGET, DEFAULT_PRIMES, _check_limits
from .reps import Representation, ext_dim
from . import candecomp


def chebyshev_s(n: int) -> list[int]:
    """Coefficient list (ascending) of S_n."""
    if type(n) is not int or n < 0:
        raise InputError("S_n needs n >= 0")
    return _three_term([1], n)


def chebyshev_f(n: int) -> list[int]:
    """Coefficient list (ascending) of F_n, with F_0 = 2."""
    if type(n) is not int or n < 0:
        raise InputError("F_n needs n >= 0")
    return _three_term([2], n)


def _three_term(p0: list[int], n: int) -> list[int]:
    """P_n for P_{k+1} = x*P_k - P_{k-1}, P_1 = x and the given P_0."""
    prev, cur = p0, [0, 1]
    for _ in range(n):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return prev


def s_as_f_sum(n: int) -> list[int]:
    """Coefficients c_k with S_n = sum_k c_k F_k (F_0 meaning 1 here, the
    basis normalization used by the double-arrow families): S_n = F_n +
    F_{n-2} + ... ending in F_1 or F_0 = 1."""
    if type(n) is not int or n < 0:
        raise InputError("n >= 0 required")
    out = [0] * (n + 1)
    k = n
    while k >= 0:
        out[k] += 1
        k -= 2
    return out


KRONECKER_DELTA: DimVector = (1, 1)


def tube_module_kronecker(q: Quiver, lam: int, length: int) -> Representation:
    """Integer representation of quasi-length n in the homogeneous tube at
    parameter lam on the double-arrow quiver: first arrow the identity,
    second a single Jordan block with eigenvalue lam."""
    if q.arrows != ((1, 2), (1, 2)):
        raise InputError("tube modules are built on the double-arrow quiver")
    n = length
    if type(n) is not int or n < 1:
        raise InputError("quasi-length must be a positive integer")
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    jordan = tuple(tuple(lam if i == j else (1 if j == i + 1 else 0)
                         for j in range(n)) for i in range(n))
    return Representation(q, 0, (n, n), (ident, jordan))


def quasi_simple_kronecker(q: Quiver, lam: int) -> Representation:
    return tube_module_kronecker(q, lam, 1)


@dataclass(frozen=True)
class AffineGenericValue:
    vector: DimVector
    poly: LaurentPoly
    tag: str  # "cluster_monomial" or "delta_layer"
    delta_power: int
    regular_parts: tuple

    def to_json(self) -> dict:
        return {"vector": list(self.vector), "poly": self.poly.to_json(),
                "tag": self.tag, "delta_power": self.delta_power,
                "regular_parts": [list(e) for e in self.regular_parts]}


def delta_character(q: Quiver, seed: int = 0, pool=DEFAULT_PRIMES,
                    budget: int = DEFAULT_BUDGET) -> LaurentPoly:
    """Character of the generic quasi-simple of dimension delta."""
    aff = q.affine_data()
    if aff is None:
        raise InputError("delta character needs an affine quiver")
    return ccmap.generic_variable(q, aff.delta, seed=seed, pool=pool,
                                  budget=budget).poly


def generic_variable_affine(q: Quiver, d, seed: int = 0, pool=DEFAULT_PRIMES,
                            budget: int = DEFAULT_BUDGET) -> AffineGenericValue:
    """Generic value on an affine quiver assembled structurally: the
    canonical decomposition contributes delta^k (a power of the
    quasi-simple character) times exchange-graph variables for the real
    Schur summands, times shifted-projective variables.

    The real-summand factors are read off one mutation table per quiver,
    grown on demand along a fixed schedule (breadth-first to depth 6,
    then 10 sink sweeps and 10 source sweeps) one layer or sweep at a
    time, only until it holds the summand looked up. A summand the whole
    schedule does not reach is evaluated as a rigid module instead. This
    route is independent of direct character evaluation at the composite
    vector and can be compared against it. InputError unless `budget` is
    an int >= 0 and `pool` a list or tuple of ints.
    """
    d = q.check_dim(d)
    _check_limits(budget, pool)
    aff = q.affine_data()
    if aff is None:
        raise InputError("structural generic values need an affine quiver")
    n = q.vertices
    dp, dn = positive_part(d), negative_part(d)
    poly = LaurentPoly.monomial(n, dn, 1)
    if not any(dp):
        return AffineGenericValue(vector=d, poly=poly, tag="cluster_monomial",
                                  delta_power=0, regular_parts=())
    dec = candecomp.canonical_decomposition(q, dp, method="structural",
                                            seed=seed)
    k = 0
    real_parts: list[DimVector] = []
    for e, mult, tag in dec.summands:
        if tag == "imaginary_schur":
            if e != aff.delta:
                raise ConsistencyError(
                    "affine imaginary summand %r differs from delta" % (e,))
            k = mult
        else:
            real_parts.extend([e] * mult)
    if k:
        poly = poly * delta_character(q, seed=seed, pool=pool,
                                      budget=budget) ** k
    if real_parts:
        for e in real_parts:
            var = _real_summand(q, e)
            if var is None:
                # exchange graph did not reach this denominator: fall back
                # to a direct rigid evaluation
                rep = ccmap.rigid_integer_rep(q, e, seed=seed)
                var = ccmap.cc_of_module(rep, pool=pool, budget=budget)
            poly = poly * var
    tag = "delta_layer" if k else "cluster_monomial"
    if poly.denominator_vector() != d:
        raise ConsistencyError(
            "structural value of %r has denominator %r"
            % (d, poly.denominator_vector()))
    return AffineGenericValue(vector=d, poly=poly, tag=tag, delta_power=k,
                              regular_parts=tuple(sorted(real_parts)))


@cache
def _real_summand_table(q: Quiver):
    table = mutation.ClusterVariableTable(quiver=q)
    return table, mutation._grow(table, 6, 10, DEFAULT_BUDGET)


def _real_summand(q: Quiver, e: DimVector) -> LaurentPoly | None:
    """The cluster variable with denominator vector e, from the table of q
    grown until it holds e (one variable per vector, so the whole table's);
    None once the schedule is spent. A failed growth drops the cache, so a
    half-grown table never answers None."""
    table, growth = _real_summand_table(q)
    if e not in table.entries:
        try:
            for _ in growth:
                if e in table.entries:
                    break
        except BaseException:
            _real_summand_table.cache_clear()
            raise
    return table.entries.get(e)


def regular_rigid_check(q: Quiver, m: Representation) -> bool:
    """True iff m is rigid and every canonical summand of its dimension
    vector has defect zero (no preprojective or preinjective part)."""
    aff = q.affine_data()
    if aff is None:
        raise InputError("regularity needs an affine quiver")
    if m.p != 0:
        raise InputError("regular-rigid test works on integer modules")
    if not any(m.dim):
        return True
    if ext_dim(m, m) != 0:
        return False
    dec = candecomp.canonical_decomposition(q, m.dim, method="auto")
    return all(q.defect(aff, e) == 0 for e, _m, _t in dec.summands)


def membership_check_A(q: Quiver, obj: ccmap.DecoratedRep, n_max: int = 6,
                       pool=DEFAULT_PRIMES, budget: int = DEFAULT_BUDGET,
                       seed: int = 0) -> dict:
    """Expand the character of a decorated object on the double-arrow
    quiver over the atomic family (cluster monomials plus powers of the
    quasi-simple character) and demand integer coefficients."""
    from . import kronecker
    if q.arrows != ((1, 2), (1, 2)):
        raise InputError("membership report is double-arrow only")
    x = ccmap.cc_of_object(obj, pool=pool, budget=budget)
    den = x.denominator_vector()
    bound = tuple(max(abs(v) + 1, 2) for v in den)
    fam = kronecker.build_basis("G", n_max=max(n_max, max(bound)),
                                monomial_bound=bound, seed=seed)
    names = [name for name, _p in fam.elements]
    polys = [p for _name, p in fam.elements]
    coeffs = ccmap.express_in_basis(x, polys)
    if coeffs is None:
        raise ConsistencyError("character is outside the family span")
    nonzero = [(names[i], c) for i, c in enumerate(coeffs) if c != 0]
    integral = all(c.denominator == 1 for _n, c in nonzero)
    if not integral:
        raise ConsistencyError(
            "non-integral expansion over the atomic family: %r" % (nonzero,))
    return {"den": list(den),
            "coefficients": [[name, int(c)] for name, c in nonzero],
            "integral": True,
            "family_size": len(polys)}
