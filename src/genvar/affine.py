"""Affine-type structure: the two normalized Chebyshev families, explicit
tube representations on the double-arrow quiver and tagged generic
variables.

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
from itertools import islice

from . import candecomp, ccmap, mutation
from .errors import (DEFAULT_BUDGET, DEFAULT_PRIMES, BudgetError, ConsistencyError, InputError,
                     _check_limits)
from .laurent import LaurentPoly
from .quiver import DimVector, Quiver, negative_part, positive_part
from .reps import Representation


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

    The summands come from `candecomp._summands`, with no witness tuple.
    Each real Schur summand is the cluster variable read off the mutation
    walk of its defect's sign (`_real_summand`), grown only until it holds
    the summand; BudgetError when the walk's work up to it passes
    `budget`. The shifted projectives multiply the module part's product
    once, as the monomial u^{[d]_-}. This route is independent of direct
    character evaluation at the composite vector and can be compared
    against it. InputError unless `seed` is an int, `budget` an int >= 0
    and `pool` holds distinct primes.
    """
    d = q.check_dim(d)
    if type(seed) is not int:
        raise InputError("seed %r must be an integer" % (seed,))
    _check_limits(budget, pool)
    aff = q.affine_data()
    if aff is None:
        raise InputError("structural generic values need an affine quiver")
    dp = positive_part(d)
    poly = LaurentPoly.one(q.vertices)
    k = 0
    real_parts: list[DimVector] = []
    for e, mult, tag in candecomp._summands(q, dp, "structural"):
        if tag == "imaginary_schur":
            if e != aff.delta:
                raise ConsistencyError("affine imaginary summand %r differs from delta" % (e,))
            k = mult
        else:
            real_parts.extend([e] * mult)
    if k:
        poly = poly * delta_character(q, seed=seed, pool=pool, budget=budget) ** k
    for e in real_parts:
        poly = poly * _real_summand(q, e, budget)
    poly = poly.shift(negative_part(d))
    tag = "delta_layer" if k else "cluster_monomial"
    if poly.denominator_vector() != d:
        raise ConsistencyError("structural value of %r has denominator %r"
                               % (d, poly.denominator_vector()))
    return AffineGenericValue(vector=d, poly=poly, tag=tag, delta_power=k,
                              regular_parts=tuple(sorted(real_parts)))


@cache
def _walk(q: Quiver, sign: int) -> tuple:
    """The mutation walk of q that reaches its real Schur roots of defect
    sign `sign`: sink sweeps (preprojective), source sweeps (preinjective)
    or, for defect 0, breadth-first layers (regular roots, all below
    delta). Returns the table it fills, the suspended walk and, per
    denominator vector, the work spent by the end of the layer or sweep
    that first held it."""
    table = mutation.ClusterVariableTable(quiver=q)
    walk = (mutation._layers(table) if sign == 0 else
            mutation._sweeps(table, "sink" if sign < 0 else "source"))
    return table, walk, dict.fromkeys(table.entries, 0)


def _real_summand(q: Quiver, e: DimVector, budget: int) -> LaurentPoly:
    """The cluster variable with denominator vector e, a real Schur root
    of the affine quiver q, read off the walk of its defect's sign, grown
    until it holds e or its work passes `budget`. BudgetError unless the
    work that first reached e is within `budget`, whatever an earlier
    lookup grew. A failed growth drops the cache."""
    defect = q.defect(q.affine_data(), e)
    table, walk, charge = _walk(q, (defect > 0) - (defect < 0))
    try:
        while e not in table.entries and table.spent <= budget:
            next(walk)
            charge.update(dict.fromkeys(islice(table.entries, len(charge), None), table.spent))
    except BaseException:
        _walk.cache_clear()
        raise
    if charge.get(e, budget + 1) > budget:
        raise BudgetError("mutation walk to %r exceeded budget %d" % (e, budget))
    return table.entries[e]
