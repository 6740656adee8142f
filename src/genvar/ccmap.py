"""Cluster-character evaluation: Laurent expansions of modules and of
generic objects with a given dimension vector.

The character of a module M is

    X_M = sum_e chi(Gr_e(M)) * prod_i u_i^( -<e, a_i> - <a_i, dim M - e> )

with a_i the i-th unit vector and <,> the homological Euler form; shifted
projectives contribute plain variables. Generic values are computed from
certified representatives: a sample is a direct sum of one sampled module
per instance of the canonical summands, and it is accepted when its parts
pass the witness test of `candecomp` (each part Schur, every ordered pair
of distinct parts with Ext = 0). Non-rigid vectors additionally require
three independently accepted samples to agree. den(X_d) = d is asserted
on every result. A vector with negative coordinates is answered from its
positive part's cached value, under the same budget, times the monomial
u^{[d]_-} of its shifted projectives, so each generic module is drawn
once per positive part.

A sample's character is assembled summand by summand, since
X_{M+N} = X_M * X_N for every direct sum (Caldero-Chapoton 2006,
Prop. 3.6). Module characters are memoised on every argument, budget
included, so budget verdicts do not move. The parts of the generic
values at multiples of delta on the Kronecker and affine A2 quivers are
thin (every d_v <= 1): `repfq.chi_all` decides those over Q, consulting
no prime pool, for one visit per subdimension vector. A thin character
depends only on the support pattern (which arrows carry a nonzero
scalar), so after the pool and guards are checked, a thin module is
memoised as its 0/1 representative with pool and guards (): every
sample of one pattern shares one entry per budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from math import lcm

from . import candecomp
from .errors import (DEFAULT_BUDGET, DEFAULT_PRIMES, BudgetError, ConsistencyError, InputError,
                     _check_limits)
from .laurent import LaurentPoly
from .linalg import solve
from .quiver import DimVector, Quiver, negative_part, positive_part
from .repfq import _check_guards, chi_all
from .reps import (Representation, derive, direct_sum, hom_dim, make_rng, sample_integer_rep,
                   thin_scalars)

GENERIC_RETRIES = 12


@dataclass(frozen=True)
class DecoratedRep:
    """A module together with multiplicities of shifted projectives."""
    module: Representation
    shifts: DimVector

    def __post_init__(self):
        if self.module.p != 0:
            raise InputError("decorated objects use integer (p=0) modules")
        if len(self.shifts) != self.module.quiver.vertices:
            raise InputError("shift vector length mismatch")
        if any(type(s) is not int or s < 0 for s in self.shifts):
            raise InputError("shift multiplicities must be nonnegative integers")


def cc_of_module(m: Representation, pool=DEFAULT_PRIMES,
                 budget: int = DEFAULT_BUDGET,
                 guards: tuple = ()) -> LaurentPoly:
    """Laurent expansion of the character of a module over the integers.

    `guards` are passed through to the prime filter: reductions must
    preserve Hom against them, keeping subrepresentation counts on the
    polynomial branch the rational module certifies.

    A thin module (every d_v <= 1) is decided over Q from which arrows
    carry a nonzero scalar, consulting neither the pool nor the guards,
    so once both are checked it is looked up as its 0/1 representative
    with pool and guards (); the budget stays in the key."""
    pool, guards = _check_limits(budget, pool), _check_guards(m, guards)
    if max(m.dim) <= 1:
        mats = tuple([((1,),) if x else mat for x, mat in zip(thin_scalars(m), m.matrices)])
        m, pool, guards = Representation._trusted(m.quiver, 0, m.dim, mats), (), ()
    return _cc_of_module(m, pool, budget, guards)


@cache
def _cc_of_module(m: Representation, pool: tuple, budget: int, guards: tuple) -> LaurentPoly:
    q = m.quiver
    n = q.vertices
    if not any(m.dim):
        return LaurentPoly.one(n)
    chi = chi_all(m, pool=pool, budget=budget, guards=guards)
    # -<e, a_i> - <a_i, d - e> = <a_i, e> - <e, a_i> - <a_i, d>
    base = q.euler_coefficients(m.dim)[1]
    acc: dict[tuple, int] = {}
    for e, c in chi.items():
        if c == 0:
            continue
        left, right = q.euler_coefficients(e)
        exp = tuple(r - l - b for l, r, b in zip(left, right, base))
        acc[exp] = acc.get(exp, 0) + c
    return LaurentPoly(n, acc)


def cc_of_object(obj: DecoratedRep, pool=DEFAULT_PRIMES,
                 budget: int = DEFAULT_BUDGET) -> LaurentPoly:
    """Character of a decorated object: shifted projectives multiply in
    as plain variables."""
    return cc_of_module(obj.module, pool=pool, budget=budget).shift(obj.shifts)


@dataclass(frozen=True)
class GenericValue:
    vector: DimVector
    poly: LaurentPoly
    rigid: bool
    summands: tuple
    predicted_hom: int
    samples: tuple  # accepted integer representatives (dim, matrices)

    def to_json(self) -> dict:
        return {"vector": list(self.vector),
                "poly": self.poly.to_json(),
                "rigid": self.rigid,
                "summands": [{"vector": list(e), "multiplicity": m, "kind": t}
                             for e, m, t in self.summands],
                "predicted_hom": self.predicted_hom,
                "samples": [{"dim": list(d),
                             "matrices": [[list(r) for r in mat] for mat in mats]}
                            for d, mats in self.samples]}


def generic_variable(q: Quiver, d, seed: int = 0, pool=DEFAULT_PRIMES,
                     budget: int = DEFAULT_BUDGET) -> GenericValue:
    """Character of the generic decorated object with dimension vector d.

    Negative coordinates contribute shifted projectives (plain variable
    factors); the positive part is evaluated on a certified generic
    module. That module is sampled as a direct sum of one integer part
    per summand instance of the canonical decomposition, and certified by
    the witness test: each part is Schur and every ordered pair of
    distinct parts has Ext = 0. Its character is the product of the
    parts' characters
    (X_{M+N} = X_M * X_N, Caldero-Chapoton 2006, Prop. 3.6), each part
    counted at primes good for that part. The denominator vector of the
    result must equal d exactly. BudgetError when GENERIC_RETRIES
    attempts give too few certified samples. Values are cached on every
    argument, so a cached value never outlives the caller's budget; a
    vector with negative coordinates is answered from its positive
    part's entry under the same budget, times the monomial u^{[d]_-}.
    InputError unless `seed` is an int, `budget` an int >= 0 and `pool`
    a list or tuple of ints.
    """
    d = q.check_dim(d)
    if type(seed) is not int:
        raise InputError("seed %r must be an integer" % (seed,))
    return _generic_variable(q, d, seed, _check_limits(budget, pool), budget)


@cache
def _generic_variable(q: Quiver, d: DimVector, seed: int, pool: tuple,
                      budget: int) -> GenericValue:
    dp, dn = positive_part(d), negative_part(d)
    if not any(dp):
        value = GenericValue(vector=d, poly=LaurentPoly.monomial(q.vertices, dn, 1),
                             rigid=True, summands=(), predicted_hom=0, samples=())
    elif any(dn):
        # X_d = X_{[d]_+} * u^{[d]_-}: the shifted projectives are a
        # monomial factor, so only the positive part is ever sampled.
        value = _generic_variable(q, dp, seed, pool, budget)
        value = replace(value, vector=d, poly=value.poly.shift(dn))
    else:
        value = _sampled_value(q, d, seed, pool, budget)
    if value.poly.denominator_vector() != d:
        raise ConsistencyError(
            "denominator vector %r of the generic character differs from %r"
            % (value.poly.denominator_vector(), d))
    return value


def _sampled_value(q: Quiver, d: DimVector, seed: int, pool: tuple,
                   budget: int) -> GenericValue:
    """The generic value at a nonzero d >= 0, drawn and certified."""
    summands = candecomp._summands(q, d, "auto")
    instances = [e for e, mult, _t in summands for _ in range(mult)]
    tags = [t for _e, mult, t in summands for _ in range(mult)]
    # dim End of an accepted sample: Hom(a, a) = 1 and Hom(a, b) = <a, b>
    predicted = len(instances) + sum(
        max(q.euler_form(a, b), 0)
        for i, a in enumerate(instances) for j, b in enumerate(instances) if i != j)
    rigid_shape = all(t == "real_schur" for _e, _m, t in summands)
    guards = generic_guards(q, rigid_shape, seed)

    accepted: list[Representation] = []
    values: list[LaurentPoly] = []
    need = 1 if rigid_shape else 3
    for attempt in range(GENERIC_RETRIES):
        parts = _sample_parts(q, instances, seed, attempt)
        if candecomp._witness_fault(parts):
            continue
        # Guards certify that the non-rigid summands avoid the exceptional
        # tubes; rigid summands may legitimately share a dimension vector
        # with a guard, so they are excluded here. Hom into or out of a
        # direct sum vanishes exactly when it vanishes on every summand.
        if any(hom_dim(part, g) != 0 or hom_dim(g, part) != 0
               for part, t in zip(parts, tags) if t != "real_schur"
               for g in guards):
            continue
        accepted.append(direct_sum(*parts))
        value = LaurentPoly.one(q.vertices)
        for part in parts:
            value = value * cc_of_module(part, pool=pool, budget=budget,
                                         guards=guards)
        values.append(value)
        if len(accepted) >= need:
            break
    if len(accepted) < need:
        raise BudgetError(
            "no certified generic representative of %r within %d attempts"
            % (d, GENERIC_RETRIES))
    if any(v != values[0] for v in values[1:]):
        raise ConsistencyError(
            "accepted samples of %r disagree on the character" % (d,))

    return GenericValue(vector=d, poly=values[0], rigid=rigid_shape,
                        summands=summands, predicted_hom=predicted,
                        samples=tuple((m.dim, m.matrices) for m in accepted))


def generic_guards(q: Quiver, rigid: bool, seed: int = 0) -> tuple:
    """Rigid representatives of the exceptional regular dimension vectors
    that certify non-rigid samples of `generic_variable`; none for rigid
    shapes."""
    if rigid:
        return ()
    return tuple(rigid_integer_rep(q, e, seed=derive(seed, "guard", e))
                 for e in candecomp._exceptional_regular_dims(q))


def _sample_parts(q: Quiver, instances, seed: int,
                  attempt: int) -> list[Representation]:
    """Independently sampled integer representative per summand instance.
    The entry range widens with the attempt number so that repeated
    certificate failures escape parameter collisions."""
    bound = 3 + attempt
    return [sample_integer_rep(q, e,
                               make_rng(seed, "generic", tuple(e), attempt, i),
                               lo=-bound, hi=bound)
            for i, e in enumerate(instances)]


def rigid_integer_rep(q: Quiver, e, seed: int = 0) -> Representation:
    """An integer representation of a real Schur root with End = Q and
    Ext = 0, found by small-entry sampling."""
    e = q.check_dim(e)
    if q.q_norm(e) != 1:
        raise InputError("rigid representatives need a real root")
    for attempt in range(GENERIC_RETRIES):
        r = make_rng(seed, "rigid", e, attempt)
        m = sample_integer_rep(q, e, r)
        if hom_dim(m, m) == 1:  # Ext = End - <e, e> = 0 on a real root
            return m
    raise BudgetError("no rigid representative of %r within %d attempts"
                      % (e, GENERIC_RETRIES))


def express_in_basis(x: LaurentPoly, basis: list[LaurentPoly]):
    """Solve x = sum_j c_j * basis_j exactly over the rationals, with
    `linalg.solve` on the coefficients over the joint support.

    Returns the coefficient list, or None if the system is inconsistent
    or underdetermined (dependent basis). A solution is re-checked as a
    Laurent identity with cleared denominators."""
    support = set(x.terms)
    for b in basis:
        if b.nvars != x.nvars:
            raise InputError("mixed variable counts in basis expansion")
        support.update(b.terms)
    rows = sorted(support)
    coeffs = solve([[b.terms.get(m, 0) for m in rows] for b in basis],
                   [x.terms.get(m, 0) for m in rows])
    if coeffs is None:
        return None
    m = lcm(*[c.denominator for c in coeffs])
    acc = LaurentPoly.combination(x.nvars, [int(c * m) for c in coeffs], basis)
    return coeffs if acc == x.scale(m) else None
