"""Queries and oracles of the three benchmark workloads.

A query is one call a caller makes into genvar and waits for, in a
closed loop; `build` turns the plain inputs from `inputs.generate` into
query objects. Oracles run after every query has been timed, compare with
explicit tests (never `assert`, which `python -O` strips), and each
returns True when its query's answer is confirmed by a route independent
of the one timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Any, Callable

from genvar import affine, candecomp, ccmap, kronecker, mutation
from genvar.laurent import LaurentPoly
from genvar.quiver import Quiver
from genvar.repfq import Representation, direct_sum, zero_rep


@dataclass(frozen=True)
class Query:
    label: tuple
    call: Callable[[], Any]
    # oracle(result, results_by_label) -> bool
    oracle: Callable[[Any, dict], bool]


def build(workload: str, inputs: dict) -> list[Query]:
    if workload == "delta-direct":
        return _delta_direct(inputs)
    if workload == "module-chars":
        return _module_chars(inputs)
    if workload == "structural":
        return _structural(inputs)
    raise ValueError("unknown workload %r" % (workload,))


def canon(x):
    """Plain, ordered form of a query result, for output digests."""
    if isinstance(x, LaurentPoly):
        return x.key()
    if isinstance(x, (ccmap.GenericValue, affine.AffineGenericValue)):
        return x.poly.key()
    if isinstance(x, candecomp.CanonicalDecomposition):
        return (x.vector, x.summands)
    if isinstance(x, kronecker.BaseChangeMatrix):
        return (x.matrix, x.inverse)
    if isinstance(x, kronecker.BasisFamily):
        return tuple((name, p.key()) for name, p in x.elements)
    if isinstance(x, dict):
        return tuple(sorted((k, canon(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(canon(v) for v in x)
    return x


@cache
def quiver(spec) -> Quiver:
    """The quiver of a (vertex count, arrows) spec from `inputs`."""
    return Quiver(*spec)


# ---------------------------------------------------------- delta-direct

def _delta_direct(inputs: dict) -> list[Query]:
    out = []
    for spec, d, seed in inputs["generic"]:
        q = quiver(spec)
        out.append(Query(("generic", d, seed),
                         lambda q=q, d=d, s=seed: ccmap.generic_variable(q, d, s),
                         lambda gv, _r, q=q, d=d: _matches_affine(q, d, gv)))
    return out


def _matches_affine(q: Quiver, d, gv) -> bool:
    """Direct-route value against the structural affine route (delta
    character power times exchange-graph variables), plus den(X_d) = d."""
    if gv.poly.denominator_vector() != tuple(d):
        return False
    return affine.generic_variable_affine(q, d, seed=0).poly == gv.poly


# ---------------------------------------------------------- module-chars

def _module_chars(inputs: dict) -> list[Query]:
    out = []
    for i, (spec, _total, summands) in enumerate(inputs["sums"]):
        q = quiver(spec)
        parts = [Representation(q, 0, e, mats) for e, mats in summands]
        m = zero_rep(q, 0)
        for part in parts:
            m = direct_sum(m, part)
        out.append(Query(("sum", i), lambda m=m: ccmap.cc_of_module(m),
                         lambda x, _r, q=q, parts=parts: _multiplicative(q, parts, x)))
    for i, (spec, lam, n) in enumerate(inputs["tubes"]):
        m = affine.tube_module_kronecker(quiver(spec), lam, n)
        out.append(Query(("tube", i), lambda m=m: ccmap.cc_of_module(m),
                         lambda x, _r, n=n: x == kronecker.family_element("CZ", n)))
    return out


def _multiplicative(q: Quiver, parts, x) -> bool:
    """X of a direct sum equals the product of the summand characters."""
    want = LaurentPoly.one(q.vertices)
    for part in parts:
        want = want * ccmap.cc_of_module(part)
    return x == want


# ------------------------------------------------------------ structural

def _structural(inputs: dict) -> list[Query]:
    seed = inputs["seed"]
    out = []
    for spec, d in inputs["decomp"]:
        q = quiver(spec)
        for method, other in (("structural", "search"), ("search", "structural")):
            out.append(Query(
                ("decomp", method, spec, d),
                lambda q=q, d=d, m=method: _certified_decomposition(q, d, m, seed),
                lambda res, r, key=("decomp", other, spec, d): _same_decomposition(res, r.get(key))))
    for spec, vecs, hi, lo in inputs["dynkin"]:
        q = quiver(spec)
        mono_key = ("monomials", spec)
        out.append(Query(mono_key,
                         lambda q=q, hi=hi, lo=lo: _monomials(q, hi, lo),
                         lambda monos, _r: _monomials_sane(monos)))
        for d in vecs:
            out.append(Query(("dynkin", spec, d),
                             lambda q=q, d=d: ccmap.generic_variable(q, d, seed),
                             lambda gv, r, key=mono_key: _is_monomial(gv, r.get(key))))
    for spec, d in inputs["routes"]:
        q = quiver(spec)
        out.append(Query(("route-direct", spec, d),
                         lambda q=q, d=d: ccmap.generic_variable(q, d, seed),
                         lambda gv, r, key=("route-affine", spec, d), d=d:
                         _same_route(gv, r.get(key), d)))
        out.append(Query(("route-affine", spec, d),
                         lambda q=q, d=d: affine.generic_variable_affine(q, d, seed),
                         lambda av, _r, d=d: av.poly.denominator_vector() == d))
    for spec, d, partners in inputs["products"]:
        q = quiver(spec)
        out.append(Query(("products", spec, d),
                         lambda q=q, d=d, es=partners: _products(q, d, es, seed),
                         lambda res, _r: all(lhs == rhs for _e, lhs, rhs in res)))
    for source, target, size in inputs["base_changes"]:
        out.append(Query(("base_change", source, target, size),
                         lambda s=source, t=target, n=size: kronecker.base_change(s, t, n),
                         lambda bc, _r: _base_change_closed_form(bc)))
    for kind in inputs["families"]:
        out.append(Query(("basis", kind),
                         lambda k=kind: _independent_family(k, seed),
                         lambda res, _r: _independence_holds(res)))
    return out


def _certified_decomposition(q: Quiver, d, method: str, seed: int):
    """Decompose, then re-verify the witness certificate as a client would."""
    dec = candecomp.canonical_decomposition(q, d, method=method, seed=seed)
    return dec, candecomp.verify_certificate(q, dec)


def _same_decomposition(res, other) -> bool:
    if not isinstance(other, tuple):
        return False
    return res[1] is True and other[1] is True and res[0].summands == other[0].summands


def _monomials(q: Quiver, hi, lo):
    table = mutation.enumerate_cluster_variables(q, 10)
    return mutation.cluster_monomials(table, q, hi, lo)


def _monomials_sane(monos) -> bool:
    keys = [m.key() for m in monos]
    return bool(keys) and len(set(keys)) == len(keys)


def _is_monomial(gv, monos) -> bool:
    if not isinstance(monos, list):
        return False
    return gv.poly.key() in {m.key() for m in monos}


def _same_route(gv, av, d) -> bool:
    if not isinstance(av, affine.AffineGenericValue):
        return False
    return gv.poly == av.poly and gv.poly.denominator_vector() == d


def _products(q: Quiver, d, partners, seed: int) -> list:
    """Every Ext-orthogonal partner e of d, with X_{d+e} and X_d * X_e,
    which must agree: the products a client lists for one vector."""
    out = []
    for e in partners:
        if not (candecomp.generic_ext_vanishes_cluster(q, d, e, seed)
                and candecomp.generic_ext_vanishes_cluster(q, e, d, seed)):
            continue
        s = tuple(a + b for a, b in zip(d, e))
        lhs = ccmap.generic_variable(q, s, seed).poly
        rhs = ccmap.generic_variable(q, d, seed).poly * ccmap.generic_variable(q, e, seed).poly
        out.append((e, lhs, rhs))
    return out


def base_change_entry(target: str, i: int, j: int) -> int:
    """Closed form of z^j over the target family: binomial (trace family)
    or ballot numbers (quotient family), zero off the parity checkerboard."""
    if j < i or (j - i) % 2:
        return 0
    k = (j - i) // 2
    if target == "SZ":
        return comb(j, k)
    return comb(j, k) - (comb(j, k - 1) if k else 0)


def _base_change_closed_form(bc) -> bool:
    n = bc.size
    if bc.source != "G":
        return False
    want = tuple(tuple(base_change_entry(bc.target, i, j) for j in range(n))
                 for i in range(n))
    if bc.matrix != want:
        return False
    for i in range(n):
        for j in range(n):
            s = sum(bc.matrix[i][k] * bc.inverse[k][j] for k in range(n))
            if s != (1 if i == j else 0):
                return False
    return True


def _independent_family(kind: str, seed: int):
    fam = kronecker.build_basis(kind, n_max=5, monomial_bound=(5, 5), seed=seed)
    return fam, kronecker.independence_check(fam)


def _independence_holds(res) -> bool:
    fam, report = res
    if not (report["independent"] and report["rank"] == len(fam.elements)):
        return False
    # negative control: a repeated element must be detected
    dup = kronecker.independence_check(fam, extra=[fam.elements[0][1]])
    return dup["independent"] is False
