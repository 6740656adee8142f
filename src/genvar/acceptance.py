"""The twelve-point acceptance suite.

Each criterion is a self-contained check with frozen oracles (printed
matrices, closed forms, hand-derived expansions) and exact tolerances.
`run_all` prints one PASS/FAIL line per criterion and is exposed through
the command line as `selftest`.
"""

from __future__ import annotations

import time
from itertools import product

from . import affine, candecomp, ccmap, kronecker, mutation
from .errors import ConsistencyError, InputError
from .laurent import LaurentPoly
from .quiver import (a_n, affine_a2, kronecker as kronecker_quiver,
                     negative_part, positive_part)
from .reps import Representation, hom_dim

# Frozen 7x7 base-change matrices between the power family and the
# trace-normalized family (columns expand z^j over 1, F_1, F_2, ...).
P_POWER_TO_F = (
    (1, 0, 2, 0, 6, 0, 20),
    (0, 1, 0, 3, 0, 10, 0),
    (0, 0, 1, 0, 4, 0, 15),
    (0, 0, 0, 1, 0, 5, 0),
    (0, 0, 0, 0, 1, 0, 6),
    (0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 1),
)
P_F_TO_POWER = (
    (1, 0, -2, 0, 2, 0, -2),
    (0, 1, 0, -3, 0, 5, 0),
    (0, 0, 1, 0, -4, 0, 9),
    (0, 0, 0, 1, 0, -5, 0),
    (0, 0, 0, 0, 1, 0, -6),
    (0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 1),
)
# ... and between the power family and the quotient-normalized family.
P_POWER_TO_S = (
    (1, 0, 1, 0, 2, 0, 5),
    (0, 1, 0, 2, 0, 5, 0),
    (0, 0, 1, 0, 3, 0, 9),
    (0, 0, 0, 1, 0, 4, 0),
    (0, 0, 0, 0, 1, 0, 5),
    (0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 1),
)
P_S_TO_POWER = (
    (1, 0, -1, 0, 1, 0, -1),
    (0, 1, 0, -2, 0, 3, 0),
    (0, 0, 1, 0, -3, 0, 6),
    (0, 0, 0, 1, 0, -4, 0),
    (0, 0, 0, 0, 1, 0, -5),
    (0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 1),
)


def _check(ok, message: str) -> None:
    """An acceptance check that `python -O` cannot strip."""
    if not ok:
        raise ConsistencyError(message)


def _criterion_1():
    """Frozen 7x7 base change, power family vs trace family."""
    bc = kronecker.base_change("G", "SZ", 7)
    _check(bc.matrix == P_POWER_TO_F, "forward matrix differs from the golden")
    _check(bc.inverse == P_F_TO_POWER, "inverse matrix differs from the golden")
    rev = kronecker.base_change("SZ", "G", 7)
    _check(rev.matrix == P_F_TO_POWER and rev.inverse == P_POWER_TO_F, "reverse call differs")
    return "both 7x7 matrices bit-exact in both call directions"


def _criterion_2():
    """Frozen 7x7 base change, power family vs quotient family."""
    bc = kronecker.base_change("G", "CZ", 7)
    _check(bc.matrix == P_POWER_TO_S, "forward matrix differs from the golden")
    _check(bc.inverse == P_S_TO_POWER, "inverse matrix differs from the golden")
    rev = kronecker.base_change("CZ", "G", 7)
    _check(rev.matrix == P_S_TO_POWER and rev.inverse == P_POWER_TO_S, "reverse call differs")
    return "both 7x7 matrices bit-exact in both call directions"


def _criterion_3():
    """Quasi-simple character reproduction at three tube parameters."""
    q = kronecker_quiver()
    z = LaurentPoly(2, {(1, -1): 1, (-1, -1): 1, (-1, 1): 1})
    for lam in (1, 2, 3):
        m = affine.tube_module_kronecker(q, lam, 1)
        _check(hom_dim(m, m) == 1, "tube representative is not Schur")
        x = ccmap.cc_of_module(m)
        _check(x == z, "character at parameter %d differs from closed form" % lam)
    gv = ccmap.generic_variable(q, (1, 1))
    _check(gv.poly == z, "certified generic value differs from closed form")
    return "closed form reproduced at parameters 1, 2, 3 and generically"


def _criterion_4():
    """Denominator vectors equal dimension vectors on rigid objects."""
    checked = 0
    for q in (a_n(2), a_n(3)):
        box = tuple([1] * q.vertices)
        for d, kind in q.positive_roots(box):
            _check(kind == "real", "Dynkin root %r is imaginary" % (d,))
            gv = ccmap.generic_variable(q, d)
            _check(gv.rigid, "Dynkin root %r not certified rigid" % (d,))
            _check(gv.poly.denominator_vector() == d, "denominator differs at %r" % (d,))
            checked += 1
    qk = kronecker_quiver()
    for n in range(4):
        for d in ((n + 1, n), (n, n + 1)):
            if not any(d):
                continue
            gv = ccmap.generic_variable(qk, d)
            _check(gv.rigid and gv.poly.denominator_vector() == d, "rigid value fails at %r" % (d,))
            checked += 1
    z = kronecker.z_character()
    for n in range(1, 11):
        _check((z ** n).denominator_vector() == (n, n), "denominator of z^%d differs" % n)
    return "%d rigid objects plus ten power-family layers" % checked


def _criterion_5():
    """Dynkin generic values are cluster monomials; the double-arrow
    quiver has a generic value outside every cluster monomial."""
    for q in (a_n(2), a_n(3)):
        n = q.vertices
        table = mutation.enumerate_cluster_variables(q, 10)
        monos = mutation.cluster_monomials(
            table, q, tuple([3] * n), tuple([-2] * n))
        keys = {m.key() for m in monos}
        count = 0
        for d in product(range(-2, 4), repeat=n):
            gv = ccmap.generic_variable(q, d)
            _check(gv.poly.key() in keys,
                   "generic value at %r is not a cluster monomial" % (d,))
            count += 1
        _check(count == 6 ** n, "box has the wrong size")
    qk = kronecker_quiver()
    z = kronecker.z_character()
    table = mutation.enumerate_cluster_variables(qk, 8)
    monos = mutation.cluster_monomials(table, qk, (2, 2))
    gv = ccmap.generic_variable(qk, (2, 2))
    _check(gv.poly == z ** 2, "double-delta value is not z^2")
    _check(all(m != gv.poly for m in monos), "double delta is a cluster monomial")
    _check(all(m.denominator_vector() != (2, 2) for m in monos), "monomial at (2, 2)")
    return "A-type boxes are cluster monomials; double delta is not"


def _criterion_6():
    """The generic double-delta value and the quotient-family element
    differ by exactly the constant 1."""
    q = kronecker_quiver()
    z = kronecker.z_character()
    gv = ccmap.generic_variable(q, (2, 2))
    _check(gv.poly == z ** 2, "double-delta value is not z^2")
    s2 = kronecker.family_element("CZ", 2)
    diff = gv.poly - s2
    _check(diff == LaurentPoly.one(2), "separation constant is not 1")
    return "X at double delta minus the quotient-family layer equals 1"


def _criterion_7():
    """Multiplicativity: sampled characters factor through the canonical
    decomposition (structural route equals direct route), ext-orthogonal
    generic values multiply, and on every decomposable vector the whole
    first sample, counted as one module, gives the direct value that was
    assembled summand by summand."""
    qk = kronecker_quiver()
    qa = affine_a2()
    routes = 0
    decomposable = []
    for q, bound in ((qk, 4), (qa, 3)):
        for d in product(range(-bound, bound + 1), repeat=q.vertices):
            direct = ccmap.generic_variable(q, d)
            structural = affine.generic_variable_affine(q, d)
            _check(direct.poly == structural.poly, "routes disagree at %r" % (d,))
            routes += 1
            if sum(mult for _e, mult, _t in direct.summands) >= 2:
                decomposable.append((q, direct))
    products = 0
    for q, bound in ((qk, 2), (qa, 1)):
        vecs = list(product(range(-bound, bound + 1), repeat=q.vertices))
        for d in vecs:
            for e in vecs:
                if not (candecomp.generic_ext_vanishes_cluster(q, d, e)
                        and candecomp.generic_ext_vanishes_cluster(q, e, d)):
                    continue
                s = tuple(a + b for a, b in zip(d, e))
                lhs = ccmap.generic_variable(q, s).poly
                rhs = (ccmap.generic_variable(q, d).poly
                       * ccmap.generic_variable(q, e).poly)
                _check(lhs == rhs, "product fails at %r + %r" % (d, e))
                products += 1
    # The direct route counts only the sampled parts, and characters are
    # cached under the exact module, so the whole sample is enumerated
    # here as one module, not read from the route.
    for q, direct in decomposable:
        dim, matrices = direct.samples[0]
        whole = ccmap.cc_of_module(
            Representation(q, 0, dim, matrices),
            guards=ccmap.generic_guards(q, direct.rigid))
        shift = LaurentPoly.monomial(q.vertices, negative_part(direct.vector), 1)
        _check(whole * shift == direct.poly,
               "whole-module count differs from the summand product at %r"
               % (direct.vector,))
    largest = [max((gv.vector for r, gv in decomposable if r == q),
                   key=lambda v: sum(positive_part(v)))
               for q in (qk, qa)]
    return ("%d route comparisons, %d orthogonal products, %d whole-module "
            "checks up to %s and %s" % (routes, products, len(decomposable),
                                        *largest))


def _criterion_8():
    """Structural and search decompositions agree and every certificate
    re-verifies."""
    count = 0
    for q in (kronecker_quiver(), affine_a2()):
        for d in product(range(4), repeat=q.vertices):
            if not any(d):
                continue
            a = candecomp.canonical_decomposition(q, d, method="structural")
            b = candecomp.canonical_decomposition(q, d, method="search")
            _check(a.summands == b.summands, "methods disagree at %r" % (d,))
            _check(candecomp.verify_certificate(q, a), "certificate fails")
            _check(candecomp.verify_certificate(q, b), "certificate fails")
            count += 1
    return "%d vectors, both methods, certificates re-verified" % count


def _criterion_9():
    """Polynomial-family identities up to degree 20."""
    t = LaurentPoly.variable(1, 1)
    x = t + LaurentPoly.monomial(1, (-1,), 1)
    for n in range(21):
        s_n = affine.chebyshev_s(n)
        f_n = affine.chebyshev_f(n)
        want = (LaurentPoly.monomial(1, (n,), 1) + LaurentPoly.monomial(1, (-n,), 1)
                if n else LaurentPoly.const(1, 2))
        _check(LaurentPoly.substitute_univariate(f_n, x) == want, "trace fails at %d" % n)
        if n >= 2:
            s_prev = affine.chebyshev_s(n - 2)
            diff = list(f_n)
            for i, c in enumerate(s_n):
                diff[i] -= c
            for i, c in enumerate(s_prev):
                diff[i] += c
            _check(not any(diff), "difference identity fails at %d" % n)
        lam = affine.s_as_f_sum(n)
        acc = [0] * (n + 1)
        for k, c in enumerate(lam):
            if not c:
                continue
            fk = [1] if k == 0 else affine.chebyshev_f(k)
            for i, v in enumerate(fk):
                acc[i] += c * v
        _check(acc == s_n + [0] * (n + 1 - len(s_n)), "summation identity fails at %d" % n)
        # recurrence re-check against direct multiplication
        if n >= 2:
            prev, cur = affine.chebyshev_s(n - 2), affine.chebyshev_s(n - 1)
            nxt = [0] + cur
            for i, c in enumerate(prev):
                nxt[i] -= c
            _check(nxt == s_n, "recurrence fails at %d" % n)
    return "trace, difference, summation and recurrence identities, n <= 20"


def _criterion_10():
    """Expansion coefficients: parity vanishing, strict inner decrease,
    and positive unipotent base changes to size 12."""
    g_sz = kronecker.base_change("G", "SZ", 13).matrix
    for n in range(13):
        lam = [row[n] for row in g_sz[:n + 1]]
        for i, c in enumerate(lam):
            if (i - n) % 2:
                _check(c == 0, "parity fails at (%d, %d)" % (i, n))
        for i in range(2, n + 1):
            if (i - n) % 2 == 0:
                _check(lam[i] < lam[i - 2],
                       "monotonicity fails at (%d, %d)" % (i, n))
    for target in ("SZ", "CZ"):
        bc = kronecker.base_change("G", target, 12)
        rep = kronecker.positivity_report(bc.matrix)
        _check(rep["unipotent"] and rep["nonnegative"],
               "base change to %s is not positive unipotent" % target)
    return "coefficient laws to n = 12 and positive unipotent changes"


def _criterion_11():
    """Exact integer independence of the power-family window."""
    fam = kronecker.build_basis("G", n_max=5, monomial_bound=(5, 5))
    rep = kronecker.independence_check(fam)
    _check(rep["independent"], "family window is linearly dependent")
    dup = kronecker.independence_check(fam, extra=[fam.elements[0][1]])
    _check(not dup["independent"], "negative control failed to detect a repeat")
    return "%d elements, rank %d, duplicate control detected" % (
        rep["elements"], rep["rank"])


def _criterion_12():
    """Tube characters expand integrally over the power family."""
    q = kronecker_quiver()
    details = []
    for lam in (1, 2):
        for n in (1, 2, 3):
            m = affine.tube_module_kronecker(q, lam, n)
            obj = ccmap.DecoratedRep(module=m, shifts=(0, 0))
            rep = kronecker.membership_check_A(obj)
            _check(rep["integral"], "tube character is not integral")
            details.append(len(rep["coefficients"]))
    return "six tube characters, integral expansions of sizes %s" % (
        sorted(set(details)),)


CRITERIA = (
    (1, "printed base change, power vs trace family", _criterion_1),
    (2, "printed base change, power vs quotient family", _criterion_2),
    (3, "quasi-simple character closed form", _criterion_3),
    (4, "denominator vectors equal dimension vectors", _criterion_4),
    (5, "Dynkin generic values are cluster monomials", _criterion_5),
    (6, "double delta separates the two bases", _criterion_6),
    (7, "multiplicativity across the canonical decomposition", _criterion_7),
    (8, "structural vs search decomposition equivalence", _criterion_8),
    (9, "polynomial family identities", _criterion_9),
    (10, "coefficient parity, monotonicity, positivity", _criterion_10),
    (11, "independence of the power-family window", _criterion_11),
    (12, "tube characters are integral over the power family", _criterion_12),
)


def run_criterion(k: int) -> dict:
    entry = next((c for c in CRITERIA if c[0] == k), None)
    if entry is None:
        raise InputError("no criterion %r" % (k,))
    _k, name, fn = entry
    start = time.monotonic()
    try:
        detail = fn()
        passed = True
    except Exception as exc:  # report, never mask
        detail = "%s: %s" % (type(exc).__name__, exc)
        passed = False
    return {"criterion": k, "name": name, "passed": passed,
            "detail": detail, "seconds": round(time.monotonic() - start, 2)}


def run_all(selected=None, echo=print) -> tuple[bool, list[dict]]:
    unknown = sorted(set(selected or ()) - {c[0] for c in CRITERIA})
    if unknown:
        raise InputError("no criterion %s" % ", ".join(map(str, unknown)))
    results = []
    for k, _name, _fn in CRITERIA:
        if selected is not None and k not in selected:
            continue
        r = run_criterion(k)
        results.append(r)
        echo("criterion %02d %s %s (%ss)" % (
            r["criterion"], "PASS" if r["passed"] else "FAIL",
            r["name"], r["seconds"]))
    return all(r["passed"] for r in results), results
