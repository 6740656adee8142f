"""The three bases of the double-arrow (rank-2 affine) cluster algebra and
exact base changes between their imaginary layers.

All three families share the cluster monomials and differ in the layer
indexed by multiples of delta = (1,1):

    G  : powers z^n of the quasi-simple character z
    SZ : F_n(z), the trace-normalized family (F_n(t + 1/t) = t^n + t^-n)
    CZ : S_n(z), the quotient-normalized family

with the index-0 element of every layer normalized to 1. Element n of each
layer is a monic integer polynomial of degree n in z, so every base change
is one unitriangular back-substitution on the coefficient table, and every
column is re-verified as an exact Laurent identity among integer
combinations of the powers of z. z itself is the closed form,
re-checked against the character of the quasi-simple module on every
call; that module is thin, so its character consults no prime pool and
is memoised per budget by `ccmap.cc_of_module`.

A finite window of a family (`build_basis`) is exactly independent
(`independence_check`), and the membership report (`membership_check_A`)
expands a character over the window of the power family G that holds
its denominator, demanding integer coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import affine, ccmap, mutation
from .errors import (DEFAULT_BUDGET, DEFAULT_PRIMES, BudgetError, ConsistencyError, InputError,
                     _check_limits)
from .laurent import LaurentPoly
from .linalg import rank_fraction
from .quiver import DimVector, kronecker

KINDS = ("G", "SZ", "CZ")


def z_character(budget: int = DEFAULT_BUDGET) -> LaurentPoly:
    """The quasi-simple character z = (1 + u1^2 + u2^2) / (u1 u2),
    cross-checked against the module-character route, which charges the
    thin quasi-simple one visit per e (four in all) against `budget`."""
    closed = LaurentPoly(2, {(1, -1): 1, (-1, -1): 1, (-1, 1): 1})
    m = affine.tube_module_kronecker(kronecker(), 1, 1)
    if ccmap.cc_of_module(m, budget=budget) != closed:
        raise ConsistencyError(
            "quasi-simple character disagrees with its closed form")
    return closed


def family_element(kind: str, n: int, budget: int = DEFAULT_BUDGET) -> LaurentPoly:
    """n-th imaginary-layer element of a family (index 0 is 1)."""
    if kind not in KINDS:
        raise InputError("unknown family %r" % (kind,))
    if type(n) is not int or n < 0:
        raise InputError("layer index must be nonnegative")
    return LaurentPoly.combination(2, _coeffs(kind, n), _powers(n + 1, budget))


def _coeffs(kind: str, j: int) -> list[int]:
    """Element j of a family as integer coefficients over z^0, ..., z^j."""
    if kind == "G":
        return [0] * j + [1]
    if kind == "SZ":
        return affine.chebyshev_f(j) if j else [1]
    return affine.chebyshev_s(j)


def _powers(n: int, budget: int = DEFAULT_BUDGET) -> list[LaurentPoly]:
    """z^0, ..., z^(n-1): every layer element is a combination of these."""
    z = z_character(budget=budget)
    out = [LaurentPoly.one(2)]
    while len(out) < n:
        out.append(out[-1] * z)
    return out


def _column(source: str, target: str, j: int) -> list[int]:
    """Expansion of source element j in the target layer (length j+1), by
    back-substitution: target element i is monic of degree i in z."""
    rest = _coeffs(source, j)
    col = [0] * (j + 1)
    for i in range(j, -1, -1):
        c = col[i] = rest[i]
        if c:
            for k, v in enumerate(_coeffs(target, i)):
                rest[k] -= c * v
    return col


def _verify(source: str, target: str, cols: dict, budget: int = DEFAULT_BUDGET) -> None:
    """Re-check each column j of `cols` as the exact Laurent identity
    source_j = sum_i cols[j][i] * target_i; ConsistencyError on failure.
    z is re-checked under `budget` (`z_character`)."""
    combination = LaurentPoly.combination
    powers = _powers(max(map(len, cols.values())), budget)
    targets = [combination(2, _coeffs(target, i), powers) for i in range(len(powers))]
    for j, col in cols.items():
        if combination(2, col, targets) != combination(2, _coeffs(source, j), powers):
            raise ConsistencyError(
                "column %d of %s->%s fails the Laurent identity"
                % (j, source, target))


@dataclass(frozen=True)
class BaseChangeMatrix:
    source: str
    target: str
    size: int
    matrix: tuple   # rows; column j expands source_j over target elements
    inverse: tuple

    def to_json(self) -> dict:
        return {"source": self.source, "target": self.target,
                "size": self.size,
                "matrix": [list(r) for r in self.matrix],
                "inverse": [list(r) for r in self.inverse]}


def base_change(source: str, target: str, size: int,
                budget: int = DEFAULT_BUDGET) -> BaseChangeMatrix:
    """Integer base-change matrix between two imaginary layers, with its
    inverse; every column is re-verified as an exact Laurent identity and
    the two matrices are checked to be mutually inverse, unit upper
    triangular, and supported on the parity checkerboard. The work of
    those checks (`_check_work`) is charged against `budget` before any
    of it runs, and z is re-checked under the same budget; BudgetError
    above it. InputError unless `budget` is an int >= 0."""
    for kind in (source, target):
        if kind not in KINDS:
            raise InputError("unknown family %r" % (kind,))
    if type(size) is not int or size < 1:
        raise InputError("size must be positive")
    _check_limits(budget)
    work = _check_work(size)
    if work > budget:
        raise BudgetError("base-change checks of size %d need %d units of work" % (size, work))
    mat = _square(source, target, size)
    inv = _square(target, source, size)
    _check_identity(mat, inv)
    _check_identity(inv, mat)
    for m in (mat, inv):
        for i in range(size):
            for j in range(size):
                if i == j and m[i][j] != 1:
                    raise ConsistencyError("base change is not unipotent")
                if i > j and m[i][j] != 0:
                    raise ConsistencyError("base change is not triangular")
                if (i - j) % 2 and m[i][j] != 0:
                    raise ConsistencyError("base change breaks parity")
    _verify(source, target, {j: [row[j] for row in mat] for j in range(size)}, budget)
    return BaseChangeMatrix(source=source, target=target, size=size,
                            matrix=mat, inverse=inv)


def _check_work(size: int) -> int:
    """The work of `base_change`'s checks, known before they run: size^3
    multiply-adds in each of the two inverse checks, and size * (2 size + 1)
    terms in the Laurent re-check's combinations (j + 1 for target element
    j, then per column size over the targets and j + 1 for source element j)."""
    return 2 * size ** 3 + size * (2 * size + 1)


def _square(source: str, target: str, size: int) -> tuple:
    cols = [_column(source, target, j) + [0] * (size - 1 - j)
            for j in range(size)]
    return tuple(zip(*cols))


def _check_identity(a, b):
    n = len(a)
    for i in range(n):
        for j in range(n):
            s = sum(a[i][k] * b[k][j] for k in range(n))
            if s != (1 if i == j else 0):
                raise ConsistencyError("base-change matrices are not inverse")


def positivity_report(mat) -> dict:
    """Unipotence/nonnegativity summary of an integer matrix."""
    n = len(mat)
    neg = [[i, j, mat[i][j]] for i in range(n) for j in range(n)
           if mat[i][j] < 0]
    unipotent = all(mat[i][i] == 1 for i in range(n)) and all(
        mat[i][j] == 0 for i in range(n) for j in range(n) if i > j)
    return {"unipotent": unipotent, "nonnegative": not neg,
            "negative_entries": neg}


@dataclass(frozen=True)
class BasisFamily:
    kind: str
    n_max: int
    monomial_bound: DimVector
    elements: tuple  # ((name, poly), ...) monomial layer then imaginary layer

    def to_json(self) -> dict:
        return {"kind": self.kind, "n_max": self.n_max,
                "monomial_bound": list(self.monomial_bound),
                "elements": [[name, p.to_json()] for name, p in self.elements]}


def build_basis(kind: str, n_max: int, monomial_bound=(2, 2), seed: int = 0,
                budget: int = DEFAULT_BUDGET) -> BasisFamily:
    """Finite window of one of the three families: all cluster monomials
    with denominator in the box plus the imaginary layer up to n_max.
    `seed` changes nothing (no sampling) and stays: the benchmark's workloads pass it."""
    if kind not in KINDS:
        raise InputError("unknown family %r" % (kind,))
    q = kronecker()
    bound = q.check_dim(monomial_bound)
    if any(x < 0 for x in bound):
        raise InputError("monomial bound must be a nonnegative pair")
    if type(n_max) is not int or n_max < 0:
        raise InputError("n_max must be nonnegative")
    table = mutation.enumerate_cluster_variables(q, max(bound) + 3, budget=budget)
    monos = mutation.cluster_monomials(table, q, bound, budget=budget)
    elements = []
    seen = set()
    # the keys are distinct, so the sort never compares two polynomials
    for (den, key), poly in sorted(((p.denominator_vector(), p.key()), p) for p in monos):
        elements.append(("mono:%d,%d" % den, poly))
        seen.add(key)
    powers = _powers(n_max + 1, budget)
    for n in range(1, n_max + 1):
        p = LaurentPoly.combination(2, _coeffs(kind, n), powers)
        if p.denominator_vector() != (n, n):
            raise ConsistencyError(
                "layer element %d has denominator %r" % (n, p.denominator_vector()))
        if p.key() in seen:
            raise ConsistencyError("layer element %d collides with a monomial" % n)
        seen.add(p.key())
        elements.append(("imag:%d" % n, p))
    if len(seen) != len(elements):
        raise ConsistencyError("family window has repeated elements")
    return BasisFamily(kind=kind, n_max=n_max, monomial_bound=bound,
                       elements=tuple(elements))


def independence_check(family: BasisFamily, extra=()) -> dict:
    """Exact linear-independence report over the rationals for the family
    window (plus optional extra polynomials as a negative control).
    InputError unless every extra is a LaurentPoly in two variables.

    Over the lex-sorted joint support, a polynomial's row starts at its
    lex-least exponent. When those leads are pairwise distinct among the
    nonzero polynomials, the rows are already in echelon form and the
    rank is their number; otherwise the dense rows go to `rank_fraction`."""
    if not all(isinstance(p, LaurentPoly) and p.nvars == 2 for p in extra):
        raise InputError("extra elements must be Laurent polynomials in two variables")
    polys = [p for _n, p in family.elements] + list(extra)
    leads = [min(p.terms) for p in polys if p.terms]
    if len(set(leads)) == len(leads):
        r = len(leads)
    else:
        support = sorted({m for p in polys for m in p.terms})
        r = rank_fraction([[p.terms.get(m, 0) for m in support] for p in polys])
    return {"elements": len(polys), "rank": r,
            "independent": r == len(polys)}


def membership_check_A(obj: ccmap.DecoratedRep, pool=DEFAULT_PRIMES,
                       budget: int = DEFAULT_BUDGET) -> dict:
    """Expand the character of a decorated object on the double-arrow
    quiver over the window of the power family (cluster monomials plus
    powers of the quasi-simple character) that holds its denominator,
    both under `budget`, and demand integer coefficients. InputError
    unless the module lives on that quiver."""
    if obj.module.quiver.arrows != ((1, 2), (1, 2)):
        raise InputError("membership report is double-arrow only")
    x = ccmap.cc_of_object(obj, pool=pool, budget=budget)
    den = x.denominator_vector()
    bound = tuple(max(abs(v) + 1, 2) for v in den)
    fam = build_basis("G", n_max=max(6, max(bound)), monomial_bound=bound, budget=budget)
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
