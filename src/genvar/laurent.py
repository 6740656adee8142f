"""Exact multivariate Laurent polynomials over the integers.

Terms are a map from exponent vectors (one slot per quiver vertex) to
nonzero integer coefficients. The zero polynomial is the empty map.
Serialization orders terms lexicographically by exponent vector, which
makes every emitted document byte-deterministic.

The public constructor `LaurentPoly(nvars, terms)`, and the builders and
`from_json` that go through it, validate: exponent vectors become tuples
of `nvars` ints, coefficients become ints, a value that is not integral
(0.5, "1") raises InputError instead of being truncated, and zero
coefficients are dropped. `shift` checks its exponent the same way;
`const` and `one` check nvars and c the same way, then wrap their
one-term map as built.
`from_json`, `variable` and powers take ints only, refusing bools.
Results of arithmetic on polynomials that are already valid (`+`, `-`,
`*`, `scale`, `shift`, `combination`, powers and quotients) skip that
pass and store their term map as built. Every term map is read-only, so
a polynomial that a cache hands out cannot be changed through it.
"""

from __future__ import annotations

from functools import reduce
from heapq import heappop, heappush
from itertools import repeat
from operator import add, mul, sub
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ConsistencyError, InputError

_DIV_STEP_CAP = 2_000_000


def _as_int(x) -> int:
    """x as an int; InputError unless x has an integral value (2, True,
    2.0), so nothing is truncated."""
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError("%r is not an integer" % (x,))


class LaurentPoly:
    """Immutable exact Laurent polynomial in `nvars` variables."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if type(nvars) is not int or nvars <= 0:
            raise InputError("nvars must be a positive integer")
        clean: dict[tuple[int, ...], int] = {}
        for exp, coef in (terms or {}).items():
            exp = tuple(map(_as_int, exp))
            if len(exp) != nvars:
                raise InputError("exponent length %d != nvars %d" % (len(exp), nvars))
            coef = _as_int(coef)
            if coef:
                clean[exp] = coef
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", MappingProxyType(clean))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "LaurentPoly":
        """Wrap a term map already in canonical form (tuple-of-int keys of
        length nvars, nonzero int values) without copying or checking it."""
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", MappingProxyType(terms))
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # ------------------------------------------------------------ builders

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, c: int) -> "LaurentPoly":
        """The constant c; nvars and c pass the constructor's checks."""
        if type(nvars) is not int or nvars <= 0:
            raise InputError("nvars must be a positive integer")
        c = _as_int(c)
        return cls._trusted(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.const(nvars, 1)

    @classmethod
    def monomial(cls, nvars: int, exp: Iterable[int], coef: int = 1) -> "LaurentPoly":
        return cls(nvars, {tuple(exp): coef})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "LaurentPoly":
        """The generator u_i, 1-based vertex index; InputError unless nvars
        and i are ints (bools refused) with 1 <= i <= nvars."""
        if type(nvars) is not int or type(i) is not int or not 1 <= i <= nvars:
            raise InputError("variable index %r must be an integer in 1..%r" % (i, nvars))
        exp = [0] * nvars
        exp[i - 1] = 1
        return cls(nvars, {tuple(exp): 1})

    # ----------------------------------------------------------- structure

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items())

    def key(self) -> tuple:
        """Canonical hashable form."""
        return (self.nvars, tuple(self.sorted_terms()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash(self.key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if self.is_zero():
            return "LaurentPoly(0)"
        bits = []
        for exp, coef in self.sorted_terms():
            mono = "*".join("u%d^%d" % (i + 1, e) for i, e in enumerate(exp) if e)
            bits.append(("%+d" % coef) + ("*" + mono if mono else ""))
        return "LaurentPoly(%s)" % " ".join(bits)

    # ---------------------------------------------------------- arithmetic

    def _check(self, other: "LaurentPoly") -> None:
        if not isinstance(other, LaurentPoly):
            raise InputError("expected LaurentPoly")
        if self.nvars != other.nvars:
            raise InputError("variable count mismatch: %d vs %d" % (self.nvars, other.nvars))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            c = out.get(exp, 0) + coef
            if c:
                out[exp] = c
            else:
                out.pop(exp, None)
        return LaurentPoly._trusted(self.nvars, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                out[exp] = get(exp, 0) + c1 * c2
        return LaurentPoly._trusted(self.nvars, {e: c for e, c in out.items() if c})

    def scale(self, c: int) -> "LaurentPoly":
        c = _as_int(c)
        if c == 0:
            return LaurentPoly.zero(self.nvars)
        return LaurentPoly._trusted(self.nvars, {e: c * k for e, k in self.terms.items()})

    @classmethod
    def combination(cls, nvars: int, coeffs: Iterable[int],
                    polys: Iterable["LaurentPoly"]) -> "LaurentPoly":
        """sum c * p over the pairs of int coefficients and polynomials in
        `nvars` variables, added into one term map."""
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for c, p in zip(coeffs, polys):
            if c:
                for e, k in p.terms.items():
                    out[e] = get(e, 0) + c * k
        return cls._trusted(nvars, {e: c for e, c in out.items() if c})

    def shift(self, exp: Iterable[int]) -> "LaurentPoly":
        """Multiply by the monomial u^exp."""
        exp = tuple(map(_as_int, exp))
        if len(exp) != self.nvars:
            raise InputError("exponent length %d != nvars %d" % (len(exp), self.nvars))
        return LaurentPoly._trusted(self.nvars, {tuple(map(add, e, exp)): c
                                                 for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if type(n) is not int or n < 0:
            raise InputError("power %r must be a nonnegative integer" % (n,))
        if n == 0:
            return LaurentPoly.one(self.nvars)
        # multiply by the base n - 1 times: each step costs |x^j| * |x|,
        # below repeated squaring's |x^(n/2)|^2 on sparse polynomials
        # (Fateman 1974, Stud. Appl. Math. 53)
        return reduce(mul, repeat(self, n - 1), self)

    def divide_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in the Laurent ring; ConsistencyError if inexact.

        Each step eliminates the lex-least remainder term, popped from a
        heap: lex order is compatible with multiplication, so a step adds
        only greater terms. If self = q * other, then in every coordinate
        the exponents of q lie between min(self) - min(other) and max(self)
        - max(other) (the extreme parts of a product are the products of
        the extreme parts), so a quotient term outside that box proves the
        division inexact. Exactness of every mutation-step division is a
        structural guarantee, so failure here means an implementation bug,
        not bad input; `mutation.mutate` memoizes its steps, so a process
        divides each distinct exchange once.
        """
        self._check(other)
        if other.is_zero():
            raise ConsistencyError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.nvars)
        box = [(min(e[i] for e in self.terms) - min(e[i] for e in other.terms),
                max(e[i] for e in self.terms) - max(e[i] for e in other.terms))
               for i in range(self.nvars)]
        lead_exp = min(other.terms)
        lead_coef = other.terms[lead_exp]
        rem = dict(self.terms)
        heap = sorted(rem)  # every key of rem, pushed once; a sorted list is a heap
        quot: dict[tuple[int, ...], int] = {}
        steps = 0
        while heap:
            rexp = heappop(heap)
            rcoef = rem[rexp]
            if not rcoef:
                continue  # cancelled after it was pushed
            steps += 1
            if steps > _DIV_STEP_CAP:
                raise ConsistencyError("laurent division did not terminate")
            if rcoef % lead_coef != 0:
                raise ConsistencyError("inexact laurent division (coefficient)")
            qc = rcoef // lead_coef
            qe = tuple(map(sub, rexp, lead_exp))
            if any(not lo <= x <= hi for x, (lo, hi) in zip(qe, box)):
                raise ConsistencyError("inexact laurent division (exponent)")
            quot[qe] = qc  # rexp strictly increases, so qe is new
            for oexp, ocoef in other.terms.items():
                exp = tuple(map(add, qe, oexp))
                if exp not in rem:
                    heappush(heap, exp)
                rem[exp] = rem.get(exp, 0) - qc * ocoef
        q = LaurentPoly._trusted(self.nvars, quot)
        if q * other != self:
            raise ConsistencyError("inexact laurent division (remainder)")
        return q

    # --------------------------------------------------------- denominators

    def denominator_vector(self) -> tuple[int, ...]:
        """den(x): x times u^den(x) is a polynomial not divisible by any u_i."""
        if self.is_zero():
            raise InputError("denominator vector of zero is undefined")
        return tuple(-min(col) for col in zip(*self.terms))

    # -------------------------------------------------------- substitution

    @staticmethod
    def substitute_univariate(coeffs: "list[int]", x: "LaurentPoly") -> "LaurentPoly":
        """Evaluate the univariate integer polynomial `coeffs` (index =
        degree) at the Laurent polynomial x, exactly (Horner)."""
        out = LaurentPoly.zero(x.nvars)
        for c in reversed(coeffs):
            out = out * x + LaurentPoly.const(x.nvars, c)
        return out

    # -------------------------------------------------------------- wire

    def to_json(self) -> dict:
        return {"n": self.nvars,
                "terms": [{"exp": list(e), "coef": c} for e, c in self.sorted_terms()]}

    @classmethod
    def from_json(cls, doc: dict) -> "LaurentPoly":
        if not isinstance(doc, dict) or "n" not in doc or "terms" not in doc:
            raise InputError("laurent document needs 'n' and 'terms'")
        n = doc["n"]
        if type(n) is not int or n <= 0:
            raise InputError("bad variable count")
        if not isinstance(doc["terms"], (list, tuple)) or not all(
                isinstance(item, dict) for item in doc["terms"]):
            raise InputError("laurent terms must be a list of {exp, coef} objects")
        terms: dict[tuple[int, ...], int] = {}
        for item in doc["terms"]:
            exp = item.get("exp")
            coef = item.get("coef")
            if (not isinstance(exp, list) or len(exp) != n
                    or not all(type(e) is int for e in exp)):
                raise InputError("bad exponent vector %r" % (exp,))
            if type(coef) is not int or coef == 0:
                raise InputError("coefficients must be nonzero integers")
            key = tuple(exp)
            if key in terms:
                raise InputError("duplicate exponent vector %r" % (exp,))
            terms[key] = coef
        return cls(n, terms)
