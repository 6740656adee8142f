"""Exact multivariate Laurent polynomials over the integers.

Terms are a map from exponent vectors (one slot per quiver vertex) to
nonzero integer coefficients. The zero polynomial is the empty map.
Serialization orders terms lexicographically by exponent vector, which
makes every emitted document byte-deterministic.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import ConsistencyError, InputError

_DIV_STEP_CAP = 2_000_000


class LaurentPoly:
    """Immutable exact Laurent polynomial in `nvars` variables."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if nvars <= 0:
            raise InputError("nvars must be positive")
        clean: dict[tuple[int, ...], int] = {}
        for exp, coef in (terms or {}).items():
            if len(exp) != nvars:
                raise InputError("exponent length %d != nvars %d" % (len(exp), nvars))
            if coef:
                clean[tuple(int(e) for e in exp)] = int(coef)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # ------------------------------------------------------------ builders

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, c: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.const(nvars, 1)

    @classmethod
    def monomial(cls, nvars: int, exp: Iterable[int], coef: int = 1) -> "LaurentPoly":
        return cls(nvars, {tuple(exp): coef})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "LaurentPoly":
        """The generator u_i, 1-based vertex index."""
        if not 1 <= i <= nvars:
            raise InputError("variable index out of range")
        exp = [0] * nvars
        exp[i - 1] = 1
        return cls(nvars, {tuple(exp): 1})

    # ----------------------------------------------------------- structure

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: 1}

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
        return LaurentPoly(self.nvars, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = out.get(exp, 0) + c1 * c2
                if c:
                    out[exp] = c
                else:
                    out.pop(exp, None)
        return LaurentPoly(self.nvars, out)

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly.zero(self.nvars)
        return LaurentPoly(self.nvars, {e: c * k for e, k in self.terms.items()})

    def shift(self, exp: Iterable[int]) -> "LaurentPoly":
        """Multiply by the monomial u^exp."""
        exp = tuple(exp)
        return LaurentPoly(self.nvars, {tuple(a + b for a, b in zip(e, exp)): c
                                        for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise InputError("negative power of a general Laurent polynomial")
        result = LaurentPoly.one(self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def divide_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in the Laurent ring; ConsistencyError if inexact.

        Leading-term elimination under lex order. If self = q * other, then
        in every coordinate the exponents of q lie between min(self) -
        min(other) and max(self) - max(other) (the extreme parts of a
        product are the products of the extreme parts), so a quotient term
        outside that box proves the division inexact. Exactness of every
        mutation-step division is a structural guarantee, so failure here
        means an implementation bug, not bad input.
        """
        self._check(other)
        if other.is_zero():
            raise ConsistencyError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.nvars)
        box = [(min(e[i] for e in self.terms) - min(e[i] for e in other.terms),
                max(e[i] for e in self.terms) - max(e[i] for e in other.terms))
               for i in range(self.nvars)]
        lead_exp = max(other.terms)
        lead_coef = other.terms[lead_exp]
        rem = dict(self.terms)
        quot: dict[tuple[int, ...], int] = {}
        steps = 0
        while rem:
            steps += 1
            if steps > _DIV_STEP_CAP:
                raise ConsistencyError("laurent division did not terminate")
            rexp = max(rem)
            rcoef = rem[rexp]
            if rcoef % lead_coef != 0:
                raise ConsistencyError("inexact laurent division (coefficient)")
            qc = rcoef // lead_coef
            qe = tuple(a - b for a, b in zip(rexp, lead_exp))
            if any(not lo <= x <= hi for x, (lo, hi) in zip(qe, box)):
                raise ConsistencyError("inexact laurent division (exponent)")
            quot[qe] = quot.get(qe, 0) + qc
            for oexp, ocoef in other.terms.items():
                exp = tuple(a + b for a, b in zip(qe, oexp))
                c = rem.get(exp, 0) - qc * ocoef
                if c:
                    rem[exp] = c
                else:
                    rem.pop(exp, None)
        q = LaurentPoly(self.nvars, quot)
        if q * other != self:
            raise ConsistencyError("inexact laurent division (remainder)")
        return q

    # --------------------------------------------------------- denominators

    def denominator_vector(self) -> tuple[int, ...]:
        """den(x): x times u^den(x) is a polynomial not divisible by any u_i."""
        if self.is_zero():
            raise InputError("denominator vector of zero is undefined")
        return tuple(-min(exp[i] for exp in self.terms) for i in range(self.nvars))

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
        if not isinstance(n, int) or n <= 0:
            raise InputError("bad variable count")
        terms: dict[tuple[int, ...], int] = {}
        for item in doc["terms"]:
            exp = item.get("exp")
            coef = item.get("coef")
            if (not isinstance(exp, list) or len(exp) != n
                    or not all(isinstance(e, int) for e in exp)):
                raise InputError("bad exponent vector %r" % (exp,))
            if not isinstance(coef, int) or coef == 0:
                raise InputError("coefficients must be nonzero integers")
            key = tuple(exp)
            if key in terms:
                raise InputError("duplicate exponent vector %r" % (exp,))
            terms[key] = coef
        return cls(n, terms)


def substitute_univariate(coeffs: list[int], x: LaurentPoly) -> LaurentPoly:
    """Module-level alias for LaurentPoly.substitute_univariate."""
    return LaurentPoly.substitute_univariate(coeffs, x)
