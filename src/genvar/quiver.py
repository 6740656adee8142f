"""Acyclic quivers, Euler/Tits forms, positive roots and affine data.

Vertices are numbered 1..n; dimension vectors are integer tuples whose
slot i-1 belongs to vertex i. The Euler form is
    <e, f> = sum_i e_i f_i - sum_{arrows s->t} e_s f_t
and the (symmetric) Tits form is its symmetrization. Type recognition
(Dynkin / affine / wild) is the exact definiteness class of the Gram
matrix of the Tits form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .errors import InputError
from .linalg import classify_gram, nullspace_fraction

DimVector = tuple[int, ...]


class WildTypeError(InputError):
    """The quiver is neither Dynkin nor affine."""


@dataclass(frozen=True)
class AffineData:
    delta: DimVector
    extending_vertex: int  # 1-based


@dataclass(frozen=True)
class Quiver:
    vertices: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.vertices
        if not isinstance(n, int) or n <= 0:
            raise InputError("vertex count must be a positive integer")
        object.__setattr__(self, "arrows", tuple((int(s), int(t)) for s, t in self.arrows))
        for s, t in self.arrows:
            if not (1 <= s <= n and 1 <= t <= n):
                raise InputError("arrow (%d,%d) out of range" % (s, t))
            if s == t:
                raise InputError("loops are not allowed")
        self.topological_order()  # raises on oriented cycles
        if not self._connected():
            raise InputError("underlying graph must be connected")

    # ----------------------------------------------------------- structure

    def _connected(self) -> bool:
        if self.vertices == 1:
            return True
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.vertices + 1)}
        for s, t in self.arrows:
            adj[s].add(t)
            adj[t].add(s)
        seen = {1}
        stack = [1]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertices

    def topological_order(self) -> list[int]:
        """Vertices sorted sources-first; InputError on an oriented cycle."""
        indeg = {v: 0 for v in range(1, self.vertices + 1)}
        for _, t in self.arrows:
            indeg[t] += 1
        ready = sorted(v for v, d in indeg.items() if d == 0)
        order = []
        indeg = dict(indeg)
        while ready:
            v = ready.pop(0)
            order.append(v)
            for s, t in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0 and t not in ready:
                        ready.append(t)
                        ready.sort()
        if len(order) != self.vertices:
            raise InputError("quiver has an oriented cycle")
        return order

    def opposite(self) -> "Quiver":
        return Quiver(self.vertices, tuple((t, s) for s, t in self.arrows))

    def arrows_from(self, v: int) -> list[tuple[int, int]]:
        return [(s, t) for s, t in self.arrows if s == v]

    def arrows_into(self, v: int) -> list[tuple[int, int]]:
        return [(s, t) for s, t in self.arrows if t == v]

    def sinks(self) -> list[int]:
        out = {s for s, _ in self.arrows}
        return [v for v in range(1, self.vertices + 1) if v not in out]

    def sources(self) -> list[int]:
        into = {t for _, t in self.arrows}
        return [v for v in range(1, self.vertices + 1) if v not in into]

    # --------------------------------------------------------------- forms

    def _check_dim(self, e) -> DimVector:
        e = tuple(int(x) for x in e)
        if len(e) != self.vertices:
            raise InputError("dimension vector length %d != %d" % (len(e), self.vertices))
        return e

    def euler_form(self, e, f) -> int:
        e = self._check_dim(e)
        f = self._check_dim(f)
        total = sum(a * b for a, b in zip(e, f))
        for s, t in self.arrows:
            total -= e[s - 1] * f[t - 1]
        return total

    def tits_form(self, e, f) -> int:
        """Symmetrized bilinear form <e,f> + <f,e>."""
        return self.euler_form(e, f) + self.euler_form(f, e)

    def q_norm(self, e) -> int:
        """Quadratic Tits norm (e,e) = <e,e>."""
        return self.euler_form(e, e)

    def gram_matrix(self) -> list[list[int]]:
        """Gram matrix of the symmetric form: diagonal 2, off-diagonal
        minus the number of edges between the two vertices."""
        n = self.vertices
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2
        for s, t in self.arrows:
            g[s - 1][t - 1] -= 1
            g[t - 1][s - 1] -= 1
        return g

    # --------------------------------------------------------------- roots

    def positive_roots(self, box) -> list[tuple[DimVector, str]]:
        """All nonzero e <= box with (e,e) <= 1, tagged 'real' or 'imaginary'."""
        box = self._check_dim(box)
        if any(b < 0 for b in box):
            raise InputError("box entries must be nonnegative")
        out = []
        for e in product(*[range(b + 1) for b in box]):
            if not any(e):
                continue
            q = self.q_norm(e)
            if q == 1:
                out.append((e, "real"))
            elif q <= 0:
                out.append((e, "imaginary"))
        return out

    # -------------------------------------------------------------- affine

    def type_class(self) -> str:
        """'dynkin', 'affine' or 'wild'."""
        return self._type_class

    def affine_data(self) -> AffineData | None:
        """delta and extending vertex for affine quivers, None for Dynkin,
        WildTypeError otherwise."""
        data = self._affine_data
        if isinstance(data, str):
            raise WildTypeError(data)
        return data

    # Both classifications are computed once per instance and kept in its
    # __dict__; the dataclass __eq__ and __hash__ only read the fields.
    @cached_property
    def _type_class(self) -> str:
        cls = classify_gram(self.gram_matrix())
        if cls == "positive_definite":
            return "dynkin"
        if cls == "positive_semidefinite":
            # connected PSD non-PD has a 1-dimensional radical
            rad = nullspace_fraction(self.gram_matrix())
            return "affine" if len(rad) == 1 else "wild"
        return "wild"

    @cached_property
    def _affine_data(self) -> AffineData | str | None:
        """The affine data, None for Dynkin, or the WildTypeError message."""
        cls = self.type_class()
        if cls == "dynkin":
            return None
        if cls == "wild":
            return "quiver is wild: no affine data"
        rad = nullspace_fraction(self.gram_matrix())[0]
        dens = [f.denominator for f in rad]
        lcm = 1
        for d in dens:
            lcm = lcm * d // _gcd(lcm, d)
        ints = [int(f * lcm) for f in rad]
        g = 0
        for x in ints:
            g = _gcd(g, abs(x))
        delta = tuple(x // g for x in ints)
        if delta[0] < 0 or all(x <= 0 for x in delta):
            delta = tuple(-x for x in delta)
        if any(x <= 0 for x in delta):
            return "radical vector is not sincere"
        candidates = [i + 1 for i, x in enumerate(delta) if x == 1]
        if not candidates:
            return "no vertex with delta = 1"
        ext = candidates[0]
        # removing the extending vertex must leave a Dynkin (definite) part
        rest = [v for v in range(1, self.vertices + 1) if v != ext]
        sub = [[self.gram_matrix()[i - 1][j - 1] for j in rest] for i in rest]
        if classify_gram(sub) != "positive_definite":
            return "extending vertex check failed"
        return AffineData(delta=delta, extending_vertex=ext)

    def defect(self, aff: AffineData, e) -> int:
        """<delta, e>: negative preprojective, zero regular, positive preinjective."""
        return self.euler_form(aff.delta, e)

    # ---------------------------------------------------------------- wire

    def to_json(self) -> dict:
        return {"vertices": self.vertices, "arrows": [list(a) for a in self.arrows]}

    @classmethod
    def from_json(cls, doc: dict) -> "Quiver":
        if not isinstance(doc, dict) or "vertices" not in doc or "arrows" not in doc:
            raise InputError("quiver document needs 'vertices' and 'arrows'")
        arrows = doc["arrows"]
        if not isinstance(arrows, list) or not all(
                isinstance(a, list) and len(a) == 2 and all(isinstance(x, int) for x in a)
                for a in arrows):
            raise InputError("arrows must be [source, target] integer pairs")
        return cls(doc["vertices"], tuple(tuple(a) for a in arrows))


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


# Fixed quivers used throughout the examples and the acceptance suite.

def kronecker() -> Quiver:
    return Quiver(2, ((1, 2), (1, 2)))


def a_n(n: int) -> Quiver:
    """Linearly oriented type A path 1 -> 2 -> ... -> n."""
    return Quiver(n, tuple((i, i + 1) for i in range(1, n)))


def affine_a2() -> Quiver:
    """Acyclic 3-vertex affine quiver: 1 -> 2, 2 -> 3, 1 -> 3."""
    return Quiver(3, ((1, 2), (2, 3), (1, 3)))


def positive_part(d) -> DimVector:
    return tuple(max(x, 0) for x in d)


def negative_part(d) -> DimVector:
    """[d]_- with positive entries: d = [d]_+ - [d]_-."""
    return tuple(max(-x, 0) for x in d)
