"""Acyclic quivers, Euler/Tits forms, positive roots and affine data.

Vertices are numbered 1..n; dimension vectors are integer tuples whose
slot i-1 belongs to vertex i. The Euler form is
    <e, f> = sum_i e_i f_i - sum_{arrows s->t} e_s f_t
and the (symmetric) Tits form is its symmetrization. Type recognition
(Dynkin / affine / wild) is Vinberg's trichotomy for the Gram matrix of
the Tits form, read from its radical and one exact solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import product

from .errors import InputError
from .linalg import kernel_basis, solve

DimVector = tuple[int, ...]


class WildTypeError(InputError):
    """The quiver is neither Dynkin nor affine."""


@dataclass(frozen=True)
class AffineData:
    delta: DimVector


@dataclass(frozen=True)
class Quiver:
    vertices: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.vertices
        if type(n) is not int or n <= 0:
            raise InputError("vertex count must be a positive integer")
        if not isinstance(self.arrows, (tuple, list)) or not all(
                isinstance(a, (tuple, list)) and len(a) == 2
                and all(type(x) is int for x in a) for a in self.arrows):
            raise InputError("arrows must be a sequence of (source, target) integer pairs")
        object.__setattr__(self, "arrows", tuple((s, t) for s, t in self.arrows))
        for s, t in self.arrows:
            if not (1 <= s <= n and 1 <= t <= n):
                raise InputError("arrow (%d,%d) out of range" % (s, t))
            if s == t:
                raise InputError("loops are not allowed")
        # n - 2 or fewer edges leave n vertices disconnected: reject before allocating
        if n > len(self.arrows) + 1:
            raise InputError("underlying graph must be connected")
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
        """Vertices sorted sources-first, always taking the smallest vertex
        whose in-arrows are all used up; InputError on an oriented cycle."""
        return list(self._topological_order)

    @cached_property
    def _topological_order(self) -> tuple[int, ...]:
        # Kahn's algorithm with a min-heap of ready vertices: O((V+E) log V).
        n = self.vertices
        indeg = [0] * (n + 1)
        succ: list[list[int]] = [[] for _ in range(n + 1)]
        for s, t in self.arrows:
            indeg[t] += 1
            succ[s].append(t)
        ready = [v for v in range(1, n + 1) if indeg[v] == 0]
        order = []
        while ready:
            v = heappop(ready)
            order.append(v)
            for t in succ[v]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    heappush(ready, t)
        if len(order) != n:
            raise InputError("quiver has an oriented cycle")
        return tuple(order)

    def opposite(self) -> "Quiver":
        return self._opposite

    @cached_property
    def _opposite(self) -> "Quiver":
        return Quiver(self.vertices, tuple((t, s) for s, t in self.arrows))

    # --------------------------------------------------------------- forms

    def check_dim(self, e) -> DimVector:
        """e as a tuple; InputError unless it holds one int (no bool) per vertex."""
        e = tuple(e)
        if len(e) != self.vertices:
            raise InputError("dimension vector length %d != %d" % (len(e), self.vertices))
        if any(type(x) is not int for x in e):
            raise InputError("dimension vector %r must hold integers" % (e,))
        return e

    def euler_form(self, e, f) -> int:
        e = self.check_dim(e)
        f = self.check_dim(f)
        total = sum(a * b for a, b in zip(e, f))
        for s, t in self.arrows:
            total -= e[s - 1] * f[t - 1]
        return total

    def euler_coefficients(self, d) -> tuple[list[int], list[int]]:
        """Vectors l and r with <d, f> = sum_i l_i f_i and
        <f, d> = sum_i r_i f_i for every f."""
        d = self.check_dim(d)
        left, right = list(d), list(d)
        for s, t in self.arrows:
            left[t - 1] -= d[s - 1]
            right[s - 1] -= d[t - 1]
        return left, right

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
        box = self.check_dim(box)
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
        return self._classification[0]

    def affine_data(self) -> AffineData | None:
        """delta for affine quivers, None for Dynkin, WildTypeError otherwise."""
        cls, data = self._classification
        if cls == "wild":
            raise WildTypeError("quiver is wild: no affine data")
        return data

    # Vinberg's trichotomy for the Gram matrix G of a connected quiver
    # (Kac 1990, Thm 4.3): in finite type G is invertible and G v >= 0
    # forces v > 0 or v = 0, so the solution of G u = (1, ..., 1) is
    # positive; in affine type the radical of G is one line spanned by a
    # positive vector, delta; every other G is wild. Computed once per
    # instance, like the topological order, and kept in its __dict__; the
    # dataclass __eq__ and __hash__ only read the fields.
    @cached_property
    def _classification(self) -> tuple[str, AffineData | None]:
        g = self.gram_matrix()
        radical = kernel_basis(g)
        if not radical:
            u = solve(g, (1,) * self.vertices)
            return ("dynkin" if all(x > 0 for x in u) else "wild"), None
        if len(radical) == 1 and all(x > 0 for x in radical[0]):
            return "affine", AffineData(delta=tuple(radical[0]))
        return "wild", None

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
        if type(doc["vertices"]) is not int:
            raise InputError("vertex count must be a positive integer")
        if not isinstance(arrows, list) or not all(isinstance(a, list) for a in arrows):
            raise InputError("arrows must be [source, target] integer pairs")
        return cls(doc["vertices"], tuple(tuple(a) for a in arrows))


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
