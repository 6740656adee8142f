"""Seed mutation: clusters, cluster variables, cluster monomials.

A seed is a skew-symmetric exchange matrix plus a cluster of Laurent
polynomials written in the initial variables. The exchange step divides
exactly in the Laurent ring; an inexact division is an implementation
bug and raises ConsistencyError. A mutation is a function of its seed and
vertex, so `mutate` keeps every result for the life of the process; a
table's walks still charge each step against its budget. Mutation is an
involution, so the exchange-graph BFS does not run the step that undoes
the one a seed was reached by (its result is the parent, already seen);
it charges that step all the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import islice
from math import inf, prod
from operator import mul

from .errors import DEFAULT_BUDGET, BudgetError, ConsistencyError, InputError, _check_limits
from .laurent import LaurentPoly
from .quiver import DimVector, Quiver


@dataclass(frozen=True)
class Seed:
    b: tuple[tuple[int, ...], ...]
    cluster: tuple[LaurentPoly, ...]

    def key(self) -> tuple:
        """Seeds are identified by the multiset of cluster polynomials."""
        return tuple(sorted(x.key() for x in self.cluster))


def initial_seed(q: Quiver) -> Seed:
    n = q.vertices
    b = [[0] * n for _ in range(n)]
    for s, t in q.arrows:
        b[s - 1][t - 1] += 1
        b[t - 1][s - 1] -= 1
    cluster = tuple(LaurentPoly.variable(n, i) for i in range(1, n + 1))
    return Seed(tuple(tuple(r) for r in b), cluster)


@lru_cache(maxsize=None, typed=True)
def mutate(seed: Seed, k: int) -> Seed:
    """Mutate at vertex k (1-based int). Memoized per (seed, k), unbounded
    like the module character cache; `mutate.cache_info()` counts
    hits. Typed keys keep 1.0 and True from hitting the entry of 1."""
    n = len(seed.b)
    if type(k) is not int or not 1 <= k <= n:
        raise InputError("mutation vertex %r out of range" % (k,))
    kk = k - 1
    nv = seed.cluster[0].nvars
    col = [r[kk] for r in seed.b]
    m_plus = _product([x ** b for x, b in zip(seed.cluster, col) if b > 0], nv)
    m_minus = _product([x ** -b for x, b in zip(seed.cluster, col) if b < 0], nv)
    new_var = (m_plus + m_minus).divide_exact(seed.cluster[kk])
    cluster = tuple(new_var if i == kk else seed.cluster[i] for i in range(n))
    rk = seed.b[kk]
    b = tuple(tuple(-x if kk in (i, j) else x + (abs(r[kk]) * rk[j] + r[kk] * abs(rk[j])) // 2
                    for j, x in enumerate(r)) for i, r in enumerate(seed.b))
    for i in range(n):
        for j in range(n):
            if b[i][j] != -b[j][i]:
                raise ConsistencyError("mutated matrix lost skew-symmetry")
    return Seed(b, cluster)


def _product(factors: list[LaurentPoly], nvars: int) -> LaurentPoly:
    """The product of `factors` from the first one on, or 1 if there are none."""
    return reduce(mul, factors) if factors else LaurentPoly.one(nvars)


@dataclass
class ClusterVariableTable:
    """Cluster variables by denominator vector with the mutation word that
    first reached each, and the clusters met, from the initial seed on.
    `step` mutates, charging `_exchange_terms` before the work runs
    (`charge` alone charges a step without running it): BudgetError once
    `spent` would pass `budget`."""
    quiver: Quiver
    budget: float = inf
    spent: int = 0
    entries: dict[DimVector, LaurentPoly] = field(default_factory=dict)
    provenance: dict[DimVector, tuple[int, ...]] = field(default_factory=dict)
    clusters: set[frozenset[DimVector]] = field(default_factory=set)

    def __post_init__(self) -> None:
        s0 = initial_seed(self.quiver)
        for x in s0.cluster:
            self.add_variable(x, ())
        self.add_cluster(s0)

    def add_variable(self, x: LaurentPoly, word: tuple[int, ...]) -> None:
        den = x.denominator_vector()
        old = self.entries.get(den)
        if old is None:
            self.entries[den] = x
            self.provenance[den] = word
        elif old != x:
            raise ConsistencyError(
                "two distinct cluster variables share denominator vector %r" % (den,))

    def add_cluster(self, seed: Seed) -> None:
        self.clusters.add(frozenset(x.denominator_vector() for x in seed.cluster))

    def charge(self, seed: Seed, k: int) -> None:
        self.spent += _exchange_terms(seed, k)
        if self.spent > self.budget:
            raise BudgetError("cluster-variable enumeration exceeded budget %d" % self.budget)

    def step(self, seed: Seed, k: int) -> Seed:
        self.charge(seed, k)
        return mutate(seed, k)


def enumerate_cluster_variables(q: Quiver, depth: int, sweeps: int = 0,
                                budget: int = DEFAULT_BUDGET) -> ClusterVariableTable:
    """BFS over seeds up to `depth` mutations, deduplicated by cluster
    multiset; terminates early when the exchange graph closes (finite
    type). `sweeps` additionally runs that many directed sink-sweep and
    source-sweep rounds to extend the table along the preprojective and
    preinjective chains without exploring the whole exchange graph.

    Before each mutation its exchange work (`_exchange_terms`) counts
    against `budget`, cached in `mutate` or not; BudgetError past it, so
    no step starts whose work would pass the budget. The BFS skips the
    undo step of each seed, the mutation at the vertex it was reached by,
    whose result is its parent, but still charges that step's work, so
    `spent` and every budget verdict are those of a BFS that runs it.
    InputError unless `depth` and `sweeps` are nonnegative ints and
    `budget` is an int >= 0.
    """
    if any(type(x) is not int or x < 0 for x in (depth, sweeps)):
        raise InputError("depth and sweeps must be nonnegative integers")
    _check_limits(budget)
    table = ClusterVariableTable(quiver=q, budget=budget)
    for walk, bound in [(_layers(table), depth), (_sweeps(table, "sink"), sweeps),
                        (_sweeps(table, "source"), sweeps)]:
        for _ in islice(walk, bound):
            pass
    return table


def _layers(table: ClusterVariableTable):
    """Breadth-first layers of the exchange graph from the initial seed,
    deduplicated by cluster multiset and recorded in `table`; yields after
    each layer and ends only when the graph closes (finite type)."""
    s0 = initial_seed(table.quiver)
    seen = {s0.key()}
    frontier = [(s0, ())]
    while True:
        nxt = []
        for seed, word in frontier:
            for k in range(1, len(seed.b) + 1):
                if word and k == word[-1]:  # mu_k mu_k = id: the parent, seen
                    table.charge(seed, k)
                    continue
                new = table.step(seed, k)
                key = new.key()
                if key in seen:
                    continue
                seen.add(key)
                new_word = word + (k,)
                table.add_variable(new.cluster[k - 1], new_word)
                table.add_cluster(new)
                nxt.append((new, new_word))
        if not nxt:
            return
        frontier = nxt
        yield


def _sweeps(table: ClusterVariableTable, direction: str):
    """Endless sink or source sweeps from the initial seed, each mutating
    at every current sink or source (`direction`), recorded in `table`;
    yields after each sweep. Sink sweeps run down the preprojective
    chain, source sweeps down the preinjective one."""
    seed, word = initial_seed(table.quiver), ()
    while True:
        for k in _boundary_vertices(seed, direction):
            seed = table.step(seed, k)
            word = word + (k,)
            table.add_variable(seed.cluster[k - 1], word)
            table.add_cluster(seed)
        yield


def _exchange_terms(seed: Seed, k: int) -> int:
    """The most terms the two exchange monomials at k can have: for each
    sign, the lattice points of the box spanned by the exponents of
    prod x_i^|b_ik|, from the exponent ranges of the x_i."""
    total = 0
    for sign in (1, -1):
        width = [0] * len(seed.b)
        for x, row in zip(seed.cluster, seed.b):
            b = sign * row[k - 1]
            if b > 0:
                for j, exps in enumerate(zip(*x.terms)):
                    width[j] += b * (max(exps) - min(exps))
        total += prod(w + 1 for w in width)
    return total


def _boundary_vertices(seed: Seed, direction: str) -> list[int]:
    """Current sinks (no arrow out, b[k][j] <= 0) or sources of the seed quiver."""
    sign = 1 if direction == "source" else -1
    return [k + 1 for k, row in enumerate(seed.b) if all(sign * v >= 0 for v in row)]


def cluster_monomials(table: ClusterVariableTable, q: Quiver, max_den,
                      min_den=None, budget: int = DEFAULT_BUDGET) -> list[LaurentPoly]:
    """All monomials in the variables of a single recorded cluster whose
    denominator vector lies in the box min_den <= den <= max_den
    (componentwise; min_den defaults to -max_den). Deduplicated, sorted.

    The box keeps the answer finite: initial variables have nonpositive
    denominator vectors, so an upper bound alone admits arbitrary powers.
    Exponents are capped at sum(|bounds|) + 2, generous for every cluster
    whose denominator vectors are linearly independent.

    Each cluster's exponent vectors are walked depth-first, one variable at
    a time. A variable only takes the exponents m for which, in every
    coordinate, the partial den-sum plus m times its denominator can still
    reach the box once the remaining variables add anything between their
    least and greatest contribution with exponents in [0, cap]. The leaves
    are then exactly the exponent vectors whose den-sum lies in the box.
    Every node visited (one exponent chosen for one variable) counts
    against `budget`; BudgetError past it. Each power x ** m is computed
    once per call. InputError unless q is the table's quiver.
    """
    _check_limits(budget)
    if q != table.quiver:
        raise InputError("quiver is not the quiver of the table")
    max_den = q.check_dim(max_den)
    min_den = tuple(-x for x in max_den) if min_den is None else q.check_dim(min_den)
    n = q.vertices
    cap = sum(abs(a) + abs(b) for a, b in zip(min_den, max_den)) + 2
    found: dict[tuple, LaurentPoly] = {}
    one = LaurentPoly.one(n)
    if all(a <= 0 <= b for a, b in zip(min_den, max_den)):
        found[one.key()] = one
    powers: dict[tuple[DimVector, int], LaurentPoly] = {}
    visited = 0

    def walk(dens, reach, i, den_sum, mono):
        nonlocal visited
        if i == len(dens):
            if mono is not one:
                if mono.denominator_vector() != den_sum:
                    raise ConsistencyError(
                        "cluster monomial denominator is not additive")
                found[mono.key()] = mono
            return
        d = dens[i]
        lo_rest, hi_rest = reach[i + 1]
        lo_m, hi_m = 0, cap
        for j in range(n):
            # m * d[j] must lie in [a, b] for coordinate j to stay reachable
            a = min_den[j] - den_sum[j] - hi_rest[j]
            b = max_den[j] - den_sum[j] - lo_rest[j]
            if d[j] > 0:
                lo_m, hi_m = max(lo_m, -(-a // d[j])), min(hi_m, b // d[j])
            elif d[j] < 0:
                lo_m, hi_m = max(lo_m, -(-b // d[j])), min(hi_m, a // d[j])
            elif a > 0 or b < 0:
                return
        for m in range(lo_m, hi_m + 1):
            visited += 1
            if visited > budget:
                raise BudgetError("cluster monomial enumeration budget exceeded")
            if m == 0:
                walk(dens, reach, i + 1, den_sum, mono)
                continue
            x = powers.get((d, m))
            if x is None:
                x = powers[d, m] = table.entries[d] ** m
            walk(dens, reach, i + 1, tuple(s + m * e for s, e in zip(den_sum, d)),
                 x if mono is one else mono * x)

    for cluster in sorted(table.clusters, key=sorted):
        dens = sorted(cluster)
        # reach[i]: least and greatest amounts variables i.. add per coordinate
        reach = [([0] * n, [0] * n)]
        for d in reversed(dens):
            lo, hi = reach[0]
            reach.insert(0, ([l + cap * min(e, 0) for l, e in zip(lo, d)],
                             [h + cap * max(e, 0) for h, e in zip(hi, d)]))
        walk(dens, reach, 0, (0,) * n, one)
    return [found[k] for k in sorted(found)]


def laurent_check(table: ClusterVariableTable) -> dict:
    """Summary of the table: every stored variable is an integer Laurent
    polynomial by construction; report sizes and coefficient positivity."""
    max_abs = 0
    max_terms = 0
    all_positive = True
    for x in table.entries.values():
        max_terms = max(max_terms, len(x.terms))
        for c in x.terms.values():
            max_abs = max(max_abs, abs(c))
            if c <= 0:
                all_positive = False
    return {"variables": len(table.entries),
            "clusters": len(table.clusters),
            "max_abs_coefficient": max_abs,
            "max_terms": max_terms,
            "all_coefficients_positive": all_positive}
