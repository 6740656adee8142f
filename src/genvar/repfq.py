"""Quiver representations over F_p or Q: Hom/Ext dimensions, sampling,
subrepresentation counting and Euler characteristics by interpolation.

The counting engine enumerates subspace tuples vertex-by-vertex in
topological order. The subspace at a vertex must contain the images of
the subspaces already chosen at arrow sources, which prunes hard; at
vertices with no outgoing arrows nothing downstream depends on the
choice, so those factors are summed in closed form (Gaussian binomials)
instead of enumerated. When the transposed representation is cheaper to
enumerate, the engine counts quotients there instead (duality).

Each subspace is built row by row in reduced echelon form, and each
row's images are merged into the states of the arrow targets once, so
every subspace below that row shares the work. All F_p arithmetic goes
through one kernel, `linalg.PackedFp`: vectors are packed into Python
ints and reduced mod p field by field. Two shortcuts apply at the last
enumerated vertex, where only the ranks of the target states matter.
Once every target state spans its fibre, the remaining rows change no
rank, and their p^(free entries) choices are counted in closed form.
At the last row, reduction against the fixed target states is linear,
so the image of the row e_lead + sum x_j e_j reduces to c + sum x_j d_j
(c, d_j the reduced matrix columns): each tail x costs one packed
combination and one rank, and no new state is built.

Euler characteristics interpolate the counts at good primes with one
integer Lagrange basis per number of nodes, checking integrality by
divisibility and the fit on every further prime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import lcm

from .errors import BudgetError, ConsistencyError, InputError
from .laurent import LaurentPoly  # noqa: F401  (re-exported convenience)
from .linalg import PackedFp, gauss_binom, rank_fraction, rank_mod_p
from .quiver import DimVector, Quiver

DEFAULT_BUDGET = 10_000_000
DEFAULT_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


@dataclass(frozen=True)
class Representation:
    quiver: Quiver
    p: int  # prime field characteristic, or 0 for the rationals
    dim: DimVector
    matrices: tuple  # per arrow: rows (length dim[target]) of tuples (length dim[source])

    def __post_init__(self):
        q = self.quiver
        d = tuple(int(x) for x in self.dim)
        if len(d) != q.vertices or any(x < 0 for x in d):
            raise InputError("bad dimension vector %r" % (self.dim,))
        if self.p < 0 or self.p == 1:
            raise InputError("field characteristic must be 0 or a prime")
        if len(self.matrices) != len(q.arrows):
            raise InputError("expected %d arrow matrices" % len(q.arrows))
        mats = []
        for (s, t), m in zip(q.arrows, self.matrices):
            rows = tuple(tuple(int(x) % self.p if self.p else int(x) for x in row)
                         for row in m)
            if len(rows) != d[t - 1] or any(len(r) != d[s - 1] for r in rows):
                raise InputError("matrix shape mismatch on arrow (%d,%d)" % (s, t))
            mats.append(rows)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "matrices", tuple(mats))

    def key(self) -> tuple:
        return (self.quiver.vertices, self.quiver.arrows, self.p, self.dim, self.matrices)

    def total_dim(self) -> int:
        return sum(self.dim)

    def to_json(self) -> dict:
        return {"dim": list(self.dim),
                "matrices": [[list(r) for r in m] for m in self.matrices]}

    @classmethod
    def from_json(cls, q: Quiver, doc: dict, p: int = 0) -> "Representation":
        if not isinstance(doc, dict) or "dim" not in doc or "matrices" not in doc:
            raise InputError("representation document needs 'dim' and 'matrices'")
        return cls(q, p, tuple(doc["dim"]), tuple(tuple(tuple(r) for r in m)
                                                  for m in doc["matrices"]))


# ------------------------------------------------------------ constructors

def zero_rep(q: Quiver, p: int = 0) -> Representation:
    return Representation(q, p, (0,) * q.vertices, tuple(() for _ in q.arrows))


def simple_rep(q: Quiver, i: int, p: int = 0) -> Representation:
    d = [0] * q.vertices
    d[i - 1] = 1
    mats = []
    for s, t in q.arrows:
        mats.append(tuple(tuple(0 for _ in range(d[s - 1])) for _ in range(d[t - 1])))
    return Representation(q, p, tuple(d), tuple(mats))


def projective_rep(q: Quiver, i: int, p: int = 0) -> Representation:
    """Indecomposable projective at vertex i: basis = paths starting at i,
    arrows act by path concatenation."""
    paths: list[tuple] = [()]  # path = tuple of arrow indices, start fixed at i
    frontier = [((), i)]
    ends = {(): i}
    while frontier:
        path, v = frontier.pop()
        for idx, (s, t) in enumerate(q.arrows):
            if s == v:
                new = path + (idx,)
                paths.append(new)
                ends[new] = t
                frontier.append((new, t))
    by_vertex: dict[int, list[tuple]] = {v: [] for v in range(1, q.vertices + 1)}
    for path in sorted(paths):
        by_vertex[ends[path]].append(path)
    d = tuple(len(by_vertex[v]) for v in range(1, q.vertices + 1))
    mats = []
    for idx, (s, t) in enumerate(q.arrows):
        src = by_vertex[s]
        tgt = by_vertex[t]
        rows = [[0] * len(src) for _ in range(len(tgt))]
        for c, path in enumerate(src):
            rows[tgt.index(path + (idx,))][c] = 1
        mats.append(tuple(tuple(r) for r in rows))
    return Representation(q, p, d, tuple(mats))


def direct_sum(a: Representation, b: Representation) -> Representation:
    if a.quiver != b.quiver or a.p != b.p:
        raise InputError("direct sum needs matching quiver and field")
    d = tuple(x + y for x, y in zip(a.dim, b.dim))
    mats = []
    for (s, t), ma, mb in zip(a.quiver.arrows, a.matrices, b.matrices):
        rs, cs = a.dim[t - 1], a.dim[s - 1]
        rows = []
        for r in range(d[t - 1]):
            row = []
            for c in range(d[s - 1]):
                if r < rs and c < cs:
                    row.append(ma[r][c])
                elif r >= rs and c >= cs:
                    row.append(mb[r - rs][c - cs])
                else:
                    row.append(0)
            rows.append(tuple(row))
        mats.append(tuple(rows))
    return Representation(a.quiver, a.p, d, tuple(mats))


def dual_rep(m: Representation) -> Representation:
    """Linear dual over the opposite quiver; subreps become quotients."""
    qop = m.quiver.opposite()
    mats = []
    for mat, (s, t) in zip(m.matrices, m.quiver.arrows):
        rows = tuple(tuple(mat[r][c] for r in range(m.dim[t - 1]))
                     for c in range(m.dim[s - 1]))
        mats.append(rows)
    return Representation(qop, m.p, m.dim, tuple(mats))


def rep_mod(m: Representation, p: int) -> Representation:
    if m.p != 0:
        raise InputError("can only reduce an integer representation")
    return Representation(m.quiver, p, m.dim, m.matrices)


def sample_representation(q: Quiver, d, p: int, rng_seed: int) -> Representation:
    """Uniformly random arrow matrices over F_p, deterministic in rng_seed."""
    d = tuple(int(x) for x in d)
    rng = random.Random(rng_seed)
    mats = []
    for s, t in q.arrows:
        mats.append(tuple(tuple(rng.randrange(p) for _ in range(d[s - 1]))
                          for _ in range(d[t - 1])))
    return Representation(q, p, d, tuple(mats))


def sample_integer_rep(q: Quiver, d, rng: random.Random,
                       lo: int = -3, hi: int = 3) -> Representation:
    """Random integer representation with entries in [lo, hi], over Q."""
    d = tuple(int(x) for x in d)
    mats = []
    for s, t in q.arrows:
        mats.append(tuple(tuple(rng.randint(lo, hi) for _ in range(d[s - 1]))
                          for _ in range(d[t - 1])))
    return Representation(q, 0, d, tuple(mats))


# ------------------------------------------------------------- hom and ext

def hom_dim(m: Representation, n: Representation) -> int:
    """Dimension of the space of intertwiners m -> n."""
    if m.quiver != n.quiver:
        raise InputError("hom_dim needs a common quiver")
    if m.p != n.p:
        raise InputError("hom_dim needs a common field")
    offs = []
    total = 0
    for v in range(m.quiver.vertices):
        offs.append(total)
        total += n.dim[v] * m.dim[v]
    if total == 0:
        return 0
    rows = []
    for (s, t), ma, na in zip(m.quiver.arrows, m.matrices, n.matrices):
        ss, tt = s - 1, t - 1
        # phi_t * M_a - N_a * phi_s = 0, one equation per (r, c)
        for r in range(n.dim[tt]):
            for c in range(m.dim[ss]):
                row = [0] * total
                for k in range(m.dim[tt]):
                    row[offs[tt] + r * m.dim[tt] + k] += ma[k][c]
                for k in range(n.dim[ss]):
                    row[offs[ss] + k * m.dim[ss] + c] -= na[r][k]
                rows.append(row)
    if not rows:
        return total
    rank = rank_mod_p(rows, m.p) if m.p else rank_fraction(rows)
    return total - rank


def ext_dim(m: Representation, n: Representation) -> int:
    """dim Ext^1 = hom_dim - <dim m, dim n>; nonnegative for hereditary
    path algebras, so a negative value is a bug."""
    e = hom_dim(m, n) - m.quiver.euler_form(m.dim, n.dim)
    if e < 0:
        raise ConsistencyError("negative ext dimension computed")
    return e


# -------------------------------------------------------- subrep counting

_COUNT_CACHE: dict[tuple, tuple[dict[DimVector, int], int]] = {}


def count_all_subreps(m: Representation, budget: int = DEFAULT_BUDGET) -> dict[DimVector, int]:
    """Number of subrepresentations of every dimension vector at once.

    A cached module keeps the number of subspaces its count visited, so a
    cache hit raises BudgetError exactly when a cold count would."""
    if m.p == 0:
        raise InputError("subrep counting needs a finite field")
    key = m.key()
    hit = _COUNT_CACHE.get(key)
    if hit is None:
        dual = dual_rep(m)
        if _enum_cost(dual) < _enum_cost(m):
            dual_counts, visits = _count_engine(dual, budget)
            counts = {tuple(a - b for a, b in zip(m.dim, e)): c
                      for e, c in dual_counts.items()}
        else:
            counts, visits = _count_engine(m, budget)
        hit = _COUNT_CACHE[key] = (counts, visits)
    if hit[1] > budget:
        raise BudgetError("subspace enumeration budget exceeded")
    return hit[0]


def count_subreps(m: Representation, e, budget: int = DEFAULT_BUDGET) -> int:
    """Number of subspace tuples of dimension e stable under all arrows."""
    e = tuple(int(x) for x in e)
    if len(e) != m.quiver.vertices or any(x < 0 or x > dv for x, dv in zip(e, m.dim)):
        raise InputError("e must satisfy 0 <= e <= dim")
    return count_all_subreps(m, budget).get(e, 0)


def _enum_cost(m: Representation) -> int:
    """Upper estimate of enumerated subspace tuples: product over vertices
    that have outgoing arrows of the total subspace counts."""
    cost = 1
    has_out = {s for s, _ in m.quiver.arrows}
    for v in range(1, m.quiver.vertices + 1):
        if v in has_out:
            cost *= sum(gauss_binom(m.dim[v - 1], k, m.p) for k in range(m.dim[v - 1] + 1))
    return cost


def _count_engine(m: Representation, budget: int) -> tuple[dict[DimVector, int], int]:
    """Stable subspace tuples of m by dimension vector, and the number of
    subspaces visited: one per subspace chosen at each enumerated vertex.
    BudgetError as soon as that number exceeds `budget`."""
    q, p = m.quiver, m.p
    kern = PackedFp(p, max(m.dim))
    red, residue, extend, rank, w = kern.reduce, kern.residue, kern.extend, kern.rank, kern.w
    order = q.topological_order()
    has_out = {s for s, _ in q.arrows}
    enum_verts = [v for v in order if v in has_out]
    sink_verts = [v for v in order if v not in has_out]
    # per vertex: (target, packed columns of each arrow from the vertex to it)
    outs: dict[int, list] = {v: [] for v in enum_verts}
    for (s, t), mat in zip(q.arrows, m.matrices):
        cols = [kern.pack([row[j] for row in mat]) for j in range(m.dim[s - 1])]
        group = next((g for g in outs[s] if g[0] == t), None)
        if group is None:
            outs[s].append((t, [cols]))
        else:
            group[1].append(cols)
    hist: dict[tuple, int] = {}
    visits = 0

    def tick(n: int) -> None:
        nonlocal visits
        visits += n
        if visits > budget:
            raise BudgetError("subspace enumeration budget exceeded")

    def vertex(idx: int, dims: tuple, states: tuple) -> None:
        """Every subspace at enum_verts[idx] containing its forced image,
        built row by row in reduced echelon form over the free coordinates;
        each row's images are merged into the target states once and
        shared by everything below it."""
        v = enum_verts[idx]
        n = m.dim[v - 1]
        forced = states[v - 1]
        targets = outs[v]
        top = [states[t - 1] for t, _ in targets]
        for (off, r) in forced:
            rc = kern.coords(r, n)
            for ti, (_, arrows) in enumerate(targets):
                for cols in arrows:
                    top[ti] = extend(top[ti], red(sum(x * c for x, c in zip(rc, cols))))
        pivots = {n - 1 - off // w for off, _ in forced}
        free = [j for j in range(n) if j not in pivots]
        last = idx == len(enum_verts) - 1
        full = [m.dim[t - 1] for t, _ in targets]
        if last:
            tpos = {t: ti for ti, (t, _) in enumerate(targets)}
            fixed = [len(states[u - 1]) for u in sink_verts]

        def record(dim_v: int, ranks, count: int) -> None:
            key = (dims + (dim_v,),
                   tuple(ranks[tpos[u]] if u in tpos else r for u, r in zip(sink_verts, fixed)))
            hist[key] = hist.get(key, 0) + count

        def last_row(dim_v: int, lead: int, tails: list, tstates: list) -> None:
            """The last echelon row at the last enumerated vertex. Reduction
            against a fixed echelon basis is linear, so each target's image
            of the row lead + sum x_j e_j, reduced against the state, is
            c + sum x_j d_j with c, d_j the reduced columns; only the rank
            of those images is taken for each tail x."""
            pairs = []  # (reduced lead column, reduced tail columns), grouped by target
            spans = []
            for b, (_, arrows) in zip(tstates, targets):
                spans.append((len(pairs), len(pairs) + len(arrows)))
                pairs.extend((residue(b, cols[lead]), [residue(b, cols[j]) for j in tails])
                             for cols in arrows)
            leaves = p ** len(tails)
            tick(leaves)
            acc: dict[tuple, int] = {}
            if not any(any(ds) for _, ds in pairs):
                acc[tuple(rank([c for c, _ in pairs[lo:hi]]) for lo, hi in spans)] = leaves
            else:
                steps = [[x * ds[-1] for x in range(p)] for _, ds in pairs]
                one = len(spans) == 1
                for head in product(range(p), repeat=len(tails) - 1):
                    bases = [red(c + sum(x * d for x, d in zip(head, ds))) for c, ds in pairs]
                    for step in zip(*steps):
                        vals = [red(b + s) for b, s in zip(bases, step)]
                        key = (rank(vals),) if one else tuple(
                            [rank(vals[lo:hi]) for lo, hi in spans])
                        acc[key] = acc.get(key, 0) + 1
            for ranks, count in acc.items():
                record(dim_v, [len(b) + r for b, r in zip(tstates, ranks)], count)

        def walk(rows: list, i: int, tstates: list) -> None:
            """Choose rows[i:] (lead coordinate, free tail coordinates) on
            top of the target states reached by rows[:i]."""
            dim_v = len(forced) + len(rows)
            if last and (i == len(rows) or all(len(b) == d for b, d in zip(tstates, full))):
                # nothing below changes a rank: count the leaves in closed form
                leaves = p ** sum(len(tails) for _, tails in rows[i:])
                tick(leaves)
                record(dim_v, [len(b) for b in tstates], leaves)
                return
            if i == len(rows):
                tick(1)
                nxt = list(states)
                for (t, _), b in zip(targets, tstates):
                    nxt[t - 1] = b
                vertex(idx + 1, dims + (dim_v,), tuple(nxt))
                return
            lead, tails = rows[i]
            if last and i == len(rows) - 1:
                last_row(dim_v, lead, tails, tstates)
                return
            for vals in product(range(p), repeat=len(tails)):
                new = []
                for b, (_, arrows) in zip(tstates, targets):
                    for cols in arrows:
                        b = extend(b, red(cols[lead] + sum(
                            x * cols[j] for x, j in zip(vals, tails))))
                    new.append(b)
                walk(rows, i + 1, new)

        for k in range(len(free) + 1):
            for leads in combinations(range(len(free)), k):
                walk([(free[a], [free[b] for b in range(a + 1, len(free)) if b not in leads])
                      for a in leads], 0, top)

    if enum_verts:
        vertex(0, (), tuple(() for _ in range(q.vertices)))
    else:
        hist[((), tuple(0 for _ in sink_verts))] = 1
    return _hist_to_counts(m, enum_verts, sink_verts, hist), visits


def _hist_to_counts(m: Representation, enum_verts, sink_verts,
                    hist: dict) -> dict[DimVector, int]:
    """Expand a histogram keyed by (enumerated dims, forced sink dims) into
    per-dimension-vector counts: each sink contributes a Gaussian-binomial
    factor counting subspaces between the forced image and the full fibre."""
    q, p = m.quiver, m.p
    counts: dict[DimVector, int] = {}
    sink_ranges = [range(m.dim[w - 1] + 1) for w in sink_verts]
    for (dims, fs), mult in hist.items():
        for sink_dims in product(*sink_ranges):
            factor = mult
            for w, ew, fw in zip(sink_verts, sink_dims, fs):
                factor *= gauss_binom(m.dim[w - 1] - fw, ew - fw, p)
                if not factor:
                    break
            if not factor:
                continue
            e = [0] * q.vertices
            for v, ev in zip(enum_verts, dims):
                e[v - 1] = ev
            for w, ew in zip(sink_verts, sink_dims):
                e[w - 1] = ew
            e = tuple(e)
            counts[e] = counts.get(e, 0) + factor
    return counts


# --------------------------------------------- Euler characteristic by chi

def good_primes(m_int: Representation, pool, count: int,
                guards: tuple = ()) -> list[int]:
    """First `count` primes from the pool whose reduction preserves the
    rational self-Hom dimension of m_int and every Hom dimension against
    the guard representations; BudgetError when the pool is too small.

    The guard comparison matters for non-rigid modules: a prime can keep
    End(m) intact while sliding a summand's isomorphism class into a
    special position mod p, which changes subrepresentation counts and
    would poison the interpolation."""
    target = hom_dim(m_int, m_int)
    guard_targets = [(g, hom_dim(m_int, g), hom_dim(g, m_int)) for g in guards]
    good = []
    for p in pool:
        mp = rep_mod(m_int, p)
        if hom_dim(mp, mp) != target:
            continue
        ok = True
        for g, to_g, from_g in guard_targets:
            gp = rep_mod(g, p)
            if hom_dim(mp, gp) != to_g or hom_dim(gp, mp) != from_g:
                ok = False
                break
        if not ok:
            continue
        good.append(p)
        if len(good) == count:
            return good
    raise BudgetError("prime pool has only %d usable primes, need %d"
                      % (len(good), count))


def _lagrange_basis(xs: list[int]) -> tuple[int, list[list[int]]]:
    """Integer Lagrange basis through the nodes xs: (den, rows) with
    den * L_i(x) = sum_k rows[i][k] x^k, den the lcm of the node products."""
    nums, dens = [], []
    for i, xi in enumerate(xs):
        poly, d = [1], 1
        for j, xj in enumerate(xs):
            if j != i:
                poly = [a - xj * b for a, b in zip([0] + poly, poly + [0])]
                d *= xi - xj
        nums.append(poly)
        dens.append(d)
    den = lcm(*dens)
    return den, [[c * (den // d) for c in poly] for poly, d in zip(nums, dens)]


def _interpolate(points: list[tuple[int, int]], degree: int, bases: dict) -> list[int]:
    """Integer coefficients (ascending degree) of the polynomial of degree
    <= `degree` through the first degree + 1 points, checked on the rest.
    `bases` memoises the Lagrange basis per number of nodes, so callers
    sharing it pass points on the same nodes."""
    n = degree + 1
    if n not in bases:
        bases[n] = _lagrange_basis([x for x, _ in points[:n]])
    den, rows = bases[n]
    num = [0] * n
    for (_, y), row in zip(points, rows):
        if y:
            num = [a + y * b for a, b in zip(num, row)]
    if any(c % den for c in num):
        raise ConsistencyError("interpolated counting polynomial is not integral")
    ints = [c // den for c in num]
    for x, y in points[n:]:
        if _poly_eval(ints, x) != y:
            raise ConsistencyError("counting polynomial fails the extra-prime check")
    return ints


def counting_polynomial(m_int: Representation, e, pool=DEFAULT_PRIMES,
                        budget: int = DEFAULT_BUDGET,
                        guards: tuple = ()) -> list[int]:
    """Integer coefficients of the polynomial counting e-dimensional
    subrepresentations of m_int over F_q, fitted through D+1 primes and
    verified on every further computed prime."""
    e = tuple(int(x) for x in e)
    d = m_int.dim
    if any(x < 0 or x > dv for x, dv in zip(e, d)):
        raise InputError("e must satisfy 0 <= e <= dim")
    degree = sum(x * (dv - x) for x, dv in zip(e, d))
    primes = good_primes(m_int, pool, degree + 2, guards)
    pts = [(p, count_all_subreps(rep_mod(m_int, p), budget).get(e, 0)) for p in primes]
    ints = _interpolate(pts, degree, {})
    while len(ints) > 1 and ints[-1] == 0:
        ints.pop()
    return ints


def _poly_eval(coeffs: list[int], x: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def euler_char_grassmannian(q: Quiver, m_int: Representation, e,
                            pool=DEFAULT_PRIMES, budget: int = DEFAULT_BUDGET) -> int:
    """chi of the submodule grassmannian: counting polynomial at q = 1."""
    if m_int.quiver != q:
        raise InputError("representation does not live on the given quiver")
    if m_int.p != 0:
        raise InputError("need an integer-matrix representation")
    return _poly_eval(counting_polynomial(m_int, e, pool, budget), 1)


def chi_all(m_int: Representation, pool=DEFAULT_PRIMES,
            budget: int = DEFAULT_BUDGET,
            guards: tuple = ()) -> dict[DimVector, int]:
    """chi(Gr_e) for every 0 <= e <= dim at once, sharing prime sweeps."""
    d = m_int.dim
    max_degree = max((sum(x * (dv - x) for x, dv in zip(e, d))
                      for e in product(*[range(x + 1) for x in d])), default=0)
    primes = good_primes(m_int, pool, max_degree + 2, guards)
    per_prime = {p: count_all_subreps(rep_mod(m_int, p), budget) for p in primes}
    bases: dict = {}
    out: dict[DimVector, int] = {}
    for e in product(*[range(x + 1) for x in d]):
        degree = sum(x * (dv - x) for x, dv in zip(e, d))
        pts = [(p, per_prime[p].get(e, 0)) for p in primes]
        out[e] = _poly_eval(_interpolate(pts, degree, bases), 1)
    return out
