"""Subrepresentation counting over F_p and Euler characteristics of
quiver grassmannians by interpolation over good primes.

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
through one kernel per call, `linalg.PackedFp`, which holds two fibres
side by side: vectors are packed into Python ints and reduced mod p
field by field. At the last enumerated vertex only the ranks of
the target states matter: U = F + W (F forced, W on the N free
coordinates) adds dim(A(W) + B(W)) at a target reached by arrows A, B.
With one arrow that is dim W - dim(W meet ker A), so the vertex is
counted whole from rank A (`linalg.kernel_meet_counts`). With two into
one target, the W of dimension 0, 1, N - 1 and N are counted from the
p + 1 ranks of the pencil xA + yB and three plain ranks
(`linalg.pencil_layer_counts`), and the layers between are walked. In a
walk, once every target state spans its fibre, the remaining rows'
p^(free entries) choices are counted in closed form. At the last row
the tails x are counted by the rank of their images (linear in x): by
Moebius inversion on the subspace lattice (`linalg.image_rank_counts`),
or by one rank per x where that is cheaper. Rows are walked fewer tails
first, so the closed form gets the row with the most tails.

Each call plans once: per enumerated vertex its targets, the packed
columns of the arrows into each and their full dimensions, and where
each sink sits among the last vertex's targets. Stable tuples land in a
histogram keyed by the enumerated dimensions and the dimensions forced
at the sinks; the rows of a last vertex counted whole, from one arrow
or from the pencil, go straight in. The histogram becomes counts by
each sink's Gaussian-binomial factor, read from a table cached per
(sink dims, forced sink dims, p) (`_sink_table`).

Euler characteristics interpolate the counts at good primes with one
integer Lagrange basis per tuple of nodes (`interpolate`), checking
integrality by divisibility and the fit on every further prime. A prime
is good when reduction keeps the Hom dimensions of the module (and of
its guards). Each Hom system is eliminated once over Q: the last Bareiss
pivot d is a nonzero minor of full rank, so every prime not dividing d
keeps that Hom dimension, and only the primes dividing d are decided
over F_p. Should a count still jump at one good prime, a second sweep of
fresh good primes must fit on its own and agree with the first at all
primes but one; a budget that cannot pay for it raises BudgetError.

A thin module (every d_v <= 1) is decided over Q instead: each U_v is 0
or M_v, so the only candidate of dimension e is the coordinate tuple on
supp(e), stable unless an arrow s -> t with a nonzero scalar has e_s = 1
and e_t = 0. It consults no prime pool (a one-prime pool answers) and is
charged one visit per e against the budget.

Representations, sampling, Hom and Ext live in `reps`; the work budget,
the prime pool and their checks in `errors`.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product
from math import lcm, prod
from operator import mul

from .errors import (DEFAULT_BUDGET, DEFAULT_PRIMES, BudgetError, ConsistencyError, InputError,
                     _check_limits, _check_pool)
from .linalg import (PackedFp, gauss_binom, image_rank_counts, kernel_meet_counts, lattice_size,
                     pencil_layer_counts)
from .quiver import DimVector
# direct_sum and zero_rep stay importable here for benchmark/workloads.py
from .reps import (Representation, _hom_minor, direct_sum, dual_rep, hom_dim,  # noqa: F401
                   rep_mod, thin_scalars, zero_rep)


def _check_guards(m: Representation, guards) -> tuple:
    """InputError unless m is an integer module and `guards` a list or tuple
    of integer representations; returns the guards as a tuple (a cache key)."""
    if m.p or not isinstance(guards, (list, tuple)) or not all(
            isinstance(g, Representation) and g.p == 0 for g in guards):
        raise InputError("module and guards must be integer, the guards a list or tuple")
    return tuple(guards)


# -------------------------------------------------------- subrep counting

def count_all_subreps(m: Representation, budget: int = DEFAULT_BUDGET) -> dict[DimVector, int]:
    """Number of subrepresentations of every dimension vector at once, counted
    on m or its dual, whichever enumerates fewer subspace tuples. Not
    memoised: the character memo `ccmap._cc_of_module` answers repeats."""
    if m.p == 0:
        raise InputError("subrep counting needs a finite field")
    _check_limits(budget)
    # subspace tuples at the arrow sources, and at the targets, which the dual enumerates
    cost = [lattice_size(tuple(m.dim[v - 1] for v in {a[i] for a in m.quiver.arrows}), m.p)
            for i in (0, 1)]
    if cost[1] < cost[0]:
        dual_counts, _visits = _count_engine(dual_rep(m), budget)
        return {tuple(a - b for a, b in zip(m.dim, e)): c for e, c in dual_counts.items()}
    return _count_engine(m, budget)[0]


def _count_engine(m: Representation, budget: int) -> tuple[dict[DimVector, int], int]:
    """Stable subspace tuples of m by dimension vector, and the number of
    subspaces visited: one per subspace chosen at each enumerated vertex.
    BudgetError as soon as that number exceeds `budget`."""
    q, p = m.quiver, m.p
    kern = PackedFp(p, 2 * max(m.dim))  # two fibres side by side, for the pencil
    red, residue, extend, rank, w = kern.reduce, kern.residue, kern.extend, kern.rank, kern.w
    order = q.topological_order()
    has_out = {s for s, _ in q.arrows}
    enum_verts = [v for v in order if v in has_out]
    sink_verts = [v for v in order if v not in has_out]
    # per vertex: target -> packed columns of each arrow from the vertex to it
    outs = {v: {} for v in enum_verts}
    for (s, t), mat in zip(q.arrows, m.matrices):
        outs[s].setdefault(t, []).append(
            [kern.pack([row[j] for row in mat]) for j in range(m.dim[s - 1])])
    # the plan, built once: per enumerated vertex its index, dimension,
    # targets (each with its arrow columns) and their full dimensions
    plan = [(v - 1, m.dim[v - 1], list(outs[v].items()), [m.dim[t - 1] for t in outs[v]])
            for v in enum_verts]
    # the last enumerated vertex's targets are all sinks: per sink, its
    # target position there or None, and the sink position of target 0
    tpos = {t: ti for ti, (t, _) in enumerate(plan[-1][2])} if plan else {}
    spos = [tpos.get(u) for u in sink_verts]
    first = spos.index(0) if plan else 0
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
        v, n, targets, full = plan[idx]
        forced = states[v]
        top = [states[t - 1] for t, _ in targets]
        for _, r in forced:
            rc = kern.coords(r, n)
            for ti, (_, arrows) in enumerate(targets):
                for cols in arrows:
                    top[ti] = extend(top[ti], red(sum(map(mul, rc, cols))))
        pivots = {n - 1 - off // w for off, _ in forced}
        free = [j for j in range(n) if j not in pivots]
        last = idx == len(plan) - 1
        if last:
            fixed = tuple([len(states[u - 1]) for u in sink_verts])

        layers = range(len(free) + 1)
        arrows = targets[0][1] if last and len(targets) == 1 else ()
        if 0 < len(arrows) <= min(2, len(free)):
            # U = forced + W adds dim(A(W) + B(W)) mod top: all W for one arrow,
            # for two the W of dimension 0, 1, N - 1 and N (N = len(free))
            maps = [[residue(top[0], cols[j]) for j in free] for cols in arrows]
            table, total = (kernel_meet_counts(len(free), rank(maps[0]), p) if len(maps) == 1
                            else pencil_layer_counts(kern, full[0], *maps))
            tick(total)
            # row (k, r, count): dimension dim0 + k here and base + r at the
            # target's sink, the only forced sink dimension that varies
            dim0, base, head, tail = len(forced), len(top[0]), fixed[:first], fixed[first + 1:]
            for k, r, count in table:
                key = (dims + (dim0 + k,), head + (base + r,) + tail)
                hist[key] = hist.get(key, 0) + count
            if len(maps) == 1:
                return  # every layer is counted
            layers = range(2, len(free) - 1)

        def record(dim_v: int, ranks, count: int) -> None:
            key = (dims + (dim_v,),
                   tuple(r if ti is None else ranks[ti] for ti, r in zip(spos, fixed)))
            hist[key] = hist.get(key, 0) + count

        def last_row(dim_v: int, lead: int, tails: list, tstates: list) -> None:
            """The last echelon row at the last enumerated vertex. Reduction
            against a fixed echelon basis is linear, so each target's image
            of the row lead + sum x_j e_j, reduced against the state, is
            c + sum x_j d_j with c, d_j the reduced columns. The tails x are
            counted by the ranks of those images in closed form (Moebius
            inversion), or by one rank per x where that is cheaper."""
            pairs = []  # (reduced lead column, reduced tail columns), grouped by target
            spans = []
            for b, (_, arrows) in zip(tstates, targets):
                spans.append((len(pairs), len(pairs) + len(arrows)))
                pairs.extend((residue(b, cols[lead]), [residue(b, cols[j]) for j in tails])
                             for cols in arrows)
            leaves = p ** len(tails)
            tick(leaves)
            if not any(any(ds) for _, ds in pairs):
                acc = {tuple(rank([c for c, _ in pairs[lo:hi]]) for lo, hi in spans): leaves}
            else:
                groups = [(n, pairs[lo:hi]) for n, (lo, hi) in zip(full, spans)]
                acc = image_rank_counts(kern, groups, len(tails))
            if acc is None:
                acc = {}
                steps = [[x * ds[-1] for x in range(p)] for _, ds in pairs]
                for head in product(range(p), repeat=len(tails) - 1):
                    bases = [red(c + sum(map(mul, head, ds))) for c, ds in pairs]
                    for step in zip(*steps):
                        vals = [red(b + s) for b, s in zip(bases, step)]
                        key = tuple([rank(vals[lo:hi]) for lo, hi in spans])
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
            # per target, per arrow: the lead column and the tail columns
            heads = [[(cols[lead], [cols[j] for j in tails]) for cols in arrows]
                     for _, arrows in targets]
            for vals in product(range(p), repeat=len(tails)):
                new = []
                for b, arrows in zip(tstates, heads):
                    for c, ds in arrows:
                        b = extend(b, red(c + sum(map(mul, vals, ds))))
                    new.append(b)
                walk(rows, i + 1, new)

        for k in layers:
            for leads in combinations(range(len(free)), k):
                walk([(free[a], [free[b] for b in range(a + 1, len(free)) if b not in leads])
                      for a in reversed(leads)], 0, top)  # fewest tails first
        del walk  # a cycle (walk calls itself): free it without the collector

    if enum_verts:
        vertex(0, (), tuple(() for _ in range(q.vertices)))
    else:
        hist[((), tuple(0 for _ in sink_verts))] = 1
    del vertex  # likewise
    return _hist_to_counts(m, enum_verts, sink_verts, hist), visits


def _hist_to_counts(m: Representation, enum_verts, sink_verts,
                    hist: dict) -> dict[DimVector, int]:
    """Expand a histogram keyed by (enumerated dims, forced sink dims) into
    per-dimension-vector counts: each sink contributes a Gaussian-binomial
    factor counting subspaces between the forced image and the full fibre,
    read from `_sink_table`. Counts are keyed in enumeration order first,
    then put in vertex order when the two differ."""
    full = tuple(m.dim[w - 1] for w in sink_verts)
    counts: dict[DimVector, int] = {}
    for (dims, fs), mult in hist.items():
        for sink_dims, factor in _sink_table(full, fs, m.p):
            e = dims + sink_dims
            counts[e] = counts.get(e, 0) + mult * factor
    order = enum_verts + sink_verts
    if order != sorted(order):
        at = [order.index(v) for v in range(1, len(order) + 1)]
        counts = {tuple([e[i] for i in at]): c for e, c in counts.items()}
    return counts


@cache
def _sink_table(full: tuple, forced: tuple, p: int) -> tuple:
    """Per tuple of sink dimensions from `forced` to `full`, the number of
    subspace tuples of those dimensions over F_p containing fixed forced
    subspaces: a product of Gaussian binomials. Cached: a sweep meets few
    (full, forced) pairs, and a histogram meets each many times."""
    return tuple((dims, prod(gauss_binom(n - f, e - f, p) for n, e, f in zip(full, dims, forced)))
                 for dims in product(*[range(f, n + 1) for f, n in zip(forced, full)]))


# --------------------------------------------- Euler characteristic by chi

@cache
def _lagrange_basis(xs: tuple[int, ...]) -> tuple[int, list[list[int]]]:
    """Integer Lagrange basis through the nodes xs: (den, rows) with
    den * L_i(x) = sum_k rows[i][k] x^k, den the lcm of the node products.
    Cached per node tuple: a sweep fits every e on the same primes."""
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


def interpolate(points: list[tuple[int, int]], degree: int) -> list[int]:
    """Integer coefficients (ascending degree) of the polynomial of degree
    <= `degree` through the first degree + 1 points, checked on the rest.
    InputError unless `degree` is an int >= 0 and `points` a list or tuple
    of at least degree + 1 (node, value) pairs of ints at distinct nodes;
    bools are refused."""
    n = degree + 1 if type(degree) is int else 0
    try:  # one key per distinct node of a well-typed point
        nodes = {x: None for x, y in points if type(x) is type(y) is int}
    except (TypeError, ValueError):  # a point that is not a pair
        nodes = {}
    if n < 1 or not isinstance(points, (list, tuple)) or len(nodes) < len(points) or len(points) < n:
        raise InputError("interpolation needs degree + 1 >= 1 points at distinct nodes,"
                         " each an (int, int) pair")
    den, rows = _lagrange_basis(tuple(x for x, _ in points[:n]))
    num = [0] * n
    for (_, y), row in zip(points, rows):
        if y:
            num = [a + y * b for a, b in zip(num, row)]
    if any(c % den for c in num):
        raise ConsistencyError("interpolated counting polynomial is not integral")
    ints = [c // den for c in num]
    for x, y in points[n:]:
        if poly_eval(ints, x) != y:
            raise ConsistencyError("counting polynomial fails the extra-prime check")
    return ints


def poly_eval(coeffs: list[int], x: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def good_primes(m_int: Representation, pool, count: int,
                guards: tuple = ()) -> list[int]:
    """First `count` primes from the pool whose reduction preserves the
    rational self-Hom dimension of m_int and every Hom dimension against
    the guard representations; BudgetError when the pool is too small.

    The guard comparison matters for non-rigid modules: a prime can keep
    End(m) intact while sliding a summand's isomorphism class into a
    special position mod p, which changes subrepresentation counts and
    would poison the interpolation.

    Each Hom pair is eliminated once over Q (`_hom_minor`), giving its
    dimension and a nonzero minor d of its equations. A prime that does
    not divide d keeps that dimension, so it passes without any reduction;
    only when p divides d is the Hom dimension of the reductions taken
    over F_p. The accepted primes are exactly those of a per-prime
    comparison of every pair. InputError unless the pool is a list or
    tuple of distinct primes (`_check_pool`), `count` an int >= 1 (bools
    refused), m_int an integer module and `guards` a list or tuple of
    integer representations (`_check_guards`)."""
    if type(count) is not int or count < 1:
        raise InputError("count %r must be a positive integer" % (count,))
    guards = _check_guards(m_int, guards)
    pool = _check_pool(pool)
    pairs = [(m_int, m_int)] + [pair for g in guards for pair in ((m_int, g), (g, m_int))]
    certs = [_hom_minor(a, b) for a, b in pairs]
    good = []
    for p in pool:
        if all(d % p or hom_dim(rep_mod(a, p), rep_mod(b, p)) == dim
               for (a, b), (dim, d) in zip(pairs, certs)):
            good.append(p)
            if len(good) == count:
                return good
    raise BudgetError("prime pool has only %d usable primes, need %d"
                      % (len(good), count))


def _counting_polynomials(m_int: Representation, es: list, pool, budget: int,
                          guards: tuple) -> dict[DimVector, list[int]]:
    """Integer coefficients (ascending degree) of the polynomial counting
    e-dimensional subrepresentations of m_int over F_q, for every e in es.

    A thin module (every d_v <= 1) is decided over Q (`_thin_polynomials`)
    and consults neither the pool nor the guards. Any other module takes
    one sweep of max degree D + 2 good primes, each polynomial fitted
    through its degree + 1 first primes and verified on every further one.

    A count can still jump at one good prime. When the sweep fails, the
    next D + 2 good primes form a second sweep that must fit on its own,
    and its polynomials are accepted if they match the first sweep at every
    prime but one. Such an answer is the one the single sweep gives on the
    pool without the first sweep's primes, confirmed at D + 1 more primes.
    A count that is not polynomial in p, such as one that follows how a
    polynomial splits mod p, gets through only if it fools the single
    sweep on the second sweep's primes as well. When the pool has too few
    good primes for the second sweep, or the second sweep fails to fit,
    the first failure stands; when the budget cannot pay for one of its
    counts, that BudgetError is raised instead. InputError on a mod-p
    module or on guards that `_check_guards` refuses, on either route."""
    guards = _check_guards(m_int, guards)
    pool = _check_limits(budget, pool)
    if max(m_int.dim, default=0) <= 1:
        return _thin_polynomials(m_int, es, budget)
    degrees = [sum(x * (dv - x) for x, dv in zip(e, m_int.dim)) for e in es]
    count = max(degrees, default=0) + 2

    def fit(primes: list[int], counts: list[dict]) -> dict[DimVector, list[int]]:
        return {e: interpolate([(p, c.get(e, 0)) for p, c in zip(primes, counts)], degree)
                for e, degree in zip(es, degrees)}

    first = good_primes(m_int, pool, count, guards)
    counts = [count_all_subreps(rep_mod(m_int, p), budget) for p in first]
    try:
        return fit(first, counts)
    except ConsistencyError as exc:
        failure = exc
    try:
        second = good_primes(m_int, pool, 2 * count, guards)[count:]
    except BudgetError:  # the pool, not the budget, is too small
        raise failure from None
    counts2 = [count_all_subreps(rep_mod(m_int, p), budget) for p in second]
    try:
        polys = fit(second, counts2)
    except ConsistencyError:
        raise failure from None
    outliers = [p for p, c in zip(first, counts)
                if any(poly_eval(ints, p) != c.get(e, 0) for e, ints in polys.items())]
    if len(outliers) > 1:
        raise failure
    return polys


def _thin_polynomials(m_int: Representation, es: list,
                      budget: int) -> dict[DimVector, list[int]]:
    """The constant counting polynomials of a thin integer module. Each
    U_v is 0 or M_v, so the one candidate of dimension e is the coordinate
    tuple on supp(e), and it is stable unless an arrow s -> t with a
    nonzero scalar has e_s = 1 and e_t = 0. That holds over Q and over
    every F_p dividing no nonzero scalar, so the count is [1] or [0].
    Charges one visit per e, one per coordinate subspace tuple;
    BudgetError above `budget`."""
    if len(es) > budget:
        raise BudgetError("subspace enumeration budget exceeded")
    live = [(s - 1, t - 1) for (s, t), x in zip(m_int.quiver.arrows, thin_scalars(m_int)) if x]
    return {e: [0] if any(e[s] and not e[t] for s, t in live) else [1] for e in es}


def chi_all(m_int: Representation, pool=DEFAULT_PRIMES,
            budget: int = DEFAULT_BUDGET,
            guards: tuple = ()) -> dict[DimVector, int]:
    """chi(Gr_e) for every 0 <= e <= dim at once, sharing prime sweeps.
    A thin m_int (every d_v <= 1) is decided over Q for one visit of the
    budget per e, consulting no prime pool."""
    es = list(product(*[range(x + 1) for x in m_int.dim]))
    return {e: poly_eval(ints, 1)
            for e, ints in _counting_polynomials(m_int, es, pool, budget, guards).items()}
