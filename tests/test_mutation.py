"""Seed mutation, cluster-variable tables and cluster monomials."""

from itertools import product

import pytest

from genvar import clear_caches
from genvar.errors import BudgetError, InputError
from genvar.laurent import LaurentPoly
from genvar.mutation import (ClusterVariableTable, cluster_monomials,
                             enumerate_cluster_variables, initial_seed,
                             laurent_check, mutate)


def test_initial_seed(a2):
    seed = initial_seed(a2)
    assert seed.b == ((0, 1), (-1, 0))
    assert seed.cluster[0] == LaurentPoly.variable(2, 1)
    assert seed.cluster[1] == LaurentPoly.variable(2, 2)


def test_single_mutation_exchange(a2):
    # On 1 -> 2 the first exchange is x1' = (x2 + 1) / x1.
    seed = initial_seed(a2)
    s1 = mutate(seed, 1)
    assert s1.cluster[0] == LaurentPoly(2, {(-1, 1): 1, (-1, 0): 1})
    assert s1.cluster[1] == seed.cluster[1]
    # mutation is an involution
    assert mutate(s1, 1).key() == seed.key()


def test_mutation_input_validation(a2):
    with pytest.raises(InputError):
        mutate(initial_seed(a2), 0)
    with pytest.raises(InputError):
        mutate(initial_seed(a2), 3)


@pytest.mark.parametrize("depth, sweeps", [(1.5, 0), (1, 1.5), (1, -1), (True, 0)])
def test_enumeration_rejects_bad_depth_and_sweeps(a2, depth, sweeps):
    # 1.5 raised a raw TypeError, -1 sweeps ran none and True ran as depth 1
    with pytest.raises(InputError):
        enumerate_cluster_variables(a2, depth, sweeps=sweeps)


def test_a2_exchange_graph_closes(a2):
    table = enumerate_cluster_variables(a2, depth=8)
    dens = set(table.entries)
    # two initial variables plus one variable per positive root
    assert dens == {(-1, 0), (0, -1), (1, 0), (0, 1), (1, 1)}
    assert len(table.clusters) == 5  # pentagon exchange graph
    report = laurent_check(table)
    assert report["all_coefficients_positive"] is True


def test_a3_variable_count(a3):
    table = enumerate_cluster_variables(a3, depth=10)
    # three initial variables plus the six positive roots
    assert len(table.entries) == 9
    assert {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
            (1, 1, 1)} <= set(table.entries)


def test_all_table_denominators_match_storage_key(a2):
    table = enumerate_cluster_variables(a2, depth=8)
    for den, poly in table.entries.items():
        assert poly.denominator_vector() == den


def test_kronecker_sweeps_reach_deep_variables(kron):
    table = enumerate_cluster_variables(kron, depth=2, sweeps=4)
    dens = set(table.entries)
    assert {(1, 0), (0, 1), (2, 1), (1, 2), (3, 2), (2, 3)} <= dens
    report = laurent_check(table)
    assert report["all_coefficients_positive"] is True


def test_cluster_monomials_box(a2):
    table = enumerate_cluster_variables(a2, depth=8)
    monos = cluster_monomials(table, a2, (1, 1))
    assert LaurentPoly.one(2) in monos
    for m in monos:
        den = m.denominator_vector()
        assert all(-1 <= x <= 1 for x in den)
    # distinct monomials have distinct denominator vectors
    assert len({m.denominator_vector() for m in monos}) == len(monos)


def test_cluster_monomials_contain_products(a2):
    table = enumerate_cluster_variables(a2, depth=8)
    monos = cluster_monomials(table, a2, (2, 2))
    x11 = table.entries[(1, 1)]
    x10 = table.entries[(1, 0)]
    # (1,1) and (1,0) live in a common cluster, so the product qualifies
    assert x11 * x10 in monos


def test_cluster_monomials_rejects_bad_box(a2):
    table = enumerate_cluster_variables(a2, depth=4)
    with pytest.raises(InputError):
        cluster_monomials(table, a2, (1, 1, 1))


@pytest.mark.parametrize("name, box", [("a2", (1, 1)), ("a3", (1, 1, 1))])
def test_cluster_monomials_reject_a_quiver_other_than_the_tables(request, kron, name, box):
    # A_3 raised IndexError; A_2 answered with the Kronecker table's monomials
    table = enumerate_cluster_variables(kron, depth=4)
    with pytest.raises(InputError):
        cluster_monomials(table, request.getfixturevalue(name), box)


@pytest.mark.parametrize("max_den,min_den", [((1.5, 1), None), ((1, 1), (0.5, 0)),
                                             (("1", 1), None), ((True, 1), None)])
def test_cluster_monomials_rejects_a_non_integer_box(a2, max_den, min_den):
    table = enumerate_cluster_variables(a2, depth=4)
    with pytest.raises(InputError):
        cluster_monomials(table, a2, max_den, min_den)


def exhaustive_cluster_monomials(table, q, max_den, min_den=None):
    """The plain (cap+1)^n sweep over every exponent vector of every
    cluster, kept here as the reference for the pruned walk."""
    if min_den is None:
        min_den = tuple(-x for x in max_den)
    cap = sum(abs(a) + abs(b) for a, b in zip(min_den, max_den)) + 2
    found = {}
    one = LaurentPoly.one(q.vertices)
    if all(a <= 0 <= b for a, b in zip(min_den, max_den)):
        found[one.key()] = one
    for cluster in sorted(table.clusters, key=sorted):
        dens = sorted(cluster)
        polys = [table.entries[d] for d in dens]
        for exps in product(range(cap + 1), repeat=len(polys)):
            if not any(exps):
                continue
            den_sum = tuple(sum(m * d[i] for m, d in zip(exps, dens))
                            for i in range(q.vertices))
            if not all(a <= x <= b for a, x, b in zip(min_den, den_sum, max_den)):
                continue
            mono = one
            for m, x in zip(exps, polys):
                if m:
                    mono = mono * x ** m
            assert mono.denominator_vector() == den_sum
            found[mono.key()] = mono
    return [found[k] for k in sorted(found)]


@pytest.mark.parametrize("name, depth, max_den, min_den", [
    ("a2", 10, (3, 3), (-2, -2)),
    ("a3", 10, (2, 2, 2), (-2, -2, -2)),
    ("kron", 8, (5, 5), None),
    ("a3", 10, (1, 2, 3), (0, -1, 1)),   # min_den is not -max_den
])
def test_cluster_monomials_match_the_exhaustive_sweep(request, name, depth,
                                                      max_den, min_den):
    q = request.getfixturevalue(name)
    table = enumerate_cluster_variables(q, depth)
    got = cluster_monomials(table, q, max_den, min_den)
    want = exhaustive_cluster_monomials(table, q, max_den, min_den)
    assert [m.key() for m in got] == [m.key() for m in want]
    assert got


def test_cluster_monomials_budget_boundary(a2):
    # Box [0,1]^2 on 1 -> 2, so cap = 4. A node is one exponent chosen for
    # one variable. Per cluster (variables in sorted order):
    #   {(-1,0),(0,-1)}: 0, then 0                      -> 2 nodes
    #   {(-1,0),(0,1)}:  0, then 0..1                   -> 3 nodes
    #   {(0,-1),(1,0)}:  0, then 0..1                   -> 3 nodes
    #   {(0,1),(1,1)}:   0..1, then 0..1 after 0, 0 after 1 -> 5 nodes
    #   {(1,0),(1,1)}:   0..1, then 0..1 after 0, 0 after 1 -> 5 nodes
    table = enumerate_cluster_variables(a2, 10)
    nodes = 18
    monos = cluster_monomials(table, a2, (1, 1), (0, 0), budget=nodes)
    assert sorted(m.denominator_vector() for m in monos) == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(BudgetError):
        cluster_monomials(table, a2, (1, 1), (0, 0), budget=nodes - 1)


def test_enumeration_budget_boundary(a2):
    # The pentagon closes at depth 3: two mutations from each of the 1, 2
    # and 2 seeds of depths 0-2, ten in all. Each is charged the boxes of
    # its two exchange monomials: 1 for the empty product or a one-term
    # variable, 2 for a two-term variable of width 1, 4 for
    # (1 + x1 + x2)/(x1 x2), of width (1, 1).
    #   depth 1: 1+1, 1+1; depth 2: 1+1, 1+2, 1+2, 1+1;
    #   depth 3: 1+4, 1+2, 1+2, 1+4                  -> 30
    charge = 30
    table = enumerate_cluster_variables(a2, 8, budget=charge)
    assert len(table.entries) == 5
    with pytest.raises(BudgetError):
        enumerate_cluster_variables(a2, 8, budget=charge - 1)


def test_budget_boundary_holds_with_a_warm_mutation_cache(a2):
    # every step is charged whether or not `mutate` has it cached
    enumerate_cluster_variables(a2, 8)
    charge = 30
    assert len(enumerate_cluster_variables(a2, 8, budget=charge).entries) == 5
    with pytest.raises(BudgetError):
        enumerate_cluster_variables(a2, 8, budget=charge - 1)


def snapshot(table):
    return (table.entries, table.provenance, table.clusters)


@pytest.mark.parametrize("name, depth, sweeps", [("a3", 10, 0), ("kron", 4, 3),
                                                 ("atilde", 4, 2)])
def test_repeated_enumeration_reuses_every_mutation(request, monkeypatch, name,
                                                    depth, sweeps):
    q = request.getfixturevalue(name)
    first = snapshot(enumerate_cluster_variables(q, depth, sweeps))
    divisions = []
    divide = LaurentPoly.divide_exact

    def spy(self, other):
        divisions.append(other)
        return divide(self, other)

    monkeypatch.setattr(LaurentPoly, "divide_exact", spy)
    assert snapshot(enumerate_cluster_variables(q, depth, sweeps)) == first
    assert divisions == []
    mutate.cache_clear()
    assert snapshot(enumerate_cluster_variables(q, depth, sweeps)) == first
    assert divisions


def test_mutate_returns_the_cached_seed(a2):
    seed = initial_seed(a2)
    assert mutate(seed, 1) is mutate(initial_seed(a2), 1)
    assert mutate(mutate(seed, 2), 2) == seed
    # 1.0 == True == 1, but neither may hit the cached entry of vertex 1
    for k in (1.0, True):
        with pytest.raises(InputError):
            mutate(seed, k)


def test_a_cached_mutation_cannot_be_changed_by_its_caller(a2):
    seed = initial_seed(a2)
    want = mutate(seed, 1).cluster[0]
    with pytest.raises(TypeError):
        mutate(seed, 1).cluster[0].terms[(5, 5)] = 7
    got = mutate(initial_seed(a2), 1).cluster[0]
    assert got.terms == want.terms == {(-1, 0): 1, (-1, 1): 1}


def every_vertex_bfs(q, depth):
    """The exchange-graph BFS that mutates each seed at every vertex, the
    step back to its parent included, as the reference for the BFS of
    `enumerate_cluster_variables`, which charges that step unrun."""
    table = ClusterVariableTable(quiver=q)
    s0 = initial_seed(q)
    seen = {s0.key()}
    frontier = [(s0, ())]
    for _ in range(depth):
        nxt = []
        for seed, word in frontier:
            for k in range(1, q.vertices + 1):
                new = table.step(seed, k)
                if new.key() in seen:
                    continue
                seen.add(new.key())
                table.add_variable(new.cluster[k - 1], word + (k,))
                table.add_cluster(new)
                nxt.append((new, word + (k,)))
        if not nxt:
            break
        frontier = nxt
    return table


@pytest.mark.parametrize("name, depth, misses", [("kron", 8, 16), ("a3", 10, 29),
                                                 ("atilde", 4, 33)])
def test_bfs_skips_the_undo_step_and_charges_it(request, name, depth, misses):
    q = request.getfixturevalue(name)
    clear_caches()
    table = enumerate_cluster_variables(q, depth)
    # one cold mutation per seed and vertex, bar the step back to its parent
    assert mutate.cache_info().misses == misses
    want = every_vertex_bfs(q, depth)
    assert mutate.cache_info().misses > misses
    assert snapshot(table) == snapshot(want)
    assert table.spent == want.spent
