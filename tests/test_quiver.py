"""Quiver combinatorics: forms, roots, affine structure, validation."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from operator import mul

import pytest

from genvar import quiver as quiver_mod
from genvar.affine import generic_variable_affine
from genvar.candecomp import canonical_decomposition
from genvar.ccmap import generic_variable
from genvar.errors import InputError
from genvar.laurent import LaurentPoly
from genvar.linalg import kernel_basis
from genvar.quiver import (Quiver, WildTypeError, a_n, affine_a2, kronecker,
                           negative_part, positive_part)
from genvar.reps import Representation, sample_integer_rep


def test_builders_shape(kron, a3, atilde):
    assert kron.vertices == 2 and kron.arrows == ((1, 2), (1, 2))
    assert a3.vertices == 3 and a3.arrows == ((1, 2), (2, 3))
    assert atilde.vertices == 3 and atilde.arrows == ((1, 2), (2, 3), (1, 3))


def test_validation_rejects_bad_quivers():
    with pytest.raises(InputError):
        Quiver(2, ((1, 2), (2, 1)))  # directed cycle
    with pytest.raises(InputError):
        Quiver(3, ((1, 2),))  # disconnected vertex 3
    with pytest.raises(InputError):
        Quiver(2, ((1, 3),))  # vertex out of range
    with pytest.raises(InputError):
        Quiver(2, ((1, 1),))  # loop
    with pytest.raises(InputError):
        Quiver(0, ())


@pytest.mark.parametrize("arrows", [((1, 2, 3), (1, 2)), ((1,), (1, 2)), (1, 2)])
def test_arrows_must_be_pairs(arrows):
    # each of these raised a raw ValueError or TypeError from unpacking
    with pytest.raises(InputError):
        Quiver(2, arrows)


@pytest.mark.parametrize("n, arrows", [(True, ()), (2.0, ((1, 2),)), (2, None), (2, 12),
                                       (2, ((1, 2) for _ in range(1)))])
def test_vertex_count_and_arrow_sequence_are_checked(n, arrows):
    # a bool vertex count built a one-vertex quiver; None raised a raw TypeError
    with pytest.raises(InputError):
        Quiver(n, arrows)


def test_euler_form_hand_values(kron, a3):
    # <e,f> = sum e_i f_i - sum over arrows e_source f_target
    assert kron.euler_form((1, 0), (0, 1)) == -2
    assert kron.euler_form((0, 1), (1, 0)) == 0
    assert kron.euler_form((1, 1), (1, 1)) == 0
    assert a3.euler_form((1, 1, 0), (0, 1, 1)) == 1 - 1 - 1  # = -1
    assert a3.euler_form((0, 1, 1), (1, 1, 0)) == 1


def test_euler_coefficients_match_the_form(kron, atilde):
    rng = random.Random(5)
    for q in (kron, atilde):
        for _ in range(40):
            d = tuple(rng.randint(-3, 3) for _ in range(q.vertices))
            f = tuple(rng.randint(-3, 3) for _ in range(q.vertices))
            left, right = q.euler_coefficients(d)
            assert sum(map(mul, left, f)) == q.euler_form(d, f)
            assert sum(map(mul, right, f)) == q.euler_form(f, d)


# Each of these was truncated by int() and answered for another vector.
NON_INTEGER_INPUTS = {
    "generic_variable": lambda: generic_variable(kronecker(), (1.5, 1)),
    "canonical_decomposition": lambda: canonical_decomposition(kronecker(), (2.7, 1)),
    "euler_form": lambda: kronecker().euler_form((1.9, 0), (1, 0)),
    "euler_form_bool": lambda: kronecker().euler_form((True, 0), (1, 0)),
    "generic_variable_affine": lambda: generic_variable_affine(kronecker(), (2.2, 2)),
    "laurent": lambda: LaurentPoly(2, {(0.5, 0): 1.7}),
    "laurent_coefficient": lambda: LaurentPoly(2, {(0, 0): 1.7}),
    "laurent_shift": lambda: LaurentPoly.one(2).shift((0.5, 0)),
    "rep_dim": lambda: Representation(kronecker(), 0, (1.0, 1), (((1,),), ((1,),))),
    "rep_entry": lambda: Representation(kronecker(), 5, (1, 1), (((1.5,),), ((1,),))),
    "sample": lambda: sample_integer_rep(kronecker(), (2, 1.5), random.Random(0)),
    "arrow": lambda: Quiver(2, ((1.9, 2), (1, 2))),
    "arrow_bool": lambda: Quiver(2, ((True, 2), (1, 2))),
    "arrow_str": lambda: Quiver(2, (("1", 2), (1, 2))),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_INPUTS))
def test_non_integer_vectors_are_rejected(name):
    with pytest.raises(InputError):
        NON_INTEGER_INPUTS[name]()


def test_q_norm_detects_roots(kron, atilde):
    assert kron.q_norm((1, 0)) == 1
    assert kron.q_norm((2, 1)) == 1
    assert kron.q_norm((1, 1)) == 0
    assert kron.q_norm((1, 3)) == 4
    assert atilde.q_norm((1, 1, 1)) == 0
    assert atilde.q_norm((1, 0, 1)) == 1
    assert atilde.q_norm((3, 2, 3)) == 1


def test_positive_roots_a3(a3):
    roots = dict(a3.positive_roots((1, 1, 1)))
    expected = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)}
    assert set(roots) == expected
    assert all(tag == "real" for tag in roots.values())


def test_positive_roots_kronecker_tags(kron):
    roots = dict(kron.positive_roots((2, 2)))
    assert roots[(1, 0)] == "real"
    assert roots[(2, 1)] == "real"
    assert roots[(1, 1)] == "imaginary"
    assert roots[(2, 2)] == "imaginary"
    assert (2, 0) not in roots


def test_type_classification(kron, a2, a3, atilde):
    assert a2.type_class() == "dynkin"
    assert a3.type_class() == "dynkin"
    assert kron.type_class() == "affine"
    assert atilde.type_class() == "affine"
    wild = Quiver(2, ((1, 2), (1, 2), (1, 2)))
    assert wild.type_class() == "wild"
    with pytest.raises(WildTypeError):
        wild.affine_data()


def test_affine_data_and_defect(kron, atilde):
    aff = kron.affine_data()
    assert aff.delta == (1, 1)
    assert kron.defect(aff, (1, 1)) == 0
    # arrows point out of vertex 1, so (1,0) is the simple injective
    assert kron.defect(aff, (1, 0)) > 0  # preinjective side
    assert kron.defect(aff, (0, 1)) < 0  # preprojective side
    aff3 = atilde.affine_data()
    assert aff3.delta == (1, 1, 1)
    assert atilde.defect(aff3, (1, 0, 1)) == 0
    assert atilde.defect(aff3, (0, 1, 0)) == 0
    assert atilde.defect(aff3, (1, 0, 0)) > 0
    assert atilde.defect(aff3, (0, 0, 1)) < 0


def test_dynkin_quiver_has_no_affine_data(a3):
    assert a3.affine_data() is None


def test_classification_is_computed_once_per_instance(monkeypatch):
    calls = []
    real = quiver_mod.kernel_basis
    monkeypatch.setattr(quiver_mod, "kernel_basis",
                        lambda s: calls.append(1) or real(s))
    q = Quiver(3, ((1, 2), (2, 3), (1, 3)))
    for _ in range(3):
        assert q.type_class() == "affine"
        assert q.affine_data().delta == (1, 1, 1)
    assert len(calls) == 1  # one radical per instance
    wild = Quiver(2, ((1, 2), (1, 2), (1, 2)))
    for _ in range(2):
        with pytest.raises(WildTypeError):
            wild.affine_data()
    assert wild.type_class() == "wild"
    assert len(calls) == 2
    # the cached values leave equality and hashing to the fields
    fresh = Quiver(3, ((1, 2), (2, 3), (1, 3)))
    assert q == fresh and hash(q) == hash(fresh)
    assert q != wild


def reference_classify_gram(s):
    """The symmetric Fraction elimination that used to classify the Gram
    matrix: 'positive_definite', 'positive_semidefinite' or 'indefinite'."""
    n = len(s)
    a = [[Fraction(s[i][j]) for j in range(n)] for i in range(n)]
    zero_pivots = 0
    for i in range(n):
        if a[i][i] < 0:
            return "indefinite"
        if a[i][i] == 0:
            if any(a[i][j] != 0 for j in range(i + 1, n)):
                return "indefinite"
            zero_pivots += 1
            continue
        for r in range(i + 1, n):
            if a[r][i] != 0:
                f = a[r][i] / a[i][i]
                for c in range(i, n):
                    a[r][c] -= f * a[i][c]
    return "positive_definite" if zero_pivots == 0 else "positive_semidefinite"


def reference_classification(q):
    """(type, delta) by the definiteness class, with every check the old
    affine data made: delta sincere, a vertex with delta = 1, and a Dynkin
    part left when that vertex is removed."""
    g = q.gram_matrix()
    cls = reference_classify_gram(g)
    if cls == "positive_definite":
        return "dynkin", None
    if cls == "indefinite" or len(kernel_basis(g)) != 1:
        return "wild", None
    delta = tuple(kernel_basis(g)[0])
    if delta[0] < 0 or all(x <= 0 for x in delta):
        delta = tuple(-x for x in delta)
    assert all(x > 0 for x in delta)
    ext = delta.index(1)  # the extending vertex, 0-based
    rest = [v for v in range(q.vertices) if v != ext]
    assert reference_classify_gram([[g[i][j] for j in rest] for i in rest]) == "positive_definite"
    return "affine", delta


def classification(q):
    cls = q.type_class()
    if cls == "wild":
        with pytest.raises(WildTypeError, match="quiver is wild: no affine data"):
            q.affine_data()
        return cls, None
    data = q.affine_data()
    return cls, data and data.delta


def connected_multigraphs(n, most):
    """Every connected quiver on n vertices with at most `most` arrows
    between two vertices, each arrow oriented from the smaller vertex."""
    pairs = list(combinations(range(1, n + 1), 2))
    for mults in product(range(most + 1), repeat=len(pairs)):
        arrows = tuple(a for a, m in zip(pairs, mults) for _ in range(m))
        try:
            yield Quiver(n, arrows)
        except InputError:  # disconnected
            pass


def test_classification_matches_the_definiteness_reference():
    seen = Counter()
    for n, most in ((1, 2), (2, 2), (3, 2), (4, 2), (5, 1), (6, 1)):
        for q in connected_multigraphs(n, most):
            got = classification(q)
            assert got == reference_classification(q), q
            seen[got[0]] += 1
    # labelled Dynkin trees (A, D, E up to six vertices) and affine graphs
    # (Kronecker, the cycles, D~4, D~5)
    assert seen == {"dynkin": 1221, "affine": 172, "wild": 26686}


def star(*arms):
    """Vertex 1 with one path of each length in `arms` leaving it; the
    paths are numbered in turn, each from the centre outwards."""
    arrows, nxt = [], 2
    for length in arms:
        prev = 1
        for _ in range(length):
            arrows.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return Quiver(nxt - 1, tuple(arrows))


@pytest.mark.parametrize("name, q, delta", [
    ("D4", star(1, 1, 1), None),
    ("D5", star(1, 1, 2), None),
    ("D6", star(1, 1, 3), None),
    ("E6", star(1, 2, 2), None),
    ("E7", star(1, 2, 3), None),
    ("E8", star(1, 2, 4), None),
    ("D~4", star(1, 1, 1, 1), (2, 1, 1, 1, 1)),
    ("D~5", Quiver(6, ((1, 3), (2, 3), (3, 4), (4, 5), (4, 6))), (1, 1, 2, 2, 1, 1)),
    ("E~6", star(2, 2, 2), (3, 2, 1, 2, 1, 2, 1)),
    ("E~7", star(1, 3, 3), (4, 2, 3, 2, 1, 3, 2, 1)),
    ("E~8", star(1, 2, 5), (6, 3, 4, 2, 5, 4, 3, 2, 1)),
    ("T(2,3,7)", star(1, 2, 6), "wild"),
])
def test_named_types(name, q, delta):
    if delta == "wild":
        assert classification(q) == ("wild", None)
    elif delta is None:
        assert classification(q) == ("dynkin", None)
    else:
        assert classification(q) == ("affine", delta)
    assert classification(q) == reference_classification(q)


def test_topological_order_and_sinks(a3, atilde):
    order = a3.topological_order()
    assert order.index(1) < order.index(2) < order.index(3)
    assert order[-1] == 3  # the sink comes last
    assert atilde.topological_order()[-1] == 3


def test_opposite_reverses_arrows(a3):
    op = a3.opposite()
    assert sorted(op.arrows) == [(2, 1), (3, 2)]
    assert a3.opposite() is op  # built once per quiver


def test_positive_negative_part():
    assert positive_part((2, -1, 0)) == (2, 0, 0)
    assert negative_part((2, -1, 0)) == (0, 1, 0)


def test_json_roundtrip(atilde):
    doc = atilde.to_json()
    assert Quiver.from_json(doc) == atilde
    with pytest.raises(InputError):
        Quiver.from_json({"vertices": 2})
    with pytest.raises(InputError):
        Quiver.from_json({"vertices": 2, "arrows": [[1, 2, 3]]})


def test_huge_disconnected_vertex_count_is_rejected_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="connected"):
            Quiver.from_json({"vertices": 10 ** 6, "arrows": []})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def reference_topological_order(q):
    """The original quadratic loop, kept as the reference order."""
    indeg = {v: 0 for v in range(1, q.vertices + 1)}
    for _, t in q.arrows:
        indeg[t] += 1
    ready = sorted(v for v, d in indeg.items() if d == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for s, t in q.arrows:
            if s == v:
                indeg[t] -= 1
                if indeg[t] == 0 and t not in ready:
                    ready.append(t)
                    ready.sort()
    return order


def test_topological_order_matches_the_reference_on_random_dags():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 12)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)  # every arrow runs from earlier to later in perm
        arrows = [(perm[rng.randrange(i)], perm[i]) for i in range(1, n)]
        for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
            i, j = sorted(rng.sample(range(n), 2))
            arrows += [(perm[i], perm[j])] * rng.randint(1, 3)
        rng.shuffle(arrows)
        q = Quiver(n, tuple(arrows))
        assert q.topological_order() == reference_topological_order(q)


def test_topological_order_is_cached_and_copied(a3):
    order = a3.topological_order()
    order.append(99)
    assert a3.topological_order() == [1, 2, 3]
    assert "_topological_order" in vars(a3)


def test_long_path_builds():
    n = 20_000
    q = Quiver(n, tuple((v, v + 1) for v in range(1, n)))
    assert q.topological_order() == list(range(1, n + 1))
    reverse = Quiver(n, tuple((v + 1, v) for v in range(1, n)))
    assert reverse.topological_order() == list(range(n, 0, -1))
