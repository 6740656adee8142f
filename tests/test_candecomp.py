"""Generic decomposition of dimension vectors with verifiable witnesses."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genvar import candecomp, clear_caches
from genvar.affine import generic_variable_affine
from genvar.candecomp import (CanonicalDecomposition, canonical_decomposition,
                              exceptional_regular_dims, generic_ext_vanishes,
                              generic_ext_vanishes_cluster, is_schur_root,
                              verify_certificate)
from genvar.errors import ConsistencyError, InputError
from genvar.quiver import Quiver, a_n, affine_a2, kronecker
from genvar.reps import Representation, derive, ext_dim, hom_dim, sample_representation


def test_schur_roots_kronecker(kron):
    assert is_schur_root(kron, (1, 0))
    assert is_schur_root(kron, (0, 1))
    assert is_schur_root(kron, (2, 1))
    assert is_schur_root(kron, (1, 2))
    assert is_schur_root(kron, (1, 1))      # delta itself is Schur
    assert not is_schur_root(kron, (2, 2))  # higher delta multiples are not
    assert not is_schur_root(kron, (3, 3))
    assert not is_schur_root(kron, (3, 1))  # not a root at all
    from genvar.errors import InputError
    with pytest.raises(InputError):
        is_schur_root(kron, (0, 0))


def test_schur_roots_dynkin_and_affine(a2, atilde):
    assert is_schur_root(a2, (1, 1))
    assert not is_schur_root(a2, (2, 1))
    assert is_schur_root(atilde, (1, 1, 1))
    assert is_schur_root(atilde, (1, 0, 1))
    assert is_schur_root(atilde, (0, 1, 0))
    assert not is_schur_root(atilde, (2, 2, 2))
    assert not is_schur_root(atilde, (3, 2, 3))  # regular real, length > 1


DEFECT_QUIVERS = [
    ("kronecker", kronecker()),
    ("affine-a2", affine_a2()),
    ("affine-a3", Quiver(4, ((1, 2), (2, 3), (3, 4), (1, 4)))),
    ("affine-d4", Quiver(5, ((1, 5), (2, 5), (3, 5), (4, 5)))),
]


@pytest.mark.parametrize("name,q", DEFECT_QUIVERS, ids=[c[0] for c in DEFECT_QUIVERS])
def test_the_defect_rule_agrees_with_the_recursion_up_to_three_delta(name, q):
    # is_schur_root answers affine quivers from the defect; Schofield's
    # recursion (a root, q(d) <= 1, passing `_is_schur`) must agree on
    # every nonzero vector up to 3 * delta
    box = [3 * x for x in q.affine_data().delta]
    for d in _grid(box):
        assert is_schur_root(q, d) == (q.q_norm(d) <= 1 and candecomp._is_schur(q, d)), d


def _spy_is_schur(monkeypatch) -> list:
    """Record every vector that reaches Schofield's Schur recursion."""
    seen, is_schur = [], candecomp._is_schur

    def spy(q, d):
        seen.append(d)
        return is_schur(q, d)

    monkeypatch.setattr(candecomp, "_is_schur", spy)
    return seen


def test_the_affine_route_runs_the_recursion_only_below_delta(monkeypatch):
    # a deterministic scale guard: the structural route never asks the
    # recursion above delta, which took seconds at (31, 30, 31)
    clear_caches()
    q = affine_a2()
    seen = _spy_is_schur(monkeypatch)
    value = generic_variable_affine(q, (31, 30, 31))
    assert value.poly.denominator_vector() == (31, 30, 31)
    assert seen and all(x <= 1 for d in seen for x in d)


def test_the_search_method_keeps_the_recursion_above_delta(monkeypatch):
    # criterion 8 compares 'structural' with 'search'; the two share the
    # Schur test only below delta
    clear_caches()
    q = affine_a2()
    seen = _spy_is_schur(monkeypatch)
    canonical_decomposition(q, (3, 2, 3), method="search")
    assert any(not all(x <= 1 for x in d) for d in seen)


def test_generic_ext_directions(kron):
    # arrows run 1 -> 2: extensions of the source simple by the sink simple
    assert generic_ext_vanishes(kron, (0, 1), (1, 0))
    assert not generic_ext_vanishes(kron, (1, 0), (0, 1))
    # negative Euler form forces extensions
    assert kron.euler_form((1, 0), (0, 1)) < 0


def test_generic_ext_cluster_needs_both_directions(kron):
    assert generic_ext_vanishes_cluster(kron, (2, 1), (1, 0))
    assert not generic_ext_vanishes_cluster(kron, (1, 0), (0, 1))


def test_exceptional_regular_dims(kron, atilde, a2):
    assert exceptional_regular_dims(kron) == []
    assert exceptional_regular_dims(atilde) == [(0, 1, 0), (1, 0, 1)]
    assert exceptional_regular_dims(a2) == []
    # computed once per quiver, yet each caller gets a list of its own
    exceptional_regular_dims(atilde).append((9, 9, 9))
    assert exceptional_regular_dims(atilde) == [(0, 1, 0), (1, 0, 1)]


FROZEN_DECOMPOSITIONS = [
    # (quiver fixture name, d, expected ((e, mult, tag), ...))
    ("kron", (3, 1), (((1, 0), 1, "real_schur"), ((2, 1), 1, "real_schur"))),
    ("kron", (5, 2), (((1, 0), 1, "real_schur"), ((2, 1), 2, "real_schur"))),
    ("kron", (4, 2), (((2, 1), 2, "real_schur"),)),
    ("kron", (2, 2), (((1, 1), 2, "imaginary_schur"),)),
    ("kron", (3, 3), (((1, 1), 3, "imaginary_schur"),)),
    ("kron", (2, 1), (((2, 1), 1, "real_schur"),)),
    ("atilde", (2, 1, 2), (((1, 0, 1), 1, "real_schur"),
                           ((1, 1, 1), 1, "imaginary_schur"))),
    ("atilde", (3, 2, 3), (((1, 0, 1), 1, "real_schur"),
                           ((1, 1, 1), 2, "imaginary_schur"))),
    ("atilde", (2, 2, 2), (((1, 1, 1), 2, "imaginary_schur"),)),
    ("a3", (1, 2, 1), (((0, 1, 0), 1, "real_schur"),
                       ((1, 1, 1), 1, "real_schur"))),
    ("a2", (2, 1), (((1, 0), 1, "real_schur"), ((1, 1), 1, "real_schur"))),
    ("atilde", (2, 3, 2), (((0, 1, 0), 1, "real_schur"),
                           ((1, 1, 1), 2, "imaginary_schur"))),
]


@pytest.mark.parametrize("qname,d,expected", FROZEN_DECOMPOSITIONS)
def test_frozen_decompositions(request, qname, d, expected):
    q = request.getfixturevalue(qname)
    dec = canonical_decomposition(q, d)
    assert dec.summands == expected
    assert verify_certificate(q, dec) is True


def test_structural_and_search_agree(kron, atilde):
    for q, d in [(kron, (3, 1)), (kron, (2, 2)), (atilde, (2, 1, 2)),
                 (atilde, (1, 2, 1))]:
        a = canonical_decomposition(q, d, method="structural")
        b = canonical_decomposition(q, d, method="search")
        assert a.summands == b.summands


def test_certificate_rejects_tampering(kron):
    dec = canonical_decomposition(kron, (3, 1))
    # zero out the (2,1) witness: decomposes into simples, no longer Schur
    p, dim, mats = dec.witnesses[-1]
    dead = tuple(tuple(tuple(0 for _ in row) for row in mat) for mat in mats)
    bad = CanonicalDecomposition(vector=dec.vector, summands=dec.summands,
                                 witnesses=dec.witnesses[:-1] + ((p, dim, dead),))
    with pytest.raises(ConsistencyError):
        verify_certificate(kron, bad)
    wrong_sum = CanonicalDecomposition(vector=(4, 1), summands=dec.summands,
                                       witnesses=dec.witnesses)
    with pytest.raises(ConsistencyError):
        verify_certificate(kron, wrong_sum)


@pytest.mark.parametrize("qname, d, k", [("a3", (2, 0, 2), 4), ("atilde", (3, 3, 3), 3)])
def test_each_witness_tuple_is_checked_once(request, monkeypatch, qname, d, k):
    # the first sampled tuple is accepted on these vectors, so drawing it
    # takes k samples and one Ext per ordered pair, and nothing re-checks it;
    # the witness memo may already hold it, so start from cold caches
    clear_caches()
    q = request.getfixturevalue(qname)
    calls = {"sample": 0, "ext": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(candecomp, "sample_representation",
                        counted("sample", sample_representation))
    monkeypatch.setattr(candecomp, "ext_dim", counted("ext", ext_dim))
    dec = canonical_decomposition(q, d)
    assert len(dec.expanded()) == k
    assert calls == {"sample": k, "ext": k * (k - 1)}
    assert verify_certificate(q, dec)
    assert calls["ext"] == 2 * k * (k - 1)
    # a repeated decomposition draws nothing, but its witnesses are still
    # re-checked by `verify_certificate`
    again = canonical_decomposition(q, d)
    assert again == dec and calls["sample"] == k
    assert verify_certificate(q, again)
    assert calls["ext"] == 3 * k * (k - 1)


@pytest.mark.parametrize("qname, d", [("kron", (3, 3)), ("atilde", (2, 3, 2)),
                                      ("atilde", (3, 2, 3))])
def test_a_repeated_decomposition_draws_no_witness(request, monkeypatch, qname, d):
    q = request.getfixturevalue(qname)
    calls = []

    def counted(*args):
        calls.append(args)
        return sample_representation(*args)

    monkeypatch.setattr(candecomp, "sample_representation", counted)
    for method in ("structural", "search"):
        clear_caches()
        calls.clear()
        first = canonical_decomposition(q, d, method=method, seed=3)
        drawn = len(calls)
        assert drawn >= len(first.expanded())
        assert canonical_decomposition(q, d, method=method, seed=3) == first
        assert len(calls) == drawn
    # another seed draws its own tuple
    other = canonical_decomposition(q, d, method="search", seed=4)
    assert len(calls) > drawn and other.witnesses != first.witnesses


def test_every_decomposition_keeps_its_shape_checks(kron, monkeypatch):
    monkeypatch.setattr(candecomp, "_find_witnesses", lambda q, instances, seed: ())
    with pytest.raises(ConsistencyError, match="witness count mismatch"):
        canonical_decomposition(kron, (2, 2))


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4)))
def test_decomposition_partitions_the_vector(d):
    from genvar.quiver import kronecker
    q = kronecker()
    if not any(d):
        return
    dec = canonical_decomposition(q, d)
    total = [0, 0]
    for e, mult, tag in dec.summands:
        assert is_schur_root(q, e)
        assert tag in ("real_schur", "imaginary_schur")
        for i, x in enumerate(e):
            total[i] += mult * x
    assert tuple(total) == d
    # pairwise two-sided generic ext vanishing between distinct summands
    summands = [e for e, _m, _t in dec.summands]
    for i, a in enumerate(summands):
        for b in summands[i + 1:]:
            assert generic_ext_vanishes_cluster(q, a, b)


def test_decomposition_of_negative_free_vector_json(atilde):
    dec = canonical_decomposition(atilde, (2, 1, 2))
    doc = dec.to_json()
    assert doc["vector"] == [2, 1, 2]
    assert doc["summands"][0]["kind"] in ("real_schur", "imaginary_schur")
    assert len(doc["witnesses"]) == len(dec.expanded())


# The sampled oracles that the exact recursion replaced, kept as an
# independent reference: 12 samples over F_5 and F_7 each, then every
# representation over F_2 up to a cap of 10^6 (False past the cap).
REF_SAMPLES, REF_PRIMES, REF_CAP = 12, (5, 7), 1_000_000


def _ref_all_reps(q, d):
    shapes = [(d[t - 1], d[s - 1]) for s, t in q.arrows]
    for flat in product(range(2), repeat=sum(r * c for r, c in shapes)):
        mats, i = [], 0
        for r, c in shapes:
            mats.append(tuple(tuple(flat[i + row * c:i + (row + 1) * c])
                              for row in range(r)))
            i += r * c
        yield Representation(q, 2, d, tuple(mats))


def _ref_space(q, d):
    return 2 ** sum(d[s - 1] * d[t - 1] for s, t in q.arrows)


def _ref_is_schur_root(q, d, seed=0):
    if q.q_norm(d) > 1:
        return False
    aff = q.affine_data() if q.type_class() == "affine" else None
    if aff is not None and all(x % y == 0 for x, y in zip(d, aff.delta)):
        ks = {x // y for x, y in zip(d, aff.delta)}
        if len(ks) == 1 and ks.pop() >= 2:
            return False
    for p in REF_PRIMES:
        for k in range(REF_SAMPLES):
            m = sample_representation(q, d, p, derive(seed, "schur", d, p, k))
            if hom_dim(m, m) == 1:
                return True
    if _ref_space(q, d) <= REF_CAP:
        return any(hom_dim(m, m) == 1 for m in _ref_all_reps(q, d))
    return False


def _ref_ext_vanishes(q, d, e, seed=0):
    if not any(d) or not any(e):
        return True
    if q.euler_form(d, e) < 0:
        return False
    for p in REF_PRIMES:
        for k in range(REF_SAMPLES):
            m = sample_representation(q, d, p, derive(seed, "extL", d, e, p, k))
            n = sample_representation(q, e, p, derive(seed, "extR", d, e, p, k))
            if ext_dim(m, n) == 0:
                return True
    if _ref_space(q, d) * _ref_space(q, e) <= REF_CAP:
        return any(ext_dim(m, n) == 0
                   for m in _ref_all_reps(q, d) for n in _ref_all_reps(q, e))
    return False


def _grid(box):
    return [d for d in product(*[range(x + 1) for x in box]) if any(d)]


AGREEMENT_GRIDS = [
    ("kronecker", kronecker(), (6, 6)),
    ("a3", a_n(3), (2, 2, 2)),
    ("affine-a2", affine_a2(), (2, 2, 2)),
    ("kronecker-3", Quiver(2, ((1, 2),) * 3), (2, 2)),
]


@pytest.mark.parametrize("name,q,box", AGREEMENT_GRIDS,
                         ids=[g[0] for g in AGREEMENT_GRIDS])
def test_oracles_agree_with_the_sampled_reference(name, q, box):
    grid = _grid(box)
    for d in grid:
        assert is_schur_root(q, d) == _ref_is_schur_root(q, d), d
    for d in grid:
        for e in grid:
            assert generic_ext_vanishes(q, d, e) == _ref_ext_vanishes(q, d, e), (d, e)


SEMICONTINUITY_BOXES = [(kronecker(), (4, 4)), (affine_a2(), (2, 2, 2)), (a_n(3), (2, 2, 2))]


@st.composite
def _vector_pairs(draw):
    q, box = draw(st.sampled_from(SEMICONTINUITY_BOXES))
    vector = st.tuples(*[st.integers(0, x) for x in box]).filter(any)
    return q, draw(vector), draw(vector), draw(st.integers(0, 2 ** 32))


@settings(max_examples=60, deadline=None)
@given(_vector_pairs())
def test_every_sample_is_at_least_as_special_as_the_generic_value(case):
    # Ext and End dimensions are upper semicontinuous: no representation
    # over F_5 or F_7 has less Ext, or a smaller End, than the general one.
    q, d, e, seed = case
    ext_zero = generic_ext_vanishes(q, d, e)
    schur = q.q_norm(d) > 1 or is_schur_root(q, d)
    for p in (5, 7):
        m = sample_representation(q, d, p, derive(seed, "M", p))
        n = sample_representation(q, e, p, derive(seed, "N", p))
        assert ext_zero or ext_dim(m, n) > 0
        assert schur or hom_dim(m, m) > 1


def test_oracles_build_no_representation(monkeypatch):
    def boom(*_args, **_kwargs):
        raise AssertionError("a decomposition oracle built a representation")

    for name in ("sample_representation", "hom_dim", "ext_dim"):
        monkeypatch.setattr(candecomp, name, boom)
    clear_caches()
    q = affine_a2()
    grid = _grid((3, 3, 3))
    for d in grid:
        is_schur_root(q, d)
        for e in grid:
            generic_ext_vanishes(q, d, e)


@pytest.mark.parametrize("seed", [1.5, True, "1", None])
def test_decomposition_seed_must_be_an_int(kron, seed):
    # `derive` truncated 1.5 and True to the witnesses of seed 1
    with pytest.raises(InputError):
        canonical_decomposition(kron, (2, 2), seed=seed)
    with pytest.raises(InputError):
        derive(seed, "wit")
