"""Quiver combinatorics: forms, roots, affine structure, validation."""

import pytest

from genvar import quiver as quiver_mod
from genvar.errors import InputError
from genvar.quiver import (Quiver, WildTypeError, a_n, affine_a2, kronecker,
                           negative_part, positive_part)


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


def test_euler_form_hand_values(kron, a3):
    # <e,f> = sum e_i f_i - sum over arrows e_source f_target
    assert kron.euler_form((1, 0), (0, 1)) == -2
    assert kron.euler_form((0, 1), (1, 0)) == 0
    assert kron.euler_form((1, 1), (1, 1)) == 0
    assert a3.euler_form((1, 1, 0), (0, 1, 1)) == 1 - 1 - 1  # = -1
    assert a3.euler_form((0, 1, 1), (1, 1, 0)) == 1


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
    real = quiver_mod.classify_gram
    monkeypatch.setattr(quiver_mod, "classify_gram",
                        lambda s: calls.append(1) or real(s))
    q = Quiver(3, ((1, 2), (2, 3), (1, 3)))
    for _ in range(3):
        assert q.type_class() == "affine"
        assert q.affine_data().delta == (1, 1, 1)
    assert len(calls) == 2  # the Gram class, then the part without vertex 1
    wild = Quiver(2, ((1, 2), (1, 2), (1, 2)))
    for _ in range(2):
        with pytest.raises(WildTypeError):
            wild.affine_data()
    assert len(calls) == 3
    # the cached values leave equality and hashing to the fields
    fresh = Quiver(3, ((1, 2), (2, 3), (1, 3)))
    assert q == fresh and hash(q) == hash(fresh)
    assert q != wild


def test_topological_order_and_sinks(a3, atilde):
    order = a3.topological_order()
    assert order.index(1) < order.index(2) < order.index(3)
    assert a3.sinks() == [3]
    assert a3.sources() == [1]
    assert atilde.sinks() == [3]


def test_opposite_reverses_arrows(a3):
    op = a3.opposite()
    assert sorted(op.arrows) == [(2, 1), (3, 2)]


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
