"""Exact integer Laurent-polynomial arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genvar.errors import ConsistencyError, InputError
from genvar.laurent import LaurentPoly, substitute_univariate


def lp(terms):
    return LaurentPoly(2, terms)


def test_zero_coefficients_are_dropped():
    p = lp({(1, 0): 0, (0, 1): 3})
    assert p.terms == {(0, 1): 3}
    assert lp({}) .is_zero()
    assert lp({(2, 2): 0}).is_zero()


def test_constructors():
    assert LaurentPoly.zero(2).terms == {}
    assert LaurentPoly.one(2).terms == {(0, 0): 1}
    assert LaurentPoly.const(2, 5).terms == {(0, 0): 5}
    assert LaurentPoly.const(2, 0).is_zero()
    assert LaurentPoly.variable(2, 1).terms == {(1, 0): 1}
    assert LaurentPoly.variable(2, 2).terms == {(0, 1): 1}
    assert LaurentPoly.monomial(2, (-1, 3), 4).terms == {(-1, 3): 4}


def test_equality_ignores_term_order_and_hash_agrees():
    a = lp({(1, 0): 1, (0, 1): 2})
    b = lp({(0, 1): 2, (1, 0): 1})
    assert a == b
    assert hash(a) == hash(b)
    assert a != lp({(1, 0): 1})


def test_product_difference_of_squares():
    x = LaurentPoly.variable(1, 1)
    one = LaurentPoly.one(1)
    assert (one + x) * (one - x) == one - x * x


def test_binomial_square():
    u1 = LaurentPoly.variable(2, 1)
    u2 = LaurentPoly.variable(2, 2)
    sq = (u1 + u2) ** 2
    assert sq.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_power_zero_and_negative():
    p = lp({(1, 1): 2, (0, 0): 1})
    assert p ** 0 == LaurentPoly.one(2)
    assert p ** 1 == p
    with pytest.raises(InputError):
        p ** -1


def test_negative_exponents_multiply():
    inv = LaurentPoly.monomial(2, (-1, -1))
    u1u2 = LaurentPoly.monomial(2, (1, 1))
    assert inv * u1u2 == LaurentPoly.one(2)


def test_divide_exact_roundtrip():
    x = LaurentPoly.variable(1, 1)
    one = LaurentPoly.one(1)
    a = one + x
    b = one + x * x
    assert (a * b).divide_exact(a) == b
    assert (a * b).divide_exact(b) == a


def test_divide_exact_rejects_nondivisible():
    x = LaurentPoly.variable(1, 1)
    one = LaurentPoly.one(1)
    with pytest.raises(ConsistencyError):
        (one + x + x * x).divide_exact(one + x)


def test_denominator_vector_closed_form(z_closed_form):
    assert z_closed_form.denominator_vector() == (1, 1)
    assert LaurentPoly.monomial(2, (2, -3)).denominator_vector() == (-2, 3)
    assert LaurentPoly.one(2).denominator_vector() == (0, 0)


def test_denominator_vector_additive_on_monomial_scaling():
    p = lp({(-2, 1): 1, (0, 1): 3})
    shifted = p.shift((-1, -4))
    assert shifted.denominator_vector() == (3, 3)


def test_mixed_arity_rejected():
    with pytest.raises(InputError):
        LaurentPoly.one(1) + LaurentPoly.one(2)
    with pytest.raises(InputError):
        lp({(1,): 1})


def test_substitute_univariate_quadratic():
    u = LaurentPoly.variable(1, 1)
    # 2 + 0*x + 1*x^2 evaluated at u
    assert substitute_univariate([2, 0, 1], u) == LaurentPoly(1, {(0,): 2, (2,): 1})
    # at x = u + 1/u the result picks up the trace expansion
    x = LaurentPoly(1, {(1,): 1, (-1,): 1})
    assert substitute_univariate([0, 1], x) == x
    assert substitute_univariate([-2, 0, 1], x) == LaurentPoly(1, {(2,): 1, (-2,): 1})


def test_json_roundtrip(z_closed_form):
    doc = z_closed_form.to_json()
    assert LaurentPoly.from_json(doc) == z_closed_form


small_terms = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-5, 5), max_size=5)


@settings(max_examples=60, deadline=None)
@given(small_terms, small_terms, small_terms)
def test_ring_axioms(ta, tb, tc):
    a, b, c = lp(ta), lp(tb), lp(tc)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == LaurentPoly.zero(2)
    assert a * LaurentPoly.one(2) == a


@settings(max_examples=40, deadline=None)
@given(small_terms)
def test_scale_and_json_roundtrip(ta):
    a = lp(ta)
    assert a.scale(3) == a + a + a
    assert LaurentPoly.from_json(a.to_json()) == a


@settings(max_examples=40, deadline=None)
@given(small_terms, st.integers(0, 4))
def test_power_is_repeated_product(ta, n):
    a = lp(ta)
    expected = LaurentPoly.one(2)
    for _ in range(n):
        expected = expected * a
    assert a ** n == expected
