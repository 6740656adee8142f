"""Exact integer Laurent-polynomial arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genvar.errors import ConsistencyError, InputError
from genvar.laurent import LaurentPoly

substitute_univariate = LaurentPoly.substitute_univariate


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


def test_term_maps_are_read_only():
    # built by the checking constructor and by trusted arithmetic alike
    for p in (lp({(1, 0): 2}), lp({(1, 0): 2}) * lp({(0, 1): 3}), lp({(1, 0): 1}) + lp({})):
        before, h = dict(p.terms), hash(p)
        with pytest.raises(TypeError):
            p.terms[(5, 5)] = 7
        with pytest.raises(TypeError):
            del p.terms[next(iter(p.terms))]
        assert p.terms == before and hash(p) == h


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


@pytest.mark.parametrize("x", [
    lp({(2, -1): 3}),                               # a monomial
    lp({(1, -1): 1, (-1, -1): 1, (-1, 1): 1}),      # negative exponents
    LaurentPoly.zero(2),
], ids=["monomial", "negative-exponents", "zero"])
def test_power_equals_the_repeated_product(x):
    # powers start from their first factor, not from a product by 1;
    # so 0 ** 0 == 1 and 0 ** n == 0 for n > 0
    expected = LaurentPoly.one(2)
    for n in range(7):
        assert x ** n == expected
        expected = expected * x
    assert x ** 1 == x


# A float raised a raw TypeError, and True was read as 1.
@pytest.mark.parametrize("n", [2.0, True, "2", None])
def test_power_needs_an_int(z_closed_form, n):
    with pytest.raises(InputError):
        z_closed_form ** n


@pytest.mark.parametrize("i", [1.0, True, "1", None, 0, 3])
def test_variable_index_needs_an_int_in_range(i):
    with pytest.raises(InputError):
        LaurentPoly.variable(2, i)


@pytest.mark.parametrize("nvars", ["x", 1.0, True, None])
def test_variable_count_is_checked_before_the_index(nvars):
    # "x" raised a raw TypeError from comparing the index with it
    with pytest.raises(InputError):
        LaurentPoly.variable(nvars, 1)


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


# JSON true and false are Python bools, which isinstance(x, int) let
# through: {"exp": [true, 0], "coef": true} was read as u1.
@pytest.mark.parametrize("doc", [
    {"n": 2, "terms": [{"exp": [True, 0], "coef": 1}]},
    {"n": 2, "terms": [{"exp": [1, False], "coef": 1}]},
    {"n": 2, "terms": [{"exp": [1, 0], "coef": True}]},
    {"n": 2, "terms": [{"exp": [1, 0], "coef": 1.0}]},
    {"n": True, "terms": [{"exp": [1], "coef": 1}]},
], ids=["exp-true", "exp-false", "coef-true", "coef-float", "n-true"])
def test_from_json_refuses_bools_and_floats(doc):
    with pytest.raises(InputError):
        LaurentPoly.from_json(doc)
    assert (LaurentPoly.from_json({"n": 2, "terms": [{"exp": [1, 0], "coef": 1}]})
            == LaurentPoly.variable(2, 1))


# A terms field that is not a list of objects raised a raw
# AttributeError ([5]) or TypeError (5).
@pytest.mark.parametrize("terms", [[5], 5, None, "ab", [{"exp": [1, 0], "coef": 1}, [1]]],
                         ids=["list-of-int", "int", "null", "string", "list-with-list"])
def test_from_json_refuses_malformed_terms(terms):
    with pytest.raises(InputError):
        LaurentPoly.from_json({"n": 2, "terms": terms})


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


# ------------------------------------------- against a naive reference

def naive_mul(ta, tb):
    out = {}
    for e1, c1 in ta.items():
        for e2, c2 in tb.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def naive_add(ta, tb, sign=1):
    out = dict(ta)
    for e, c in tb.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def assert_canonical(p, nvars):
    assert p.nvars == nvars
    for exp, coef in p.terms.items():
        assert type(exp) is tuple and len(exp) == nvars
        assert all(type(e) is int for e in exp)
        assert type(coef) is int and coef != 0


three_var_terms = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
    st.integers(-3, 3), max_size=6)


@settings(max_examples=150, deadline=None)
@given(three_var_terms, three_var_terms, st.integers(-4, 4))
def test_arithmetic_matches_a_naive_reference(ta, tb, c):
    a, b = LaurentPoly(3, ta), LaurentPoly(3, tb)
    ta = {e: k for e, k in ta.items() if k}
    tb = {e: k for e, k in tb.items() if k}
    for got, want in ((a * b, naive_mul(ta, tb)),
                      (a + b, naive_add(ta, tb)),
                      (a - b, naive_add(ta, tb, -1)),
                      (-a, {e: -k for e, k in ta.items()}),
                      (a.scale(c), {e: c * k for e, k in ta.items() if c * k})):
        assert got.terms == want
        assert_canonical(got, 3)


@settings(max_examples=60, deadline=None)
@given(three_var_terms)
def test_cancellation_leaves_no_zero_coefficients(ta):
    a = LaurentPoly(3, ta)
    one = LaurentPoly.one(3)
    u1 = LaurentPoly.variable(3, 1)
    # (a*u1 + a) - a*(u1 + 1) cancels every term
    for p in (a - a, a + (-a), a * u1 + a - a * (u1 + one), a.scale(0)):
        assert p.terms == {}
        assert_canonical(p, 3)
    # (1 - u1)(1 + u1) cancels the middle terms of the product
    square = (one - u1) * (one + u1)
    assert square.terms == {(0, 0, 0): 1, (2, 0, 0): -1}


def test_scale_rejects_a_non_integral_factor():
    one = LaurentPoly.one(2)
    assert one.scale(2.0) == one.scale(2)
    for c in (1.5, "2", None, float("nan")):
        with pytest.raises(InputError):
            one.scale(c)


def test_public_constructor_still_validates():
    p = LaurentPoly(2, {(True, 1.0): 2.0, (0, 0): 0})
    assert p.terms == {(1, 1): 2}
    assert_canonical(p, 2)
    with pytest.raises(InputError):
        LaurentPoly(2, {(1, 2, 3): 1})
    with pytest.raises(InputError):
        LaurentPoly.variable(2, 1).shift((1, 2, 3))
    assert LaurentPoly.variable(2, 1).shift([0, -1]).terms == {(1, -1): 1}


@pytest.mark.parametrize("nvars, terms", [(1.5, {}), (True, {(1,): 1}), ("2", {})])
def test_variable_count_must_be_a_positive_int(nvars, terms):
    # 1.5 and True were accepted; "2" raised a raw TypeError
    with pytest.raises(InputError):
        LaurentPoly(nvars, terms)


def nonzero_terms(min_size):
    return st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
        st.integers(-3, 3).filter(bool), min_size=min_size, max_size=6)


@settings(max_examples=150, deadline=None)
@given(three_var_terms, nonzero_terms(1))
def test_divide_exact_recovers_every_factor(ta, tb):
    a, b = LaurentPoly(3, ta), LaurentPoly(3, tb)
    q = (a * b).divide_exact(b)
    assert q == a
    assert_canonical(q, 3)


@settings(max_examples=150, deadline=None)
@given(three_var_terms, nonzero_terms(2),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
       st.integers(-3, 3).filter(bool))
def test_divide_exact_rejects_a_product_plus_a_monomial(ta, tb, exp, coef):
    # a monomial is a unit times an integer, so a divisor of two or more
    # terms never divides a * b + m
    b = LaurentPoly(3, tb)
    m = LaurentPoly.monomial(3, exp, coef)
    with pytest.raises(ConsistencyError):
        (LaurentPoly(3, ta) * b + m).divide_exact(b)
