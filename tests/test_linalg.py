"""The exact elimination kernels: fraction-free integer elimination over Q
(rank, primitive kernel, solve) against the packed F_p rank."""

from fractions import Fraction
from math import gcd

from hypothesis import given
from hypothesis import strategies as st

from genvar.linalg import kernel_basis, rank_fraction, rank_mod_p, solve

# Every minor of a matrix below is at most (3 sqrt 5)^5 < 13,600 in absolute
# value (Hadamard), so none vanishes mod 65537 and the largest rank mod p
# is the rank over Q.
PRIMES = (2, 3, 65537)


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


def _apply(a, x):
    return [sum(c * v for c, v in zip(row, x)) for row in a]


@given(matrices())
def test_rank_is_the_largest_rank_mod_p_and_fits_the_kernel(a):
    r = rank_fraction(a)
    assert r == max(rank_mod_p(a, p) for p in PRIMES)
    assert r == len(a[0]) - len(kernel_basis(a))


@given(matrices())
def test_kernel_vectors_are_primitive_and_exact(a):
    for v in kernel_basis(a):
        assert gcd(*v) == 1
        assert _apply(a, v) == [0] * len(a)


@given(matrices(), st.data())
def test_solve_is_exact_or_none(a, data):
    if data.draw(st.booleans()):  # a consistent right-hand side
        b = _apply(a, data.draw(st.lists(st.integers(-3, 3), min_size=len(a[0]),
                                         max_size=len(a[0]))))
    else:
        b = data.draw(st.lists(st.integers(-3, 3), min_size=len(a), max_size=len(a)))
    x = solve([list(c) for c in zip(*a)], b)
    r = rank_fraction(a)
    consistent = rank_fraction([row + [v] for row, v in zip(a, b)]) == r
    if r == len(a[0]) and consistent:
        assert x is not None and _apply(a, x) == b
        assert all(isinstance(c, Fraction) for c in x)
    else:
        assert x is None
