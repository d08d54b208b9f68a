from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ellsoule.numutil import (
    ceil_div,
    exact_rational,
    is_prime,
    mod_inverse_reduce,
    parse_rat,
    rat_str,
    vp,
)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_vp_spot():
    assert vp(40, 2) == 3
    assert vp(40, 5) == 1
    assert vp(40, 3) == 0
    assert vp(-81, 3) == 4


@pytest.mark.parametrize("p", [1, 0, -1, -2])
def test_vp_rejects_small_modulus(p):
    with pytest.raises(ValueError):
        vp(12, p)


@given(st.integers(min_value=1, max_value=10**6), st.sampled_from([2, 3, 5, 7]))
def test_vp_divides_exactly(n, p):
    k = vp(n, p)
    assert n % p**k == 0
    assert (n // p**k) % p != 0


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6).filter(lambda d: True))
def test_rat_str_roundtrip(n, d):
    x = Fraction(n, d)
    assert parse_rat(rat_str(x)) == x


def test_rat_str_integer_form():
    # integers print without a slash
    assert rat_str(Fraction(5)) == "5"
    assert rat_str(Fraction(-38, 7)) == "-38/7"


def test_mod_inverse_reduce():
    # 14/5 mod 4: 5^{-1} = 1 mod 4, so 14 mod 4 = 2
    assert mod_inverse_reduce(Fraction(14, 5), 4, 2) == 2
    assert mod_inverse_reduce(Fraction(38, 7), 5, 5) == 4
    assert mod_inverse_reduce(-181, 5, 5) == 4


def test_mod_inverse_reduce_rejects_ell_denominator():
    with pytest.raises(ArithmeticError):
        mod_inverse_reduce(Fraction(1, 2), 2, 2)


@given(st.integers(0, 10**6), st.integers(1, 1000))
def test_ceil_div(a, b):
    assert ceil_div(a, b) == -((-a) // b)


@given(st.floats() | st.booleans() | st.text(max_size=3) | st.decimals())
@example(0.1)
@example(True)
def test_exact_rational_rejects_inexact_input(x):
    with pytest.raises(TypeError):
        exact_rational(x)
    with pytest.raises(TypeError):
        rat_str(x)


@given(st.integers() | st.fractions())
def test_exact_rational_keeps_exact_values(x):
    q = exact_rational(x)
    assert type(q) is Fraction and q == x
