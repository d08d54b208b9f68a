from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from ellsoule.bernoulli import (
    _bern_ints,
    _bern_num,
    bern_eval,
    bernoulli_measure,
    bernoulli_moment_closed,
    bernoulli_poly,
    smoothed_b2,
)
from ellsoule.measures import integrate, trace
from ellsoule.numutil import mod_inverse_reduce


def test_bernoulli_poly_spot():
    # B_4(x) = x^4 - 2x^3 + x^2 - 1/30
    assert bernoulli_poly(4) == (
        Fraction(-1, 30),
        Fraction(0),
        Fraction(1),
        Fraction(-2),
        Fraction(1),
    )


@given(st.floats() | st.booleans())
@example(0.1)
@example(True)
def test_bern_eval_rejects_inexact_input(x):
    with pytest.raises(TypeError):
        bern_eval(2, x)


residues = st.integers(1, 1000).flatmap(lambda N: st.tuples(st.just(N), st.integers(0, N - 1)))


@given(st.integers(0, 12), residues)
@example(0, (1, 0))
@example(12, (1000, 999))
def test_int_numerators_are_bernoulli_values(n, Na):
    # B_n(a/N) = R(a, N) / (D N^n) for every residue a
    N, a = Na
    b, D = _bern_ints(n)
    assert len(b) == n + 1 and D > 0
    assert Fraction(_bern_num(b, a, N), D * N ** n) == bern_eval(n, Fraction(a, N))


@pytest.mark.parametrize(
    "args",
    [(1, 3, 7, 1.0), (1, 3, 7, True), (1, 3, 7.0, 1), (1, 3, True, 1), (1, 3.0, 7, 1),
     (1, True, 7, 1), (1.0, 3, 7, 1), (True, 3, 7, 1)],
)
def test_closed_moment_rejects_inexact_arguments(args):
    # a bool t used to be read as 0 or 1
    with pytest.raises(TypeError):
        bernoulli_moment_closed(*args)


@pytest.mark.parametrize(
    "args, named",
    [((-2, 3, 7, 1), "k = -2"),  # used to raise ZeroDivisionError: Fraction(0, 0)
     ((-5, 3, 7, 1), "k = -5"),
     ((1, 0, 7, 1), "N = 0"),  # used to raise integer modulo by zero
     ((1, -3, 7, 1), "N = -3"),
     ((1, 3, 0, 1), "c = 0"),  # c^k divides: used to raise ZeroDivisionError
     ((-1, 3, 0, 1), "c = 0")],
)
def test_closed_moment_names_a_bad_argument(args, named):
    with pytest.raises(ValueError, match=named):
        bernoulli_moment_closed(*args)


def test_closed_moment_keeps_its_edge_values():
    # k = -1 is kept exact, and c = 0 has a value at k = 0 (no power of c divides)
    # k = -1: c (c B_1(1/3) - B_1(7/3 mod 1)), with B_1(1/3) = -1/6
    assert bernoulli_moment_closed(-1, 3, 7, 1) == 7 * (7 - 1) * Fraction(-1, 6)
    assert bernoulli_moment_closed(0, 6, 0, 1) == smoothed_b2(6, 0, 1) == Fraction(-1, 2)


def test_bern_eval_spots():
    assert bern_eval(3, Fraction(1, 3)) == Fraction(1, 27)
    assert bern_eval(4, Fraction(1, 3)) == Fraction(13, 810)
    assert bern_eval(2, Fraction(0)) == Fraction(1, 6)


@given(st.integers(1, 8), st.fractions(max_denominator=24))
def test_bernoulli_derivative_recurrence(k, x):
    # B_k(x+1) - B_k(x) = k x^{k-1}
    assert bern_eval(k, x + 1) - bern_eval(k, x) == k * x ** (k - 1)


@given(st.integers(0, 8))
def test_bernoulli_reflection(k):
    # B_k(1 - x) = (-1)^k B_k(x)
    x = Fraction(2, 7)
    assert bern_eval(k, 1 - x) == (-1) ** k * bern_eval(k, x)


@given(st.integers(1, 6), st.sampled_from([2, 3, 5]), st.fractions(max_denominator=6))
def test_bernoulli_distribution_relation(k, m, x):
    # m^{k-1} sum_{j<m} B_k((x+j)/m) = B_k(x)
    total = sum(bern_eval(k, (x + j) / m) for j in range(m))
    assert Fraction(m) ** (k - 1) * total == bern_eval(k, x)


@given(
    st.sampled_from([6, 12, 15]),
    st.sampled_from([5, 7, 11]),
    st.integers(0, 29),
)
def test_smoothed_b2_integral(M, c, x):
    # (M/2)(c^2 B_2({x/M}) - B_2({cx/M})) is an integer when gcd(c, 6) = 1
    v = smoothed_b2(M, c, x % M)
    assert v.denominator == 1


def test_smoothed_b2_spot():
    # at M = 6, c = 5, x = 1: e0 = 2 (the leading exponent of the unit there)
    assert smoothed_b2(6, 5, 1) == 2


def test_measure_values_frozen():
    mu = bernoulli_measure(5, 1, 3, 7, 1)
    got = [mu.values[(x,)] for x in (1, 4, 7, 10, 13)]
    assert got == [39, -11, -30, -20, 18]
    assert integrate(mu, lambda x: Fraction(x)) == -181


def test_measure_trace_tower():
    # pushing the level-(r+1) measure down one level recovers level r
    for ell, N, c in [(2, 3, 5), (3, 4, 5), (2, 5, 7)]:
        for r in (1, 2):
            hi = bernoulli_measure(ell, r, N, c, 1)
            lo = bernoulli_measure(ell, r - 1, N, c, 1)
            assert trace(hi) == lo


def test_closed_moment_spot():
    assert bernoulli_moment_closed(1, 3, 7, 1) == Fraction(38, 7)
    assert mod_inverse_reduce(Fraction(38, 7), 5, 5) == 4


@given(
    st.sampled_from([(2, 3, 5), (2, 3, 7), (3, 4, 5), (5, 3, 7)]),
    st.integers(1, 2),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_moment_congruence(family, r, t, k):
    # finite fiber sums match the closed Bernoulli expression mod ell^r
    ell, N, c = family
    t = t % N
    mu = bernoulli_measure(ell, r, N, c, t)
    finite = integrate(mu, lambda x: Fraction(x) ** k)
    closed = bernoulli_moment_closed(k, N, c, t)
    q = ell**r
    assert mod_inverse_reduce(finite - closed, q, ell) == 0
