"""Every Bernoulli closed form is read off `bernoulli_moment_closed`.

The references below write each formula out on its own, in `Fraction`s
through `bern_eval`, as the library once did; the library's versions must
equal them exactly on a full grid of levels, points, weights and smoothing
factors (including c that share a factor with the level).
"""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, strategies as st

from ellsoule.bernoulli import bern_eval, bernoulli_moment_closed, smoothed_b2
from ellsoule.formal import _eis_residue, residue_soule_closed
from ellsoule.numutil import _point

CS = (2, 3, 5, 7, 11, 13)


def frac_part(x):
    return x - (x.numerator // x.denominator)


def ref_smoothed_b2(M, c, x):
    return Fraction(M, 2) * (
        c * c * bern_eval(2, frac_part(Fraction(x, M)))
        - bern_eval(2, frac_part(Fraction(c * x, M)))
    )


def ref_moment_closed(k, N, c, t):
    a = frac_part(Fraction(t, N))
    ca = frac_part(Fraction(c * t, N))
    return (
        Fraction(N) ** (k + 1)
        / (Fraction(c) ** k * (k + 2))
        * (Fraction(c) ** (k + 2) * bern_eval(k + 2, a) - bern_eval(k + 2, ca))
    )


def ref_residue_soule_closed(k, N, c, t):
    a = _point(t, N)[0]
    return Fraction(N ** (k + 1), factorial(k) * (k + 2)) * (
        c * c * bern_eval(k + 2, frac_part(Fraction(a, N)))
        - Fraction(1, c ** k) * bern_eval(k + 2, frac_part(Fraction(c * a, N)))
    )


def ref_eis_residue(k, N, a):
    return -Fraction(N ** k, factorial(k) * (k + 2)) * bern_eval(
        k + 2, frac_part(Fraction(a, N))
    )


@pytest.mark.parametrize("c", CS)
def test_smoothed_b2_matches_reference(c):
    for M in range(1, 131):
        for x in range(-3, M + 3):
            got = smoothed_b2(M, c, x)
            assert type(got) is Fraction and got == ref_smoothed_b2(M, c, x), (M, c, x)


@pytest.mark.parametrize("c", CS)
def test_residue_forms_match_references(c):
    for N in range(1, 12):
        for k in range(9):
            for a in range(-N, 2 * N):
                assert bernoulli_moment_closed(k, N, c, a) == ref_moment_closed(k, N, c, a)
                assert _eis_residue(k, N, a % N) == ref_eis_residue(k, N, a % N)
            for a in range(N):
                for b in range(N):
                    if gcd(c, N) != 1 or (a, b) == (0, 0):
                        # no symbol SouleElliptic(k, N, c, (a, b)): its residue is refused
                        with pytest.raises(ValueError):
                            residue_soule_closed(k, N, c, (a, b))
                        continue
                    got = residue_soule_closed(k, N, c, (a, b))
                    assert got == ref_residue_soule_closed(k, N, c, (a, b)), (k, N, c, a, b)


@given(
    st.integers(-1, 8),
    st.integers(1, 60),
    st.sampled_from(CS + (-7, 49)),
    st.integers(-(10 ** 30), 10 ** 30),
)
@example(-1, 3, 7, -1)
@example(8, 60, 49, 10 ** 30 + 1)
def test_moment_closed_matches_reference_at_any_t(k, N, c, t):
    got = bernoulli_moment_closed(k, N, c, t)
    assert type(got) is Fraction and got == ref_moment_closed(k, N, c, t)


def test_moment_closed_stays_exact_for_negative_k():
    # c^{-1} as an int power would be a float; the closed form keeps Fractions
    got = bernoulli_moment_closed(-1, 3, 7, 1)
    assert type(got) is Fraction and got == ref_moment_closed(-1, 3, 7, 1)


def test_cached_values_never_serve_a_float():
    # 1.0 == 1 and hash(1.0) == hash(1): an untyped cache would answer the
    # float from the int's entry instead of rejecting it
    assert bernoulli_moment_closed(1, 3, 7, 1) == Fraction(38, 7)
    assert smoothed_b2(6, 5, 1) == 2
    with pytest.raises(TypeError):
        bernoulli_moment_closed(1, 3, 7, 1.0)
    with pytest.raises(TypeError):
        smoothed_b2(6, 5, 1.0)
