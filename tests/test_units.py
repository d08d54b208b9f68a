"""The smoothed theta unit: expansion, norm compatibility, cusp calculus."""

from fractions import Fraction

import pytest

from ellsoule import units
from ellsoule.bernoulli import bernoulli_measure, smoothed_b2
from ellsoule.cyclotomic import CycloElement
from ellsoule.units import (
    RatFun,
    cusp_square_check,
    cusp_value_closed,
    epsilon_cusp_eval,
    epsilon_series,
    eta_exponent,
    norm_check_theta,
    norm_under_power,
    residue_elliptic_soule,
    theta_qexp,
    theta_series,
    xi,
    xi_c,
)


def test_theta_argument_validation():
    with pytest.raises(ValueError):
        theta_series(6, 4, (1, 1), 12)  # gcd(c, 6M) != 1
    with pytest.raises(ValueError):
        theta_series(6, 5, (0, 0), 12)  # no expansion at the origin
    with pytest.raises(ValueError):
        theta_series(6, 5, (1, 1), 2)  # window below the leading exponent


def test_theta_leading_term():
    # level 6, c = 5, point (1,1): valuation 2/6 with coefficient zeta_6^2
    f = theta_series(6, 5, (1, 1), 12)
    assert f.valuation() == Fraction(1, 3)
    assert f.coeff(2) == CycloElement.zeta_pow(6, 1) ** 2


def test_theta_leading_term_with_carry():
    # c = 7 pushes cx past the level: the reduction carry enters the scalar
    g = theta_series(6, 7, (1, 1), 16)
    assert min(g.terms) == 4
    assert g.coeff(4) == CycloElement.zeta_pow(6, 1) ** 4


def test_theta_qexp_valuation_spot():
    f = theta_qexp(2, 1, 3, 5, (1, 1), 12)
    assert f.valuation() == Fraction(1, 3)
    assert f.T == 12


def test_theta_valuations_follow_smoothed_b2():
    M = 6
    for x in range(M):
        for y in range(M):
            if (x, y) == (0, 0):
                continue
            f = theta_series(M, 5, (x, y), 16)
            assert f.valuation() == Fraction(int(smoothed_b2(M, 5, x)), M)


def test_norm_compatibility_small():
    assert norm_check_theta(3, 2, 5, (1, 1), 12)["ok"]
    assert norm_check_theta(3, 2, 7, (1, 1), 8)["ok"]
    assert norm_check_theta(4, 3, 5, (1, 1), 8)["ok"]


def test_eta_exponent_matches_prefactor():
    for x in range(6):
        assert eta_exponent(2, 1, 3, 5, x) == int(smoothed_b2(6, 5, x))


def test_eta_exponent_rejects_non_integral_value():
    # level 1, c = 2: the smoothed B_2 value at 0 is 1/4; no (ell, N, c)
    # family reaches it, so the check is called directly
    assert smoothed_b2(1, 2, 0) == Fraction(1, 4)
    with pytest.raises(ValueError, match="not an integer exponent"):
        units._e0(1, 2, 0)


def test_negative_level_exponent_is_rejected():
    # ell^r * N = 2.5 used to reach math.gcd as a float (TypeError)
    with pytest.raises(ValueError, match="r = -1"):
        theta_qexp(2, -1, 5, 7, (1, 0), 10)
    with pytest.raises(ValueError, match="r = -1"):
        epsilon_series(2, -1, 5, 7, (1, 0), 10)


def test_epsilon_is_normalized():
    e = epsilon_series(2, 1, 3, 5, (1, 1), 8)
    assert e.valuation() == 0
    assert not e.constant_term().is_zero()


def test_cusp_value_power_of_two():
    # beta = -1 collapses the cusp value to an explicit power of two
    assert cusp_value_closed(6, 5, 3) == CycloElement.rational(6, 2**24)


@pytest.mark.parametrize("ell, r", [(4, 1), (1, 3), (9, 0), (0, 1), (-2, 1)])
def test_non_prime_ell_is_rejected(ell, r):
    with pytest.raises(ValueError, match=f"ell = {ell} must be prime"):
        theta_qexp(ell, r, 3, 5, (1, 0), 10)
    with pytest.raises(ValueError, match=f"ell = {ell} must be prime"):
        epsilon_series(ell, r, 3, 5, (1, 0), 10)
    with pytest.raises(ValueError, match=f"ell = {ell} must be prime"):
        eta_exponent(ell, r, 3, 5, 1)
    with pytest.raises(ValueError, match=f"ell = {ell} must be prime"):
        epsilon_cusp_eval(ell, r, 3, 5, 1)
    with pytest.raises(ValueError, match=f"ell = {ell} must be prime"):
        residue_elliptic_soule(ell, r, 3, 5, (1, 1))


@pytest.mark.parametrize(
    "ell, N, c, match",
    [(2, 4, 5, "gcd"), (3, 3, 5, "gcd"), (2, 3, 3, "coprime"), (2, 3, 1, "coprime")],
)
def test_family_outside_the_checks_is_rejected(ell, N, c, match):
    # every level entry point checks the (ell, N, c) family before it
    # forms M = ell^r N; eta_exponent(2, 1, 3, 3, 1) used to return 1
    for call in (
        lambda: theta_qexp(ell, 1, N, c, (1, 1), 10),
        lambda: eta_exponent(ell, 1, N, c, 1),
        lambda: epsilon_series(ell, 1, N, c, (1, 1), 10),
        lambda: epsilon_cusp_eval(ell, 1, N, c, 1),
        lambda: residue_elliptic_soule(ell, 1, N, c, (1, 1)),
    ):
        with pytest.raises(ValueError, match=match):
            call()


def test_cusp_value_rejects_origin():
    with pytest.raises(ValueError):
        cusp_value_closed(6, 5, 0)


def test_cusp_eval_matches_closed_form():
    for r in (1, 2):
        M = 2**r * 3
        for y in range(1, M):
            v = epsilon_cusp_eval(2, r, 3, 5, y)
            assert v == cusp_value_closed(M, 5, y)


def test_cusp_eval_with_odd_half_exponent():
    # c = 7 has (c - c^2)/2 odd, exercising the sign of the closed form
    for y in range(1, 6):
        epsilon_cusp_eval(2, 1, 3, 7, y)


def test_cusp_squaring_identity():
    for y in range(1, 12):
        assert cusp_square_check(12, 5, y)


def test_residue_measure_equals_bernoulli():
    got = residue_elliptic_soule(2, 1, 3, 5, (1, 1))
    assert got == bernoulli_measure(2, 1, 3, 5, 1)


def test_residue_measure_ignores_second_coordinate():
    a = residue_elliptic_soule(2, 1, 3, 5, (1, 0))
    b = residue_elliptic_soule(2, 1, 3, 5, (1, 2))
    assert a == b


def test_ratfun_equality_by_cross_multiplication():
    a = RatFun([1, -1], [1])
    b = RatFun([2, -2], [2])
    assert a == b
    with pytest.raises(TypeError):
        hash(a)


def test_norm_fixes_xi():
    for d in (2, 3):
        assert norm_under_power(xi(), d) == xi()


def test_norm_fixes_smoothed_xi():
    assert norm_under_power(xi_c(5), 2) == xi_c(5)
