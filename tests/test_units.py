"""The smoothed theta unit: expansion, norm compatibility, cusp calculus."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, strategies as st

from ellsoule import units
from ellsoule.bernoulli import bernoulli_measure, smoothed_b2
from ellsoule.cyclotomic import CycloElement, euler_phi
from ellsoule.numutil import ceil_div
from ellsoule.puiseux import PuiseuxSeries
from ellsoule.serialize import cyclo_to_json
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


# -- reference route: the direct assembly, compared with the denominators
# multiplied onto the other side:
#     theta * (1 - q^{x'} zeta^{y'}) * gtilde(x', y')
#         == scalar * q^{e0} * (1 - q^x zeta^y)^{c^2} * gtilde(x, y)^{c^2}
# to the window.  The multiplier has a nonzero constant term, so this fixes
# theta to the window. --------------------------------------------------------


def _one_minus(M, n, zexp, T):
    """1 - q^{n/M} zeta_M^{zexp} at window T."""
    one = CycloElement.rational(M, 1)
    z = CycloElement.zeta_pow(M, zexp)
    terms = {0: one - z} if n == 0 else {0: one, n: -z}
    return PuiseuxSeries(M, T, terms)


def _gtilde(M, u, v, W):
    """gtilde(u, v) through the factors n = 1 .. ceil(W/M) + 1."""
    out = PuiseuxSeries(M, W, {0: 1})
    for n in range(1, ceil_div(W, M) + 2):
        out = out * _one_minus(M, n * M + u, v, W)
        out = out * _one_minus(M, n * M - u, -v, W)
    return out


def _prefactor(M, c, point, trunc):
    """The point, its smoothed image (x', y'), the leading exponent, the window
    past it and the scalar (-zeta^y)^{(c-c^2)/2} (-1)^m zeta^{mcy}."""
    x, y = point[0] % M, point[1] % M
    e0 = units._e0(M, c, x)
    half = (c - c * c) // 2
    carry = (c * x) // M
    scalar = CycloElement.zeta_pow(M, (y * half + carry * c * y) % M)
    if (half + carry) % 2:
        scalar = -scalar
    return x, y, (c * x) % M, (c * y) % M, e0, trunc - e0, scalar


def reference_theta(M, c, point, trunc):
    """(D, N) with theta * D == N to the window `trunc`."""
    x, y, x2, y2, e0, W, scalar = _prefactor(M, c, point, trunc)
    den = _one_minus(M, x2, y2, W) * _gtilde(M, x2, y2, W)
    num = PuiseuxSeries(M, trunc, {e0: scalar}) * (_one_minus(M, x, y, W) ** (c * c))
    return den, num * (_gtilde(M, x, y, W) ** (c * c))


# -- second reference route: the sparse factors as binomial series, each
# multiplied into a running product by PuiseuxSeries.__mul__; the k = -1
# factors of (x', y') are moved onto the theta side as k = 1 ---------------


def _binomial_power(M, e, v, k, W):
    """(1 - q^{e/M} zeta_M^v)^k at window W, for e > 0 and any integer k, read
    off the binomial series: c_i = (-1)^i C(k, i) follows the int recurrence
    c_{i+1} = -c_i (k - i) / (i + 1)."""
    terms = {}
    c = 1
    for i in range(ceil_div(W, e)):
        if not c:
            break
        terms[i * e] = CycloElement.zeta_pow(M, i * v) * c
        c = -c * (k - i) // (i + 1)
    return PuiseuxSeries(M, W, terms)


def reference_factor_product(M, c, point, trunc):
    """(D, N) with theta * D == N to the window `trunc`: D the (x', y')
    factors to the power 1, N = scalar q^{e0} times the (x, y) factors to the
    power c^2.  A factor at e = 0 is a constant."""
    x, y, x2, y2, e0, W, scalar = _prefactor(M, c, point, trunc)
    sides = []
    for u, v, k, lead, const in ((x2, y2, 1, 0, 1), (x, y, c * c, e0, scalar)):
        series = PuiseuxSeries(M, W, {0: 1})
        factors = [(u, v)]
        for n in range(1, W // M + 2):
            factors += [(n * M - u, -v), (n * M + u, v)]
        for e, w in factors:
            if e == 0:
                const = const * (1 - CycloElement.zeta_pow(M, w)) ** k
            elif e < W:
                series = series * _binomial_power(M, e, w, k, W)
        sides.append(PuiseuxSeries(M, W + lead, {lead: const}) * series)
    return sides


def _factor_applied_to_one(M, e, v, k, W):
    """One factor (1 - q^{e/M} zeta^v)^k put through the in-place update of
    `theta_series`, starting from the unit part 1."""
    P = [None] * W
    P[0] = [1] + [0] * (euler_phi(M) - 1)
    units._apply_factor(P, M, e, v, k)
    return PuiseuxSeries(
        M, W, {n: CycloElement(M, num) for n, num in enumerate(P) if num is not None}
    )


@pytest.mark.parametrize("M", [2, 3, 6, 7, 12, 24, 42, 48])
def test_theta_series_matches_reference_assembly(M):
    # every x, x = 0 included, at four windows past the leading exponent;
    # c = 7 where it is coprime to 6M, and y varies with x
    c = 7 if gcd(7, 6 * M) == 1 else 5
    for x in range(M):
        y = (3 * x + 1) % M or 1
        e0 = units._e0(M, c, x)
        for trunc in (e0 + 1, e0 + 4, e0 + 37, e0 + 2 * M + 3):
            got = theta_series(M, c, (x, y), trunc)
            den, num = reference_theta(M, c, (x, y), trunc)
            assert got.T == num.T == trunc
            assert got * den == num, (M, c, x, y, trunc)


@pytest.mark.parametrize(
    "M, c, x, W",
    [
        (2, 5, 1, 300),  # x = M/2: the two factor families share each exponent
        (3, 5, 1, 300),
        (3, 7, 0, 300),  # x = 0: the e = 0 factors are closed constants
        (6, 5, 1, 300),
        (6, 5, 3, 300),
        (7, 5, 1, 300),
        (7, 5, 0, 300),
        (48, 5, 1, 400),
        (48, 5, 24, 400),
        # a dense composite level: the rows of x^k mod Phi_105 are dense, so
        # the seeded monomial -+zeta^s is too
        (105, 11, 0, 300),
        (105, 11, 1, 300),
    ],
)
def test_theta_series_matches_factor_product_at_large_windows(M, c, x, W):
    y = 1
    trunc = units._e0(M, c, x) + W
    got = theta_series(M, c, (x, y), trunc)
    den, num = reference_factor_product(M, c, (x, y), trunc)
    assert got.T == num.T == trunc
    assert got * den == num


@pytest.mark.parametrize("x", [1, 0, 6])  # x = 0 takes the closed constant, 6 = M/2
def test_theta_series_builds_one_series(monkeypatch, x):
    # the prefactor seeds the product and the x = 0 constant goes onto the
    # stored coefficients, so no scale or shift builds a second series
    built = []
    init = PuiseuxSeries.__init__

    def counted(self, M, T, terms):
        built.append((M, T))
        init(self, M, T, terms)

    monkeypatch.setattr(PuiseuxSeries, "__init__", counted)
    trunc = units._e0(12, 5, x) + 30
    f = theta_series(12, 5, (x, 1), trunc)
    assert built == [(12, trunc)]
    assert f.T == trunc


@given(
    st.integers(2, 30),
    st.sampled_from([5, 7, 11, 13]),
    st.integers(0, 29),
    st.integers(0, 29),
    st.integers(1, 40),
)
@example(2, 5, 1, 1, 40)
@example(12, 5, 6, 0, 30)
@example(48, 5, 0, 7, 20)  # x = 0: the e = 0 factors are closed constants
def test_theta_series_matches_reference_property(M, c, x, y, W):
    assume(gcd(c, 6 * M) == 1 and (x % M, y % M) != (0, 0))
    trunc = units._e0(M, c, x % M) + W
    got = theta_series(M, c, (x, y), trunc)
    den, num = reference_theta(M, c, (x, y), trunc)
    assert got.T == num.T == trunc
    assert got * den == num


@pytest.mark.parametrize("M, e, v, W", [(6, 1, 1, 12), (12, 5, 7, 40), (7, 3, -2, 20), (5, 9, 1, 9)])
def test_geometric_factor_inverts_one_minus(M, e, v, W):
    # the k = -1 update (P[n] += zeta^v P[n - e], ascending) is the geometric
    # series of 1 - q^e zeta^v
    inv = _factor_applied_to_one(M, e, v, -1, W)
    prod = inv * _one_minus(M, e, v, W)
    assert prod.T == W
    assert prod == PuiseuxSeries(M, W, {0: 1})


@pytest.mark.parametrize("k", [0, 1, 2, 5, 25])
def test_binomial_factor_is_the_power(k):
    M, e, v, W = 12, 2, 5, 30
    assert _factor_applied_to_one(M, e, v, k, W) == _one_minus(M, e, v, W) ** k


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


@pytest.mark.parametrize("M, d, x", [(6, 2, 1), (6, 3, 1), (12, 2, 6)])
@pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 24])
def test_norm_check_takes_windows_below_the_leading_exponent(M, d, x, window):
    # a window at or below the product's valuation V still gives every factor
    # a window past its leading exponent, and the report keeps that window
    rep = norm_check_theta(M, d, 5, (x, 1), window)
    assert rep == {"ok": True, "window": window, "level": d * M, "mismatches": []}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("window", [0, -3])
def test_norm_check_rejects_a_window_below_one(d, window):
    with pytest.raises(ValueError, match=f"window = {window} must be >= 1"):
        norm_check_theta(6, d, 5, (1, 1), window)


def test_norm_check_names_the_first_mismatch_with_both_values(monkeypatch):
    assert set(norm_check_theta(6, 2, 5, (1, 1), 24)) == {"ok", "window", "level", "mismatches"}
    real = units.theta_series

    def perturbed(M, c, point, trunc):
        # one wrong coefficient in one level-12 preimage
        f = real(M, c, point, trunc)
        if (M, point) == (12, (1, 1)):
            n = min(f.terms) + 3
            f = PuiseuxSeries(M, f.T, {**f.terms, n: f.coeff(n) + 1})
        return f

    monkeypatch.setattr(units, "theta_series", perturbed)
    rep = norm_check_theta(6, 2, 5, (1, 1), 24)
    assert not rep["ok"] and rep["level"] == 12
    first = rep["first_mismatch"]
    n = first["n"]
    assert n == rep["mismatches"][0]
    base = real(6, 5, (1, 1), ceil_div(24, 2) + 3).rescale(12)
    assert first["base"] == cyclo_to_json(base.coeff(n))
    assert first["product"] != first["base"]
    assert first["product"]["M"] == 12


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


@pytest.mark.parametrize("trunc", [0, -4])
def test_epsilon_names_its_own_window(trunc):
    # the error names the window the caller passed, not the theta window trunc + e0
    with pytest.raises(ValueError, match=f"trunc = {trunc} must be >= 1"):
        epsilon_series(2, 1, 3, 5, (1, 0), trunc)
    e = epsilon_series(2, 1, 3, 5, (1, 0), 1)
    assert e.T == 1 and list(e.terms) == [0]


def test_epsilon_paths_check_the_family_once(monkeypatch):
    calls = []
    level = units._level

    def counted(*args):
        calls.append(args)
        return level(*args)

    monkeypatch.setattr(units, "_level", counted)
    epsilon_series(2, 1, 3, 5, (1, 1), 8)
    assert calls == [(2, 1, 3, 5)]
    epsilon_cusp_eval(2, 2, 3, 5, 1)
    assert calls == [(2, 1, 3, 5), (2, 2, 3, 5)]


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


def reference_cusp_value_times_den(M, c, y):
    """The cusp value (-beta)^h (1 - beta)^{c^2} / (1 - beta^c) times its
    denominator, h = (c - c^2)/2 < 0, with (-beta)^h = (-1)^h zeta^{yh}."""
    h = (c - c * c) // 2
    sign = -1 if h % 2 else 1
    return sign * CycloElement.zeta_pow(M, y * h) * (1 - CycloElement.zeta_pow(M, y)) ** (c * c)


@pytest.mark.parametrize("M, c", [(2, 5), (6, 5), (6, 7), (12, 7), (24, 5), (42, 5), (10, 49)])
def test_cusp_value_matches_the_norm_inverse_route(M, c):
    # the closed value times 1 - beta^c, so no inverse is taken
    for y in range(1, M):
        den = 1 - CycloElement.zeta_pow(M, y) ** c
        got = cusp_value_closed(M, c, y) * den
        assert got == reference_cusp_value_times_den(M, c, y), (M, c, y)


def test_residue_measure_equals_bernoulli():
    got = residue_elliptic_soule(2, 1, 3, 5, (1, 1))
    assert got == bernoulli_measure(2, 1, 3, 5, 1)
    # the fiber over t = (0, 1) contains x = 0
    assert residue_elliptic_soule(2, 2, 3, 5, (0, 1)) == bernoulli_measure(2, 2, 3, 5, 0)


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


@pytest.mark.parametrize("bad", [1.7, 1.0, True, Fraction(1), "1"])
def test_coordinates_must_be_ints(bad):
    # int(1.7) and int(True) used to turn these into the point (1, 1)
    with pytest.raises(TypeError, match="must be an int"):
        theta_series(6, 5, (bad, 1), 12)
    with pytest.raises(TypeError, match="must be an int"):
        theta_series(6, 5, (1, bad), 12)
    with pytest.raises(TypeError, match="must be an int"):
        norm_check_theta(3, 2, 5, (bad, 1), 12)
    with pytest.raises(TypeError, match="must be an int"):
        residue_elliptic_soule(2, 1, 3, 5, (bad, 1))
    with pytest.raises(TypeError, match="must be an int"):
        epsilon_series(2, 1, 3, 5, (1, bad), 8)
    with pytest.raises(TypeError, match="must be an int"):
        epsilon_cusp_eval(2, 1, 3, 5, bad)
    with pytest.raises(TypeError, match="must be an int"):
        cusp_value_closed(6, 5, bad)
    with pytest.raises(TypeError, match="must be an int"):
        cusp_square_check(6, 5, bad)


def test_float_coordinate_is_not_truncated():
    # cusp_value_closed(6, 5, 1.9) used to equal the value at y = 1
    with pytest.raises(TypeError):
        cusp_value_closed(6, 5, 1.9)
    with pytest.raises(TypeError):
        theta_series(6, 5, (1.7, True), 12)
    assert theta_series(6, 5, (7, -5), 12) == theta_series(6, 5, (1, 1), 12)
