"""The smoothed theta unit: expansion, norm compatibility, cusp calculus."""

import re
import sys
from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import assume, example, given, strategies as st

from ellsoule import bernoulli, units, verify
from ellsoule.bernoulli import bernoulli_measure, smoothed_b2
from ellsoule.cyclotomic import CycloElement
from ellsoule.measures import Measure, torsor_elements
from ellsoule.numutil import ceil_div
from ellsoule.puiseux import PuiseuxSeries
from ellsoule.serialize import cyclo_to_json
from ellsoule.units import (
    cusp_square_check,
    cusp_value_closed,
    epsilon_cusp_eval,
    epsilon_series,
    eta_exponent,
    norm_check_theta,
    residue_elliptic_soule,
    theta_qexp,
    theta_series,
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
    e0 = int(smoothed_b2(M, c, x))  # the Bernoulli route, not the library's _e0
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
    """One factor (1 - q^{e/M} zeta^v)^k put through the row kernel of
    `theta_series`, starting from 1, and the row length h it ran at.

    The factor is t q^b for t = q^{x/M} zeta^y, (x, y) = (e mod M, v mod M):
    with g = gcd(x, M) (M at x = 0), q^{n/M} is reached by t-exponents
    A = (n/g) inv + j M/g, and row n, slot j is the coefficient of
    zeta^{A y}; zeta^{(M/g) y} has order h = g / gcd(g, y)."""
    x, y = e % M, v % M
    g = gcd(x, M)
    step, h = M // g, g // gcd(g, y)
    inv = pow(x // g, -1, step)
    P = [0] * W if h == 1 else [None] * W
    P[0] = 1 if h == 1 else [1] + [0] * (h - 1)
    units._mul_factor(P, h, e, k, (1 - e // g * inv) // step)
    terms = {}
    for n, row in enumerate(P):
        for j, a in enumerate([row] if h == 1 else row or []):
            z = CycloElement.zeta_pow(M, (n // g * inv + j * step) * y)
            terms[n] = terms.get(n, 0) + a * z
    return PuiseuxSeries(M, W, terms), h


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
        # g = gcd(x, M) > 1 with g not dividing y: each coefficient is a row
        # of h = g > 1 slots, moved by the factors' slot shifts
        (48, 5, 6, 400),
        (105, 11, 15, 300),
        (105, 11, 35, 300),
        (12, 5, 4, 300),
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
@example(12, 5, 4, 1, 40)  # gcd(x, M) > 1: rows of h = 4 slots
@example(30, 7, 10, 3, 40)  # h = 10
@example(24, 5, 6, 4, 40)  # h = 6 / gcd(6, 4) = 3
def test_theta_series_matches_reference_property(M, c, x, y, W):
    assume(gcd(c, 6 * M) == 1 and (x % M, y % M) != (0, 0))
    trunc = units._e0(M, c, x % M) + W
    got = theta_series(M, c, (x, y), trunc)
    den, num = reference_theta(M, c, (x, y), trunc)
    assert got.T == num.T == trunc
    assert got * den == num


@pytest.mark.parametrize(
    "M, e, v, W",
    [
        (6, 1, 1, 12),
        (12, 5, 7, 40),
        (7, 3, -2, 20),
        (5, 9, 1, 9),
        # rows of length h = 2, 3, 6, 6 (the last at x = 0)
        (12, 14, 1, 40),
        (18, 21, 2, 50),
        (12, 6, 1, 30),
        (6, 12, 1, 40),
    ],
)
def test_geometric_factor_inverts_one_minus(M, e, v, W):
    # the k = -1 update (P[n] += w^r P[n - e], ascending) is the geometric
    # series of 1 - q^e zeta^v
    inv, _ = _factor_applied_to_one(M, e, v, -1, W)
    prod = inv * _one_minus(M, e, v, W)
    assert prod.T == W
    assert prod == PuiseuxSeries(M, W, {0: 1})


@pytest.mark.parametrize("k", [0, 1, 2, 5, 25])
def test_binomial_factor_is_the_power(k):
    M, e, v, W = 12, 2, 5, 30
    got, h = _factor_applied_to_one(M, e, v, k, W)
    assert h == 2
    assert got == _one_minus(M, e, v, W) ** k


@pytest.mark.parametrize(
    "M, e, v, h", [(6, 1, 1, 1), (12, 14, 1, 2), (18, 21, 2, 3), (12, 6, 1, 6), (6, 12, 1, 6)]
)
@pytest.mark.parametrize("k", [1, 3, 25])
def test_binomial_factor_on_rows_of_each_length(M, e, v, h, k):
    W = 60
    got, length = _factor_applied_to_one(M, e, v, k, W)
    assert length == h
    assert got == _one_minus(M, e, v, W) ** k


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


@pytest.mark.parametrize(
    "M, d, x", [(6, 2, 1), (6, 3, 1), (12, 2, 6), (6, 2, 0), (6, 1, 0), (6, 1, 1)]
)
@pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 24])
def test_norm_check_takes_windows_below_the_leading_exponent(M, d, x, window):
    # a window past the base's leading exponent d e0 but at or below the
    # product's valuation V still gives every factor a window past its leading
    # exponent, and the report keeps that window; a window at or below d e0
    # would compare no coefficient, and is refused (the x = 0 base leads at
    # q^2, 24 units of q^{1/12}: window 24 there used to report ok: True)
    lead = d * units._e0(M, 5, x)
    leads = {
        (6, 2, 1): 4, (6, 3, 1): 6, (12, 2, 6): -24, (6, 2, 0): 24, (6, 1, 0): 12, (6, 1, 1): 2,
    }
    assert lead == leads[M, d, x]
    if window <= lead:
        refusal = f"window = {window} must exceed the leading exponent {lead} "
        with pytest.raises(ValueError, match=refusal):
            norm_check_theta(M, d, 5, (x, 1), window)
        return
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


@pytest.mark.parametrize(
    "M, d, c, point, window",
    [
        (6, 2, 5, (1, 1), 24),
        (3, 2, 5, (1, 1), 13),  # span/d not an integer: the base runs one past
        (4, 3, 5, (1, 1), 8),
        (3, 3, 7, (1, 2), 40),
        (6, 2, 5, (0, 1), 60),
    ],
)
def test_norm_check_builds_each_series_at_its_exact_window(monkeypatch, M, d, c, point, window):
    # the base at ceil(span/d), preimage (i, j) at span - (V - lead_ij), and
    # their product exactly at the window: no factor carries a spare window
    built = []
    real = units.theta_series

    def recorded(M2, c2, pt, trunc):
        built.append((M2, pt, trunc, real(M2, c2, pt, trunc)))
        return built[-1][-1]

    monkeypatch.setattr(units, "theta_series", recorded)
    rep = norm_check_theta(M, d, c, point, window)
    x, y = point
    lead = {(i, j): units._e0(d * M, c, x + i * M) for i in range(d) for j in range(d)}
    V = sum(lead.values())
    assert window > V
    assert [b[:3] for b in built] == [(M, point, ceil_div(window, d))] + [
        (d * M, (x + i * M, y + j * M), window - (V - lead[i, j]))
        for i in range(d)
        for j in range(d)
    ]
    prod = built[1][-1]
    for b in built[2:]:
        prod = prod * b[-1]
    assert prod.T == window
    assert rep == {"ok": True, "window": window, "level": d * M, "mismatches": []}


def test_units_suite_reads_the_coefficients_past_the_lead_at_x0(monkeypatch):
    # every coefficient past the leading one doubled at x = 0: the cusp rows
    # read only constant terms and the other norm rows sit at x = 1, so only
    # the x = 0 norm rows can see it
    real = units.theta_series

    def doubled(M, c, point, trunc):
        f = real(M, c, point, trunc)
        if point[0] % M == 0:
            lead = min(f.terms)
            f = PuiseuxSeries(M, f.T, {n: a if n == lead else a + a for n, a in f.terms.items()})
        return f

    monkeypatch.setattr(units, "theta_series", doubled)
    rep = verify.run_suites(["units"])
    assert len(rep["cases"]) == 27
    assert [r["case"] for r in rep["cases"] if not r["pass"]] == [
        "norm_x0_3_to_6", "norm_x0_6_to_12", "norm_x0_3_to_9", "norm_x0_6_to_18",
    ]


@pytest.mark.parametrize("c, windows", [(5, [12, 24]), (11, [12, 24]), (13, [12, 52])])
def test_units_norm_rows_reach_past_the_base_lead(c, windows):
    # at c = 13 the level-6 base leads at 2 e0 = 28 units of q^{1/12}: the
    # x = 1 row's window 24 compared nothing, and now runs 24 past the lead
    rep = verify.suite_units(2, 3, c)
    rows = [r for r in rep["cases"] if r["case"].startswith("norm_")]
    assert len(rep["cases"]) == 27 and len(rows) == 6 and all(r["pass"] for r in rows)
    assert [r["window"] for r in rows[:2]] == windows
    e = (c * c - 1) // 12
    assert [r["window"] for r in rows[2:]] == [d * b * (e + 3) for d in (2, 3) for b in (3, 6)]


def test_eta_exponent_matches_prefactor():
    for x in range(6):
        assert eta_exponent(2, 1, 3, 5, x) == int(smoothed_b2(6, 5, x))


def test_eta_exponent_rejects_non_integral_value():
    # level 1, c = 2: the smoothed B_2 value at 0 is 1/4; no (ell, N, c)
    # family reaches it, so the check is called directly
    assert smoothed_b2(1, 2, 0) == Fraction(1, 4)
    with pytest.raises(ValueError, match="not an integer exponent"):
        units._e0(1, 2, 0)


@pytest.mark.parametrize("M", range(2, 49))
def test_int_leading_exponent_is_the_smoothed_b2_value(M):
    # _e0 is the triple-product exponent; smoothed_b2 is the Bernoulli route
    for c in range(5, 50):
        if gcd(c, 6 * M) == 1:
            for x in range(M):
                e0 = units._e0(M, c, x)
                assert type(e0) is int and e0 == smoothed_b2(M, c, x), (M, c, x)


@given(
    st.integers(2, 1000),
    st.sampled_from([c for c in range(5, 50) if gcd(c, 6) == 1]),
    st.integers(0, 999),
)
@example(997, 49, 996)
@example(1000, 49, 999)
def test_int_leading_exponent_is_the_smoothed_b2_value_property(M, c, x):
    assume(gcd(c, M) == 1)
    e0 = units._e0(M, c, x)
    assert type(e0) is int and e0 == smoothed_b2(M, c, x % M)


@pytest.mark.parametrize("bad", [1.0, True])
def test_leading_exponent_rejects_float_and_bool_coordinates(bad):
    # without the coordinate check, 1.0 gave the exponent 2.0 and True gave 2
    with pytest.raises(TypeError, match="must be an int"):
        eta_exponent(2, 1, 3, 5, bad)
    with pytest.raises(TypeError, match="must be an int"):
        units._e0(6, 5, bad)


# the residues suite's cases, r = 0 included
RESIDUE_CASES = ((2, 1, 3, 5), (2, 2, 3, 5), (3, 1, 4, 5), (2, 0, 3, 5))


@pytest.mark.parametrize("ell, r, N, c", RESIDUE_CASES)
def test_residue_route_builds_one_series_per_fiber_point_and_lift(monkeypatch, ell, r, N, c):
    calls = []

    def counted(*args):
        calls.append(args)
        return theta_series(*args)

    monkeypatch.setattr(units, "theta_series", counted)
    for t in ((t1, t2) for t1 in range(N) for t2 in range(N) if (t1, t2) != (0, 0)):
        calls.clear()
        assert residue_elliptic_soule(ell, r, N, c, t) == bernoulli_measure(ell, r, N, c, t[0])
        assert len(calls) == ell ** (2 * r), t


def test_residue_route_reads_the_assembled_series(monkeypatch):
    # a series one step past its closed leading exponent must move the measure
    monkeypatch.setattr(units, "theta_series", lambda *a: theta_series(*a).shift(1))
    assert residue_elliptic_soule(2, 1, 3, 5, (1, 1)) != bernoulli_measure(2, 1, 3, 5, 1)
    assert not verify.run_suites(["residues"])["all_pass"]


def test_a_wrong_bernoulli_exponent_fails_residues_and_the_valuation_rows(monkeypatch):
    # smoothed_b2 + M at x == 1 (mod M), in every module that holds the
    # helper: theta_series places its lead by the triple product, so the
    # residue rows and the valuation rows compare two routes and see it
    real = bernoulli._moment_ints

    def shifted(k, N, c, a):
        n, d = real(k, N, c, a)
        return (n + N * d, d) if k == 0 and a % N == 1 else (n, d)

    mods = [m for name, m in sys.modules.items() if name.startswith("ellsoule")]
    for mod in mods:
        if getattr(mod, "_moment_ints", None) is real:
            monkeypatch.setattr(mod, "_moment_ints", shifted)
    caches = [f for mod in mods for f in vars(mod).values() if hasattr(f, "cache_clear")]
    for f in caches:
        f.cache_clear()
    try:
        residues = verify.run_suites(["residues"])["cases"]
        unit_rows = verify.run_suites(["units"])["cases"]
    finally:
        for f in caches:
            f.cache_clear()
    failed = {r["case"] for r in residues if not r["pass"]}
    assert {f"residue_ell2_r1_N3_c5_t1_{t2}" for t2 in range(3)} <= failed
    assert "theta_valuations_level6" in {r["case"] for r in unit_rows if not r["pass"]}


def test_residue_route_rejects_a_zero_series(monkeypatch):
    monkeypatch.setattr(units, "theta_series", lambda M, c, p, T: PuiseuxSeries(M, T, {}))
    with pytest.raises(ValueError, match="zero to its truncation order"):
        residue_elliptic_soule(2, 1, 3, 5, (1, 1))


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


@pytest.mark.parametrize(
    "M, c, y, match",
    [
        (6, 1, 1, "need c > 1"),
        (6, 3, 1, "need c > 1"),
        (6, -5, 1, "need c > 1"),
        (6, 2, 3, "need c > 1"),  # used to divide by 1 - zeta^6 = 0
        (6, 0, 1, "need c > 1"),
        (0, 5, 1, "level must be >= 2"),
        (6, 5, 6, "beta = 1"),
    ],
)
@pytest.mark.parametrize("fn", [cusp_value_closed, cusp_square_check])
def test_cusp_functions_check_the_family(fn, M, c, y, match):
    # cusp_value_closed(6, 1, 1) used to return 1 and (6, 3, 1) -1/2
    with pytest.raises(ValueError, match=match):
        fn(M, c, y)


def test_cusp_square_check_checks_the_family_once(monkeypatch):
    calls = []
    check = units._check_theta_args

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(units, "_check_theta_args", counted)
    assert cusp_square_check(12, 5, 7)
    assert len(calls) == 1


def test_the_cusp_square_judge_fails_a_wrong_cusp_value(monkeypatch):
    # a negative control: the closed cusp value doubled at y = 1 fails the
    # square identity there, and so exactly the units suite's two y = 1 rows
    real = units.cusp_value_closed

    def doubled(M, c, y):
        v = real(M, c, y)
        return v + v if y % M == 1 else v

    monkeypatch.setattr(units, "cusp_value_closed", doubled)
    assert not cusp_square_check(6, 5, 1) and cusp_square_check(6, 5, 2)
    rep = verify.suite_units()
    assert len(rep["cases"]) == 27
    assert [r["case"] for r in rep["cases"] if not r["pass"]] == [
        "cusp_value_r1_y1", "cusp_value_r2_y1",
    ]


def test_cusp_eval_matches_closed_form():
    for r in (1, 2):
        M = 2**r * 3
        for y in range(1, M):
            v = epsilon_cusp_eval(2, r, 3, 5, y)
            assert v == cusp_value_closed(M, 5, y)


def test_cusp_eval_with_odd_half_exponent():
    # c = 7 has (c - c^2)/2 odd, exercising the sign of the closed form
    for y in range(1, 6):
        assert epsilon_cusp_eval(2, 1, 3, 7, y) == cusp_value_closed(6, 7, y)


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


# -- the product, built once per (M, c, x, W, h), and the cusp constant ------

CACHES = (units._plan, units._xi_c_at)


def _clear_caches():
    for f in CACHES:
        f.cache_clear()


def _cache_grid():
    """Shuffled (M, c, point, trunc): levels 2-48, c in {5, 7, 11} where
    admissible, two y at each of x = 0, x = 1 (prime to M) and x = the least
    proper divisor d of M (h = d / gcd(d, y) > 1 at y = 1), windows from
    e0 + 1 to e0 + 3M."""
    rng = Random(31)
    grid = []
    for M in range(2, 49):
        d = next((d for d in range(2, M) if M % d == 0), None)
        for c in (5, 7, 11):
            if gcd(c, 6 * M) != 1:
                continue
            xs = (0, 1) if d is None else (0, 1, d)
            for x in xs:
                e0 = units._e0(M, c, x)
                for y in (1, rng.randrange(M)) if x else (1, rng.randrange(1, M)):
                    for W in (1, rng.randrange(1, 3 * M + 1), 3 * M):
                        grid.append((M, c, (x, y), e0 + W))
    rng.shuffle(grid)
    return grid


def test_warm_caches_build_the_series_cold_caches_build():
    grid = _cache_grid()
    _clear_caches()
    warm = []
    for args in grid:
        theta_series(*args)
        warm.append(theta_series(*args))  # its plan (and any Xi) is now cached
    assert units._plan.cache_info().hits >= len(grid)
    assert units._xi_c_at.cache_info().hits > 0
    for args, f in zip(grid, warm):
        _clear_caches()
        assert theta_series(*args) == f, args
    _clear_caches()


def test_both_caches_are_bounded():
    assert units._plan.cache_info().maxsize == units._PLANS > 0
    assert units._xi_c_at.cache_info().maxsize == units._XIS > 0


@pytest.mark.parametrize("bad", [6.0, True])
@pytest.mark.parametrize(
    "args",
    [
        lambda b: (b, 5, (1, 1), 12),
        lambda b: (6, b, (1, 1), 12),
        lambda b: (6, 5, (b, 1), 12),
        lambda b: (6, 5, (0, b), 12),
        lambda b: (6, 5, (1, 1), b),
    ],
    ids=["M", "c", "x", "y", "trunc"],
)
def test_a_non_int_argument_reads_neither_cache(args, bad):
    theta_series(6, 5, (0, 1), 14)  # both caches hold an entry
    before = [f.cache_info() for f in CACHES]
    with pytest.raises(TypeError, match="must be an int"):
        theta_series(*args(bad))
    assert [f.cache_info() for f in CACHES] == before


@pytest.mark.parametrize("point", [(1,), (0, 1, 0), ()])
def test_a_point_that_is_not_a_pair_reads_neither_cache(point):
    theta_series(6, 5, (0, 1), 14)
    before = [f.cache_info() for f in CACHES]
    with pytest.raises(ValueError, match="two coordinates"):
        theta_series(6, 5, point, 12)
    assert [f.cache_info() for f in CACHES] == before


def test_a_mul_factor_mutant_fails_the_units_suite_from_a_cold_plan(monkeypatch):
    # the plan holds the finished product, so the mutant runs only on a cold
    # cache: a factor that moves its zeta-slots one too far reaches every
    # series with h > 1, and their norm rows fail
    assert verify.suite_units()["all_pass"]
    real = units._mul_factor
    monkeypatch.setattr(units, "_mul_factor", lambda P, h, e, k, r: real(P, h, e, k, r + 1))
    _clear_caches()
    try:
        rep = verify.suite_units()
        assert units._plan.cache_info().misses > 0
    finally:
        _clear_caches()  # no mutant product outlives the test
    assert [r["case"] for r in rep["cases"] if not r["pass"]] == [
        "norm_compatibility_3_to_6",
        "norm_x0_3_to_6",
        "norm_x0_6_to_12",
        "norm_x0_3_to_9",
        "norm_x0_6_to_18",
    ]


def _one_product_grid():
    """Shuffled (M, c, point, trunc) at c = 5 on levels 12, 24 and 42: every y
    at x = 1 (h = 1), and at x = 0 and x = the least proper divisor of M two
    y of each h > 1, each at a window 2M + 3 past its lead."""
    grid = []
    for M in (12, 24, 42):
        d = next(d for d in range(2, M) if M % d == 0)
        points = [(1, y) for y in range(M)]
        for x in (0, d):
            g = gcd(x, M)
            by_h = {}
            for y in range(1, M):
                by_h.setdefault(g // gcd(g, y), []).append(y)
            points += [(x, y) for h, ys in by_h.items() if h > 1 for y in ys[:2]]
        grid += [(M, 5, p, units._e0(M, 5, p[0]) + 2 * M + 3) for p in points]
    Random(34).shuffle(grid)
    return grid


def test_one_product_serves_every_y():
    grid = _one_product_grid()
    _clear_caches()
    warm = [theta_series(*args) for args in grid]
    assert units._plan.cache_info().hits > 0
    for args, f in zip(grid, warm):
        den, num = reference_theta(*args)
        assert f * den == num, args
        _clear_caches()
        assert theta_series(*args) == f, args
    # the fold reads the shared rows and writes none of them: y1, y2, y1 at
    # one (M, c, x, W, h) give y1 twice
    for M, x, y1, y2 in ((12, 1, 1, 5), (12, 0, 1, 5), (42, 2, 1, 3), (24, 0, 2, 10)):
        trunc = units._e0(M, 5, x) + 2 * M + 3
        _clear_caches()
        first = theta_series(M, 5, (x, y1), trunc)
        assert theta_series(M, 5, (x, y2), trunc) != first
        assert theta_series(M, 5, (x, y1), trunc) == first
        assert units._plan.cache_info()[:2] == (2, 1)
    _clear_caches()


def test_one_dense_level_builds_one_product():
    # the 4 y of one qexp rung of the dense benchmark share x = 1, so h = 1
    _clear_caches()
    for y in (1, 5, 7, 11):
        theta_series(12, 5, (1, y), 80)
    assert units._plan.cache_info()[:2] == (3, 1)
    _clear_caches()


def test_a_window_below_every_factor_shares_one_product():
    # the cusp constants' windows (e0 + 4 at x = 0, level 12) hold no factor,
    # whose exponents there are multiples of 12, so all 11 y share one key
    _clear_caches()
    for y in range(1, 12):
        theta_series(12, 5, (0, y), units._e0(12, 5, 0) + 4)
    assert units._plan.cache_info()[:2] == (10, 1)
    # at the least factor exponent E the window still holds none, at E + 1
    # one, and each y's series is the reference's there
    for M, x, E in ((12, 0, 12), (12, 4, 4), (42, 6, 6), (24, 9, 3)):
        for W in (E, E + 1):
            for y in (1, 2, 3, M - 1):
                trunc = units._e0(M, 5, x) + W
                den, num = reference_theta(M, 5, (x, y), trunc)
                assert theta_series(M, 5, (x, y), trunc) * den == num, (M, x, y, W)
    _clear_caches()


def test_every_units_cache_is_listed_and_bounded():
    # a cache added later must join CACHES, whose bound and read-before-check
    # tests then cover it
    own = {
        name for name, f in vars(units).items()
        if hasattr(f, "cache_info") and f.__module__ == units.__name__
    }
    assert own == {f.__wrapped__.__name__ for f in CACHES}
    for f in CACHES:
        assert 0 < f.cache_info().maxsize < float("inf")


@pytest.mark.parametrize(
    "mutant",
    [
        lambda real, M, y, c: real(M, y, c) * 2,
        lambda real, M, y, c: -real(M, y, c),
        lambda real, M, y, c: real(M, y, c) - 1,
        lambda real, M, y, c: real(M, -y % M, c),
        lambda real, M, y, c: real(M, y, c) * CycloElement.zeta_pow(M, y),
    ],
    ids=["times_2", "negated", "minus_1", "y_to_minus_y", "times_zeta_y"],
)
def test_a_wrong_xi_fails_a_cusp_value_row(monkeypatch, mutant):
    # both cusp routes read the same Xi_c; the division-free identity
    # ct (1 - zeta^{cy}) == (-zeta^y)^h (1 - zeta^y)^{c^2} does not
    real = units._xi_c_at
    monkeypatch.setattr(units, "_xi_c_at", lambda M, y, c: mutant(real, M, y, c))
    _clear_caches()
    try:
        rep = verify.suite_units()
    finally:
        _clear_caches()
    failed = [r["case"] for r in rep["cases"] if not r["pass"]]
    assert any(case.startswith("cusp_value_") for case in failed), failed


# -- a torsion point is a pair -------------------------------------------------

NOT_PAIRS = [(1,), (1, 1, 7), (), [1, 1, 0]]


@pytest.mark.parametrize("point", NOT_PAIRS)
@pytest.mark.parametrize(
    "call",
    [
        lambda p: theta_series(6, 5, p, 10),
        lambda p: theta_qexp(2, 1, 3, 5, p, 10),
        lambda p: norm_check_theta(6, 2, 5, p, 24),
        lambda p: residue_elliptic_soule(2, 1, 3, 5, p),
        lambda p: epsilon_series(2, 1, 3, 5, p, 6),
    ],
)
def test_a_torsion_point_must_be_a_pair(call, point):
    # theta_series(6, 5, (1, 1, 7), 10) used to return the (1, 1) expansion,
    # and epsilon_series(2, 1, 3, 5, (1,), 6) raised IndexError
    with pytest.raises(ValueError, match=re.escape(f"torsion point {point!r}")):
        call(point)


# -- a failing row names its point ----------------------------------------------


def test_a_failing_valuation_row_names_its_point(monkeypatch):
    # negative control: one step past the leading exponent, the first point
    # of the level-6 scan, (0, 1), leads at q^{13/6} against smoothed_b2's 2
    monkeypatch.setattr(verify, "theta_qexp", lambda *a: theta_qexp(*a).shift(1))
    [row] = [r for r in verify.suite_units()["cases"] if r["case"] == "theta_valuations_level6"]
    assert row == {
        "case": "theta_valuations_level6",
        "ell": 2,
        "N": 3,
        "c": 5,
        "trunc": 40,
        "level": 6,
        "point": [0, 1],
        "valuation": "13/6",
        "smoothed_b2": "2",
        "pass": False,
    }


def test_a_failing_residue_row_names_its_fiber_point(monkeypatch):
    # negative control: the Bernoulli measure one heavier at the last point of
    # each fiber; the residue rows fail there and say so
    real = verify.bernoulli_measure

    def heavier(ell, r, N, c, t):
        mu = real(ell, r, N, c, t)
        return mu + Measure(mu.spec, {max(torsor_elements(mu.spec)): 1})

    monkeypatch.setattr(verify, "bernoulli_measure", heavier)
    rows = {r["case"]: r for r in verify.suite_residues()["cases"]}
    assert not any(r["pass"] for r in rows.values())
    row = rows["residue_ell2_r1_N3_c5_t1_1"]
    value = bernoulli_measure(2, 1, 3, 5, 1)((4,))
    assert {k: row[k] for k in ("fiber_point", "residue_value", "bernoulli_value")} == {
        "fiber_point": [4],
        "residue_value": str(value),
        "bernoulli_value": str(value + 1),
    }


def test_the_smoothed_measure_row_names_its_first_difference(monkeypatch):
    # negative control: the residue route one heavier at the last point of
    # the fiber; the units row fails there, names it and carries the flags
    real = verify.residue_elliptic_soule

    def heavier(ell, r, N, c, t):
        mu = real(ell, r, N, c, t)
        return mu + Measure(mu.spec, {max(torsor_elements(mu.spec)): 1})

    monkeypatch.setattr(verify, "residue_elliptic_soule", heavier)
    rows = {r["case"]: r for r in verify.suite_units(2, 3, 7, 40)["cases"]}
    assert [case for case, r in rows.items() if not r["pass"]] == ["residue_matches_smoothed_measure"]
    value = bernoulli_measure(2, 1, 3, 7, 1)((4,))
    assert rows["residue_matches_smoothed_measure"] == {
        "case": "residue_matches_smoothed_measure",
        "ell": 2,
        "N": 3,
        "c": 7,
        "trunc": 40,
        "fiber_point": [4],
        "residue_value": str(value + 1),
        "bernoulli_value": str(value),
        "pass": False,
    }
