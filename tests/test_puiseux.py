from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ellsoule.cyclotomic import CycloElement
from ellsoule.puiseux import PuiseuxSeries


def series_from(M, T, pairs):
    return PuiseuxSeries(
        M, T, {n: CycloElement.rational(M, c) for n, c in pairs if c}
    )


@st.composite
def small_series(draw, M=6, T=10, vmin=-3):
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(vmin, T - 1), st.fractions(max_denominator=6)
            ),
            max_size=5,
        )
    )
    terms = {}
    for n, c in pairs:
        if c:
            terms[n] = terms.get(n, CycloElement.rational(M, 0)) + CycloElement.rational(M, c)
    return PuiseuxSeries(M, T, {n: c for n, c in terms.items() if c != CycloElement.rational(M, 0)})


def test_zero_coefficients_never_stored():
    f = series_from(6, 10, [(0, 1), (2, 0), (3, 5)])
    assert set(f.terms) == {0, 3}


def test_valuation_is_reduced_fraction():
    f = series_from(6, 10, [(2, 1), (5, 3)])
    assert f.valuation() == Fraction(1, 3)
    g = series_from(6, 10, [(-3, 2)])
    assert g.valuation() == Fraction(-1, 2)


def test_monomial_and_coeff():
    f = PuiseuxSeries(6, 12, {4: CycloElement.rational(6, 7)})
    assert f.coeff(4) == CycloElement.rational(6, 7)
    assert f.coeff(3) == CycloElement.rational(6, 0)


# ring laws on a shared window


@given(small_series(), small_series())
def test_mul_commutes(f, g):
    assert f * g == g * f


def test_mul_window_rule():
    f = series_from(6, 10, [(2, 1)])
    g = series_from(6, 8, [(-1, 1), (3, 2)])
    # T = min(T_f + v(g), T_g + v(f)) = min(10 + (-1), 8 + 2) = 9
    assert (f * g).T == 9


def test_rescale_embeds_exponents():
    f = series_from(3, 5, [(1, 2)])
    g = f.rescale(6)
    assert g.M == 6 and g.T == 10
    assert g.coeff(2) == CycloElement.rational(6, 2)
    assert f.valuation() == g.valuation() == Fraction(1, 3)


def test_shift_moves_valuation():
    f = series_from(6, 10, [(0, 1), (3, 1)])
    g = f.shift(2)
    assert g.valuation() == Fraction(1, 3)
    assert g.T == 12


def test_pow_matches_repeated_product():
    f = series_from(6, 12, [(0, 1), (1, 1)])
    assert f**3 == f * f * f
    # there is no series inverse, so no negative power either
    with pytest.raises(ValueError, match="exponent -1 must be >= 0"):
        f**-1


# the product against a per-pair schoolbook reference


def schoolbook_mul(f, g):
    """One CycloElement product per coefficient pair, summed per exponent."""
    f, g = f._common(g)
    T = min(f.T + g.val_lb(), g.T + f.val_lb())
    out = {}
    for n1, c1 in f.terms.items():
        for n2, c2 in g.terms.items():
            if n1 + n2 < T:
                out[n1 + n2] = out.get(n1 + n2, CycloElement.rational(f.M, 0)) + c1 * c2
    return PuiseuxSeries(f.M, T, out)


@st.composite
def cyclo_series(draw, M):
    """Up to 6 terms at exponents in [-4, 12), each with phi(M) coordinates of
    mixed denominators, over windows in [-2, 14)."""
    phi = len(CycloElement.rational(M, 0).num)
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    terms = draw(
        st.dictionaries(
            st.integers(-4, 11), st.lists(coord, min_size=phi, max_size=phi), max_size=6
        )
    )
    T = draw(st.integers(-2, 13))
    return PuiseuxSeries(M, T, {n: CycloElement(M, c) for n, c in terms.items()})


@given(cyclo_series(4), cyclo_series(6))
@example(PuiseuxSeries(4, 5, {}), PuiseuxSeries(6, 3, {0: CycloElement(6, [1, 2])}))
@example(
    PuiseuxSeries(4, 6, {-2: CycloElement(4, [Fraction(1, 3), Fraction(-2, 5)])}),
    PuiseuxSeries(6, 4, {-1: CycloElement(6, [Fraction(3, 2), 1]), 2: CycloElement(6, [0, Fraction(1, 7)])}),
)
def test_mul_matches_schoolbook_across_conductors(f, g):
    # conductors 4 and 6 meet at 12 through _common
    prod = f * g
    assert prod.M == 12
    assert prod == schoolbook_mul(f, g) == g * f


@given(cyclo_series(12), cyclo_series(12))
def test_mul_matches_schoolbook_at_one_conductor(f, g):
    assert f * g == schoolbook_mul(f, g)
