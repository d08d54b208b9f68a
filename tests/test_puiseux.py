from fractions import Fraction

from hypothesis import given, strategies as st

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


@given(small_series(), small_series(), small_series())
def test_add_associates(f, g, h):
    assert (f + g) + h == f + (g + h)


@given(small_series(), small_series())
def test_mul_commutes(f, g):
    assert f * g == g * f


@given(small_series(), small_series(), small_series())
def test_mul_distributes(f, g, h):
    lhs = f * (g + h)
    rhs = f * g + f * h
    # both sides carry the same sound window by construction
    assert lhs.agree_up_to(rhs, min(lhs.T, rhs.T))


def test_mul_window_rule():
    f = series_from(6, 10, [(2, 1)])
    g = series_from(6, 8, [(-1, 1), (3, 2)])
    # T = min(T_f + v(g), T_g + v(f)) = min(10 + (-1), 8 + 2) = 9
    assert (f * g).T == 9


def test_invert_window_rule():
    f = series_from(6, 10, [(2, 1), (4, 5)])
    inv = f.invert()
    # window T - 2v = 10 - 4 = 6 and f * f^{-1} = 1 on it
    assert inv.T == 6
    one = PuiseuxSeries.one(6, 6)
    assert (f * inv).agree_up_to(one, 6)


@given(small_series())
def test_invert_roundtrip(f):
    if not f.terms:
        return
    prod = f * f.invert()
    W = prod.T
    assert prod.agree_up_to(PuiseuxSeries.one(6, W), W)


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
    # negative exponents invert first
    assert f**-1 == f.invert()


def test_agree_up_to_ignores_tail():
    f = series_from(6, 10, [(1, 1), (7, 2)])
    g = series_from(6, 10, [(1, 1), (7, 3)])
    assert f.agree_up_to(g, 7)
    assert not f.agree_up_to(g, 8)
