from fractions import Fraction

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
