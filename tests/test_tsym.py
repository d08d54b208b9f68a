from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, strategies as st

from ellsoule.moments import moment_torsor
from ellsoule.measures import Measure, TorsorSpec
from ellsoule.tsym import TSym, divided_power, exponent_tuples, sym_to_tsym, tsym_map


coords2 = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
degrees = st.integers(0, 5)


def test_exponent_tuples_rank2_dimension():
    # rank 2, degree k has exactly k + 1 basis symbols
    for k in range(7):
        assert len(exponent_tuples(2, k)) == k + 1


@pytest.mark.parametrize("d, k", [(0, 0), (0, 2), (-1, 1)])
def test_exponent_tuples_reject_rank_below_one(d, k):
    # exponent_tuples(0, 0) used to recurse until RecursionError
    with pytest.raises(ValueError, match="d >= 1"):
        exponent_tuples(d, k)
    with pytest.raises(ValueError, match="d >= 1"):
        divided_power((), k)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_exponent_tuples_reject_negative_degree(d):
    # (1, -1) used to give [(-1,)] and (2, -1) an empty list
    with pytest.raises(ValueError, match="k >= 0"):
        exponent_tuples(d, -1)


def test_divided_power_binomial_product():
    # e^{[a]} e^{[b]} = prod C(a_i + b_i, a_i) e^{[a+b]}
    a = TSym.basis(2, (2, 1))
    b = TSym.basis(2, (1, 3))
    assert a * b == TSym.basis(2, (3, 4), coeff=comb(3, 2) * comb(4, 1))


@given(coords2, degrees, degrees)
def test_divided_power_addition_law(g, ka, kb):
    # (g)^{[ka]} (g)^{[kb]} = C(ka+kb, ka) g^{[ka+kb]}
    lhs = divided_power(g, ka) * divided_power(g, kb)
    rhs = divided_power(g, ka + kb).scale(comb(ka + kb, ka))
    assert lhs == rhs


@given(coords2, coords2, degrees)
def test_divided_power_of_sum(g, h, k):
    # (g+h)^{[k]} = sum_{i+j=k} g^{[i]} h^{[j]}
    s = tuple(gi + hi for gi, hi in zip(g, h))
    rhs = TSym.zero(2)
    for i in range(k + 1):
        rhs = rhs + divided_power(g, i) * divided_power(h, k - i)
    assert divided_power(s, k) == rhs


def test_sym_to_tsym_scales_by_factorials():
    # x^2 y in Sym maps to 2! 1! e^{[2,1]}
    assert sym_to_tsym((2, 1)) == TSym.basis(2, (2, 1), coeff=factorial(2) * factorial(1))


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3))
def test_sym_to_tsym_is_multiplicative(monomials):
    total = tuple(map(sum, zip(*monomials)))
    prod = sym_to_tsym(monomials[0])
    for m in monomials[1:]:
        prod = prod * sym_to_tsym(m)
    assert prod == sym_to_tsym(total)


def test_spot_e2_times_e3():
    e2 = TSym.basis(1, (2,))
    e3 = TSym.basis(1, (3,))
    assert e2 * e3 == TSym.basis(1, (5,), coeff=10)


# functoriality of the induced maps


@given(st.integers(-5, 5), coords2, degrees)
def test_scalar_map_acts_by_powers(c, g, k):
    a = divided_power(g, k)
    img = tsym_map(c, a)
    assert img == divided_power(tuple(c * x for x in g), k)


@given(coords2, degrees)
def test_matrix_map_on_divided_powers(g, k):
    phi = ((1, 1), (0, 1))  # unipotent: (x, y) -> (x + y, y)
    a = divided_power(g, k)
    target = (phi[0][0] * g[0] + phi[0][1] * g[1], phi[1][0] * g[0] + phi[1][1] * g[1])
    assert tsym_map(phi, a) == divided_power(target, k)


@given(coords2, degrees, st.integers(-3, 3), st.integers(-3, 3))
def test_map_composition(g, k, c1, c2):
    a = divided_power(g, k)
    assert tsym_map(c1, tsym_map(c2, a)) == tsym_map(c1 * c2, a)


@given(coords2, coords2, degrees, degrees)
def test_map_is_ring_hom(g, h, ka, kb):
    a = divided_power(g, ka)
    b = divided_power(h, kb)
    assert tsym_map(3, a * b) == tsym_map(3, a) * tsym_map(3, b)


# base change


def test_base_change_reduces_coefficients():
    a = TSym.basis(2, (1, 0), coeff=7) + TSym.basis(2, (0, 1), coeff=-3)
    b = a.base_change("Z/5")
    assert b.coeff((1, 0)) == 2
    assert b.coeff((0, 1)) == 2


def test_base_change_inverts_units():
    a = TSym.basis(1, (1,), coeff=Fraction(14, 5))
    assert a.base_change("Z/4").coeff((1,)) == 2


def test_base_change_zero_ring():
    # Z/1 is the zero ring: everything collapses to zero
    a = TSym.basis(1, (2,), coeff=Fraction(3, 2))
    b = a.base_change("Z/1")
    assert b == TSym.zero(1, "Z/1")


@given(coords2, coords2, degrees, degrees)
def test_base_change_commutes_with_product(g, h, ka, kb):
    a = divided_power(g, ka)
    b = divided_power(h, kb)
    assert (a * b).base_change("Z/9") == a.base_change("Z/9") * b.base_change("Z/9")


@given(st.floats() | st.booleans(), st.sampled_from(["Z", "Q", "Z/5"]))
@example(2.7, "Z")  # used to become 2
@example(7.9, "Z/5")  # used to become 2
@example(0.1, "Q")  # used to become 3602879701896397/36028797018963968
@example(True, "Z")  # used to become 1
def test_inexact_coefficients_are_rejected(x, ring):
    with pytest.raises(TypeError):
        TSym(2, ring, {(1, 0): x})
    with pytest.raises(TypeError):
        TSym.basis(2, (1, 0), ring, coeff=x)
    with pytest.raises(TypeError):
        TSym.basis(2, (1, 0), ring).scale(x)
    with pytest.raises(TypeError):
        tsym_map(x, TSym.basis(2, (1, 0), ring))
    with pytest.raises(TypeError):
        tsym_map([[x, 0], [0, 1]], TSym.basis(2, (1, 0), ring))
    # a coordinate of h: (True, 0) at k = 1 used to give e^{[1,0]}, and at
    # k = 0 no power of x was taken, so nothing checked it
    for k in (0, 1, 2):
        with pytest.raises(TypeError):
            divided_power((x, 0), k, ring)


@pytest.mark.parametrize(
    "d, n",
    [
        (1, (1.5,)),  # used to become e^{[1]}
        (2, (True, 0)),  # used to become e^{[1,0]}
        (2, (1.0, 0)),
        (1, (-1,)),
        (2, (1,)),  # wrong length for the rank
    ],
)
def test_bad_exponent_tuples_are_rejected(d, n):
    with pytest.raises(ValueError):
        TSym(d, "Q", {n: 3})
    with pytest.raises(ValueError):
        TSym.basis(d, n, coeff=3)


def test_nested_degree_form_is_rejected():
    # a {degree: {n: c}} map: its key 1 is not an exponent tuple
    with pytest.raises(ValueError):
        TSym(2, "Q", {1: {(1, 0): 1}})


# -- the canonical stored form over "Q": an int when integral, else a Fraction

rationals = st.integers(-30, 30) | st.fractions(-30, 30, max_denominator=6)
BASIS2 = [(1, 0), (0, 1), (2, 0), (1, 1)]
MIXED = {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3), (2, 0): -5, (1, 1): Fraction(-6, 4)}


def _assert_stored_canonically(a):
    for c in a.terms.values():
        assert type(c) in (int, Fraction) and c
        assert (type(c) is int) == (Fraction(c).denominator == 1)


def test_integral_coefficients_are_stored_as_ints():
    a = TSym(2, "Q", MIXED)
    assert a.terms == {(1, 0): 2, (0, 1): Fraction(1, 3), (2, 0): -5, (1, 1): Fraction(-3, 2)}
    assert [type(c) for c in a.terms.values()] == [int, Fraction, int, Fraction]
    assert type(TSym.basis(1, (2,), coeff=Fraction(4, 2)).terms[(2,)]) is int


@given(
    st.lists(rationals, min_size=4, max_size=4),
    st.lists(rationals, min_size=4, max_size=4),
    rationals,
)
@example([Fraction(4, 2), Fraction(1, 3), 0, 1], [Fraction(3, 2), Fraction(2, 3), 1, 0], Fraction(3))
def test_every_operation_keeps_the_canonical_form(a, b, c):
    x, y = TSym(2, "Q", dict(zip(BASIS2, a))), TSym(2, "Q", dict(zip(BASIS2, b)))
    for z in (x, x + y, x - y, -x, x * y, x.scale(c), tsym_map(3, x),
              tsym_map([[1, 2], [0, 1]], x)):
        _assert_stored_canonically(z)


@given(st.lists(rationals, min_size=4, max_size=4))
def test_coefficients_built_from_fractions_equal_and_hash_like_ints(vals):
    as_fractions = TSym(2, "Q", {n: Fraction(v) for n, v in zip(BASIS2, vals)})
    as_given = TSym(2, "Q", dict(zip(BASIS2, vals)))
    assert as_fractions == as_given and hash(as_fractions) == hash(as_given)
    assert [type(c) for c in as_fractions.terms.values()] == [
        type(c) for c in as_given.terms.values()
    ]


def test_json_bytes_are_unchanged():
    # the values once pinned as JSON bytes from the all-Fraction representation
    F = Fraction
    a = TSym(2, "Q", MIXED)
    assert a.terms == {(0, 1): F(1, 3), (1, 0): 2, (1, 1): F(-3, 2), (2, 0): -5}
    assert (a * a).terms == {
        (0, 2): F(2, 9), (1, 1): F(4, 3), (2, 0): 8,
        (1, 2): -2, (2, 1): F(-46, 3), (3, 0): -60,
        (2, 2): 9, (3, 1): 45, (4, 0): 150,
    }
    mu = Measure(
        TorsorSpec(2, 2, 3, 1, "reduction", (1,)),
        {(1,): Fraction(4, 2), (4,): Fraction(1, 3), (7,): -5, (10,): Fraction(-6, 4)},
    )
    assert moment_torsor(mu, 3).terms == {(3,): -145}


@pytest.mark.parametrize(
    "ring, given_value, stored",
    [("Z", Fraction(4, 2), 2), ("Z", -3, -3), ("Z/5", Fraction(1, 2), 3), ("Z/5", Fraction(8, 2), 4)],
)
def test_integral_rings_are_unchanged(ring, given_value, stored):
    c = TSym(1, ring, {(1,): given_value}).terms[(1,)]
    assert type(c) is int and c == stored
    with pytest.raises(ValueError):
        TSym(1, "Z", {(1,): Fraction(1, 3)})
    with pytest.raises(ArithmeticError):
        TSym(1, "Z/6", {(1,): Fraction(1, 3)})


def test_repr_names_rank_ring_and_sorted_terms():
    # the repr was object's, so a failing comparison showed only an address
    a = TSym(2, "Q", MIXED)
    assert repr(a) == "TSym(2, 'Q', {(0, 1): 1/3, (1, 0): 2, (1, 1): -3/2, (2, 0): -5})"
    assert repr(a.base_change("Z/7")) == "TSym(2, 'Z/7', {(0, 1): 5, (1, 0): 2, (1, 1): 2, (2, 0): 2})"
    assert repr(TSym.zero(1)) == "TSym(1, 'Q', {})"
    b = a + TSym.basis(2, (1, 1))
    assert "(1, 1): -1/2" in repr(b) and "(1, 1): -3/2" in repr(a)
