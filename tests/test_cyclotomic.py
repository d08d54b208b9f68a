from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from ellsoule import cyclotomic
from ellsoule.cyclotomic import CycloElement, cyclo_poly, euler_phi


levels = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])
small_rats = st.fractions(max_denominator=12)


@st.composite
def elements(draw, M=None):
    if M is None:
        M = draw(levels)
    deg = euler_phi(M)
    coeffs = draw(st.lists(small_rats, min_size=deg, max_size=deg))
    return CycloElement.from_poly(M, coeffs)


def test_cyclo_poly_twelve():
    # Phi_12 = x^4 - x^2 + 1
    assert tuple(cyclo_poly(12)) == (1, 0, -1, 0, 1)


def test_cyclo_poly_divisor_product():
    # the product of Phi_d over d | M is x^M - 1, and deg Phi_M = phi(M),
    # with phi counted directly
    for M in range(1, 121):
        prod = [1]
        for d in range(1, M + 1):
            if M % d == 0:
                p = cyclo_poly(d)
                out = [0] * (len(prod) + len(p) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(p):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (M - 1) + [1], M
        assert len(cyclo_poly(M)) - 1 == sum(gcd(k, M) == 1 for k in range(M)), M


def test_zeta_order():
    for M in (3, 4, 5, 12):
        z = CycloElement.zeta_pow(M, 1)
        assert z**M == CycloElement.rational(M, 1)
        for j in range(1, M):
            assert z**j != CycloElement.rational(M, 1)


def test_zeta_pow_wraps():
    assert CycloElement.zeta_pow(6, 7) == CycloElement.zeta_pow(6, 1)
    assert CycloElement.zeta_pow(6, -1) == CycloElement.zeta_pow(6, 1) ** 5


# field laws


@given(st.sampled_from([3, 4, 6, 12]), st.data())
def test_add_commutes(M, data):
    a = data.draw(elements(M=M))
    b = data.draw(elements(M=M))
    assert a + b == b + a


@given(elements(M=12), elements(M=12), elements(M=12))
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(elements(M=12), elements(M=12), elements(M=12))
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("M", [*range(2, 61), 935, 979, 990, 997, 998])
def test_closed_inverse_of_one_minus_zeta(M):
    # every w != 0 mod M, gcd(w, M) > 1 included; a * inv == 1 makes inv the
    # inverse, since inverses are unique.  The product with 1 - zeta^w is
    # formed in Z[x]/(x^M - 1) and reduced once: exact, and at the large
    # levels far cheaper than the dense field product, checked up to M = 60
    one = CycloElement.rational(M, 1)
    for w in range(1, M):
        inv = CycloElement.one_minus_zeta_inverse(M, w)
        lift = [0] * M
        for i, a in enumerate(inv.num):
            lift[i] += a
            lift[(i + w) % M] -= a
        assert CycloElement.from_poly(M, lift) == CycloElement.rational(M, inv.den), (M, w)
        if M <= 60:
            a = one - CycloElement.zeta_pow(M, w)
            assert a * inv == one, (M, w)
    assert CycloElement.one_minus_zeta_inverse(M, -1) == inv  # w = M - 1 last
    for w in (0, M, -M):
        with pytest.raises(ZeroDivisionError):
            CycloElement.one_minus_zeta_inverse(M, w)


@pytest.mark.parametrize("M", [2, 3, 6, 7, 12, 35, 48])
def test_closed_power_of_one_minus_zeta(M):
    one = CycloElement.rational(M, 1)
    for w in range(-1, M + 1):
        a = one - CycloElement.zeta_pow(M, w)
        for k in (0, 1, 2, 25, 49):
            assert CycloElement.one_minus_zeta_pow(M, w, k) == a**k, (M, w, k)
    with pytest.raises(ValueError):
        CycloElement.one_minus_zeta_pow(M, 1, -1)
    # there is no general inverse, so no negative power either
    with pytest.raises(ValueError, match="exponent -1 must be >= 0"):
        a**-1


@given(elements(M=12), st.sampled_from([1, 5, 7, 11]))
def test_galois_is_ring_map(a, j):
    b = CycloElement.zeta_pow(12, 1)
    assert (a * b).galois(j) == a.galois(j) * b.galois(j)
    assert (a + b).galois(j) == a.galois(j) + b.galois(j)


def test_galois_on_zeta():
    assert CycloElement.zeta_pow(12, 1).galois(7) == CycloElement.zeta_pow(12, 1) ** 7


def test_embed_compatible():
    # zeta_3 inside Q(zeta_6): zeta_6^2
    assert CycloElement.zeta_pow(3, 1).embed(6) == CycloElement.zeta_pow(6, 1) ** 2
    a = CycloElement.zeta_pow(3, 1) + CycloElement.rational(3, Fraction(1, 2))
    half = CycloElement.rational(12, Fraction(1, 2))
    assert a.embed(12) == CycloElement.zeta_pow(12, 1) ** 4 + half


def test_minus_one_is_half_turn():
    assert CycloElement.zeta_pow(6, 1) ** 3 == -CycloElement.rational(6, 1)
    assert CycloElement.zeta_pow(8, 1) ** 4 == -CycloElement.rational(8, 1)


def test_cyclotomic_relation_reduces():
    # 1 + zeta_3 + zeta_3^2 = 0
    z = CycloElement.zeta_pow(3, 1)
    assert z**2 + z + CycloElement.rational(3, 1) == CycloElement.rational(3, 0)


# the integer-coordinate representation, checked by independent routes;
# 2*phi(M) - 2 >= M at 5 and 7, so products wrap past zeta^M = 1

wrap_levels = st.sampled_from([5, 7, 12, 42])


def _phi_remainder(poly: list[Fraction], M: int) -> list[Fraction]:
    """poly mod Phi_M by long division in Fractions."""
    rem = list(poly)
    phi_poly = cyclo_poly(M)
    d = len(phi_poly) - 1
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        if c:
            for i, p in enumerate(phi_poly):
                rem[top - d + i] -= c * p
    return rem[:d]


@given(wrap_levels, st.data())
def test_product_agrees_with_polynomial_product(M, data):
    a = data.draw(elements(M=M))
    b = data.draw(elements(M=M))
    conv = [Fraction(0)] * (2 * euler_phi(M) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            conv[i + j] += x * y
    for i, z in enumerate((a * b).coeffs):
        conv[i] -= z
    assert not any(_phi_remainder(conv, M))


@given(wrap_levels, st.data())
def test_representation_is_canonical(M, data):
    a = data.draw(elements(M=M))
    b = data.draw(elements(M=M))
    for x in (a, b, a + b, a - b, a * b, -a, a * Fraction(6, 35), a.galois(-1)):
        assert x.den > 0
        assert gcd(x.den, *x.num) == 1
        assert x.coeffs == tuple(Fraction(n, x.den) for n in x.num)
    # the same value reached by different routes: equal, and equal hashes
    j = data.draw(st.integers(0, M))
    padded = list(a.coeffs) + [Fraction(0)] * (j + 1)
    for i, p in enumerate(cyclo_poly(M)):
        padded[i + j] += Fraction(p, 7)  # add Phi_M * x^j / 7
    for x, y in ((CycloElement.from_poly(M, padded), a), ((a + b) - b, a), (a * b, b * a)):
        assert x == y and hash(x) == hash(y)


@given(wrap_levels, st.integers(-200, 200))
def test_zeta_pow_any_exponent(M, k):
    z = CycloElement.zeta_pow(M, k)
    assert z == CycloElement.zeta_pow(M, 1) ** (k % M)
    assert z * CycloElement.zeta_pow(M, -k) == CycloElement.rational(M, 1)
    assert z == CycloElement.zeta_pow(M, k + 3 * M)


@given(wrap_levels, st.data())
def test_galois_round_trip(M, data):
    a = data.draw(elements(M=M))
    u = data.draw(st.sampled_from([u for u in range(1, M) if gcd(u, M) == 1]))
    assert a.galois(u).galois(pow(u, -1, M)) == a
    image = CycloElement.rational(M, 0)
    for i, c in enumerate(a.coeffs):
        image = image + CycloElement.zeta_pow(M, 1) ** (i * u % M) * c
    assert a.galois(u) == image


@given(wrap_levels, st.sampled_from([2, 3]), st.data())
def test_embed_round_trip(M, s, data):
    a = data.draw(elements(M=M))
    b = data.draw(elements(M=M))
    M2 = M * s
    assert a.embed(M2).embed(2 * M2) == a.embed(2 * M2)
    assert (a * b).embed(M2) == a.embed(M2) * b.embed(M2)
    # an embedded element is fixed by zeta_M2 -> zeta_M2^u for u = 1 mod M
    u = next(u for u in range(M + 1, M2 * M, M) if gcd(u, M2) == 1)
    assert a.embed(M2).galois(u) == a.embed(M2)


inexact = st.floats() | st.booleans()


@given(inexact, st.sampled_from([1, 3, 12]))
@example(0.1, 3)  # used to become 3602879701896397/36028797018963968
@example(True, 3)  # used to become 1
def test_inexact_coordinates_are_rejected(x, M):
    with pytest.raises(TypeError):
        CycloElement.rational(M, x)
    with pytest.raises(TypeError):
        CycloElement.from_poly(M, [x])
    with pytest.raises(TypeError):
        CycloElement(M, [x] + [0] * (euler_phi(M) - 1))
    with pytest.raises(TypeError):
        CycloElement.zeta_pow(M, 1) * x
    with pytest.raises(TypeError):
        x * CycloElement.zeta_pow(M, 1)
    with pytest.raises(TypeError):
        CycloElement.zeta_pow(M, 1) + x



def test_xpow_cache_stays_bounded_over_many_levels():
    # one table per level met used to stay for the life of the process
    for M in range(2, 3 * cyclotomic._XPOW_LEVELS + 2):
        assert CycloElement.zeta_pow(M, M + 1) == CycloElement.zeta_pow(M, 1)
        assert cyclotomic._xpow.cache_info().currsize <= cyclotomic._XPOW_LEVELS
    assert cyclotomic._xpow.cache_info().currsize == cyclotomic._XPOW_LEVELS
