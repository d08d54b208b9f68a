"""Checked at entry, `_make` inside.

`TSym._make` and `Measure._make` build a value from terms that came out of
checked values, skipping the exponent-tuple or point check but not the
normalization of coefficients.  Every operation routed through them must
give exactly what the checked constructor gives on the same terms (equal
value, same stored types), and the public constructors must still refuse
floats, bools and bad exponent tuples or points.
"""

from fractions import Fraction
from math import comb, gcd, prod

import pytest
from hypothesis import given, strategies as st

from ellsoule.bernoulli import bernoulli_measure, smoothed_b2
from ellsoule.measures import GroupSpec, Measure, TorsorSpec, torsor_elements
from ellsoule.moments import moment, moment_torsor
from ellsoule.numutil import _int
from ellsoule.tsym import TSym, divided_power, exponent_tuples, tsym_map
from ellsoule.units import residue_elliptic_soule

RINGS = ("Z", "Q", "Z/7", "Z/12")
ints = st.integers(-40, 40)


def coeffs(ring: str):
    """Coefficients the checked constructor accepts over `ring`."""
    if ring == "Z":
        return ints
    if ring == "Q":
        return ints | st.fractions(-40, 40, max_denominator=6)
    units = [q for q in range(1, 13) if gcd(q, int(ring[2:])) == 1]
    return ints | st.builds(Fraction, ints, st.sampled_from(units))


@st.composite
def tsym_args(draw, d=None, ring=None):
    """(d, ring, terms) with valid exponent tuples and coefficients."""
    d = d or draw(st.sampled_from((1, 2)))
    ring = ring or draw(st.sampled_from(RINGS))
    tuples = st.tuples(*[st.integers(0, 4)] * d)
    return d, ring, draw(st.dictionaries(tuples, coeffs(ring), max_size=6))


def stored(x) -> tuple:
    """A value's fields with the type of every stored coefficient."""
    if isinstance(x, TSym):
        return x.d, x.ring, {n: (type(c), c) for n, c in x.terms.items()}
    return x.spec, {p: (type(v), v) for p, v in x.values.items()}


def same(got, want):
    assert stored(got) == stored(want)


def with_entry(items: dict, key, value) -> dict:
    """items with key -> value, under this very key object (a dict would
    keep an equal key already there: (0.0, 0) == (0, 0), True == 1)."""
    out = {k: v for k, v in items.items() if k != key}
    out[key] = value
    return out


def outcome(f):
    """("ok", stored value) or ("raises", exception type)."""
    try:
        return "ok", stored(f())
    except (ValueError, ArithmeticError, TypeError) as e:
        return "raises", type(e)


# -- TSym ---------------------------------------------------------------


@given(tsym_args())
def test_tsym_make_equals_the_checked_constructor(args):
    same(TSym._make(*args), TSym(*args))


@given(st.data())
def test_tsym_operations_equal_the_checked_constructor(data):
    d = data.draw(st.sampled_from((1, 2)))
    ring = data.draw(st.sampled_from(RINGS))
    x = TSym(*data.draw(tsym_args(d, ring)))
    y = TSym(*data.draw(tsym_args(d, ring)))
    s, phi = data.draw(coeffs(ring)), data.draw(ints)

    merged, minus = dict(x.terms), dict(x.terms)
    for n, c in y.terms.items():
        merged[n] = merged.get(n, 0) + c
        minus[n] = minus.get(n, 0) - c
    same(x + y, TSym(d, ring, merged))
    same(x - y, TSym(d, ring, minus))
    same(-x, TSym(d, ring, {n: -c for n, c in x.terms.items()}))
    same(x.scale(s), TSym(d, ring, {n: c * s for n, c in x.terms.items()}))
    same(tsym_map(phi, x), TSym(d, ring, {n: c * phi ** sum(n) for n, c in x.terms.items()}))

    product: dict = {}
    for n1, c1 in x.terms.items():
        for n2, c2 in y.terms.items():
            n = tuple(a + b for a, b in zip(n1, n2))
            w = prod(comb(a + b, a) for a, b in zip(n1, n2))
            product[n] = product.get(n, 0) + c1 * c2 * w
    same(x * y, TSym(d, ring, product))

    for target in RINGS:
        assert outcome(lambda: x.base_change(target)) == outcome(
            lambda: TSym(d, target, x.terms)
        )


@given(st.sampled_from((1, 2)), st.integers(0, 5), st.sampled_from(RINGS), st.data())
def test_divided_powers_equal_the_checked_constructor(d, k, ring, data):
    coords = data.draw(st.lists(ints, min_size=d, max_size=d))
    want = {n: prod(x ** e for x, e in zip(coords, n)) for n in exponent_tuples(d, k)}
    same(divided_power(coords, k, ring), TSym(d, ring, want))


@given(st.sampled_from((1, 2)), st.integers(0, 4), st.data())
def test_moments_equal_the_checked_constructor(d, k, data):
    spec = TorsorSpec(2, 2, 3, d, "reduction", (1,) * d)
    points = torsor_elements(spec)
    mu = Measure(spec, data.draw(st.dictionaries(st.sampled_from(points), coeffs("Q"))))
    want = {
        n: sum(v * prod((xi % 4) ** e for xi, e in zip(x, n)) for x, v in mu.values.items())
        for n in exponent_tuples(d, k)
    }
    same(moment_torsor(mu, k), TSym(d, "Q", want))
    group = Measure(GroupSpec(5, d), {x: 1 for x in torsor_elements(GroupSpec(5, d))})
    want = {n: sum(prod(xi ** e for xi, e in zip(x, n)) for x in group.values)
            for n in exponent_tuples(d, k)}
    same(moment(group, k), TSym(d, "Q", want))


def test_divided_power_still_checks_its_rank():
    with pytest.raises(ValueError, match="d >= 1"):
        divided_power((), 2)
    with pytest.raises(ValueError, match="rank must be 1 or 2"):
        divided_power((1, 2, 3), 2)
    with pytest.raises(TypeError):
        divided_power((1.5, 2), 1)


bad_numbers = st.floats(allow_nan=False) | st.booleans()
bad_tuples = st.one_of(
    st.tuples(st.integers(-5, -1), st.integers(0, 3)),  # a negative entry
    st.tuples(st.floats(0, 3), st.integers(0, 3)),  # a float entry
    st.tuples(st.booleans(), st.integers(0, 3)),  # a bool entry
    st.tuples(st.integers(0, 3)),  # the wrong length for rank 2
    st.integers(0, 3),  # not a tuple
)


@given(tsym_args(d=2), bad_numbers, bad_tuples)
def test_public_tsym_constructor_still_refuses(args, bad, n):
    d, ring, terms = args
    with pytest.raises(TypeError):
        TSym(d, ring, with_entry(terms, (0, 1), bad))
    with pytest.raises(ValueError):
        TSym(d, ring, with_entry(terms, n, 1))


# -- Measure ------------------------------------------------------------

specs = st.one_of(
    st.builds(GroupSpec, st.integers(1, 6), st.sampled_from((1, 2))),
    st.builds(
        lambda ell, r, N, d, t: TorsorSpec(ell, r, N, d, "reduction", tuple(t[:d])),
        st.sampled_from((2, 3)),
        st.integers(0, 2),
        st.sampled_from((5, 7)),
        st.sampled_from((1, 2)),
        st.lists(st.integers(-9, 9), min_size=2, max_size=2),
    ),
)


@st.composite
def measure_args(draw, spec=None):
    spec = spec or draw(specs)
    points = st.sampled_from(torsor_elements(spec))
    return spec, draw(st.dictionaries(points, coeffs("Q"), max_size=8))


@given(measure_args())
def test_measure_make_equals_the_checked_constructor(args):
    same(Measure._make(*args), Measure(*args))


@given(specs, st.data())
def test_measure_operations_equal_the_checked_constructor(spec, data):
    mu = Measure(*data.draw(measure_args(spec)))
    nu = Measure(*data.draw(measure_args(spec)))
    s = data.draw(coeffs("Q"))
    merged = dict(mu.values)
    for x, v in nu.values.items():
        merged[x] = merged.get(x, 0) + v
    same(mu + nu, Measure(spec, merged))
    same(-mu, Measure(spec, {x: -v for x, v in mu.values.items()}))
    minus = dict(mu.values)
    for x, v in nu.values.items():
        minus[x] = minus.get(x, 0) - v
    same(mu - nu, Measure(spec, minus))
    same(mu.scale(s), Measure(spec, {x: v * s for x, v in mu.values.items()}))


@given(st.sampled_from((2, 3)), st.integers(0, 3), st.sampled_from((7, 11, 13)), st.integers(0, 6))
def test_bernoulli_measures_equal_the_checked_constructor(ell, r, c, t):
    N = 4 if ell == 3 else 5
    spec = TorsorSpec(ell, r, N, 1, "reduction", (t,))
    want = {x: smoothed_b2(spec.modulus, c, x[0]) for x in torsor_elements(spec)}
    same(bernoulli_measure(ell, r, N, c, t), Measure(spec, want))


def test_residue_measure_equals_the_checked_constructor():
    got = residue_elliptic_soule(2, 1, 3, 5, (1, 2))
    same(got, Measure(got.spec, {x: Fraction(v) for x, v in got.values.items()}))
    assert got == bernoulli_measure(2, 1, 3, 5, 1)


@given(measure_args(), bad_numbers, st.integers(1, 4))
def test_public_measure_constructor_still_refuses(args, bad, off):
    spec, values = args
    point = torsor_elements(spec)[0]
    with pytest.raises(TypeError):
        Measure(spec, with_entry(values, point, bad))
    for x in ((0.5,) * spec.d, (True,) * spec.d):
        with pytest.raises(TypeError):
            Measure(spec, with_entry(values, x, 1))
    if isinstance(spec, TorsorSpec):  # a point off the fiber over t
        with pytest.raises(ValueError):
            Measure(spec, with_entry(values, tuple(x + off for x in point), 1))
    if spec.d == 2:  # a point of the wrong rank
        with pytest.raises(ValueError):
            Measure(spec, with_entry(values, point[:1], 1))


# -- numutil._int -------------------------------------------------------


class _Sub(int):
    pass


@given(st.one_of(st.integers(), st.booleans(), st.floats(), st.fractions(),
                 st.builds(_Sub, st.integers()), st.text(max_size=2)))
def test_int_fast_path_accepts_and_refuses_as_before(v):
    accepted = isinstance(v, int) and not isinstance(v, bool)
    if accepted:
        assert _int(v, "x") is v
    else:
        with pytest.raises(TypeError, match="x .* must be an int"):
            _int(v, "x")
