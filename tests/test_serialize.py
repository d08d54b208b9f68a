"""JSON encodings: each encoder's output is pinned to an exact value, so a
change of format fails here; the streamed series document equals the
`json.dumps` of a dict reference; the CLI input `psi_from_json` round-trips."""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, strategies as st

from ellsoule.cyclotomic import CycloElement, euler_phi
from ellsoule.formal import CycSym, EisSym, FormalClass, SouleSym, WeightFunction, dir_closed
from ellsoule.measures import GroupSpec, Measure, TorsorSpec, torsor_elements
from ellsoule.numutil import rat_str
from ellsoule.puiseux import PuiseuxSeries
from ellsoule.serialize import (
    cyclo_to_json,
    formal_to_json,
    measure_to_json,
    psi_from_json,
    psi_to_json,
    series_json,
)
from ellsoule.tsym import TSym
from ellsoule.units import _e0, theta_series


small_rats = st.fractions(max_denominator=30)


@given(st.sampled_from([1, 3, 4, 6, 12]), st.data())
def test_cyclo_roundtrip(M, data):
    coeffs = data.draw(
        st.lists(small_rats, min_size=euler_phi(M), max_size=euler_phi(M))
    )
    x = CycloElement.from_poly(M, coeffs)
    assert cyclo_to_json(x) == {"M": M, "coeffs": [rat_str(c) for c in x.coeffs]}


def test_cyclo_encoding_is_pinned():
    x = CycloElement(12, [Fraction(1, 2), 0, -3, Fraction(5, 7)])
    assert cyclo_to_json(x) == {"M": 12, "coeffs": ["1/2", "0", "-3", "5/7"]}
    # -zeta_6^3 / 4 = 1/4 after reduction mod Phi_6
    y = CycloElement.from_poly(6, [0, 0, 0, Fraction(-1, 4)])
    assert cyclo_to_json(y) == {"M": 6, "coeffs": ["1/4", "0"]}


def series_ref(f: PuiseuxSeries) -> dict:
    """The series as a dict tree, the encoding `series_json` streams."""
    return {
        "M": f.M,
        "T": f.T,
        "terms": [{"n": n, "coeff": cyclo_to_json(c)} for n, c in sorted(f.terms.items())],
    }


def test_series_roundtrip():
    f = PuiseuxSeries(
        6,
        9,
        {-2: CycloElement.zeta_pow(6, 1), 3: CycloElement.rational(6, Fraction(7, 2))},
    )
    assert json.loads("".join(series_json(f))) == {
        "M": 6,
        "T": 9,
        "terms": [
            {"n": -2, "coeff": {"M": 6, "coeffs": ["0", "1"]}},
            {"n": 3, "coeff": {"M": 6, "coeffs": ["7/2", "0"]}},
        ],
        "valuation": "-2/6",
    }


def test_series_json_refuses_the_zero_series():
    with pytest.raises(ValueError, match="zero"):
        next(series_json(PuiseuxSeries(6, 9, {})))


def _smallest_c(M):
    return next(c for c in range(5, 6 * M) if gcd(c, 6 * M) == 1)


@st.composite
def theta_points(draw):
    M = draw(st.integers(2, 60))
    x = draw(st.integers(0, M - 1))
    y = draw(st.integers(1 if x == 0 else 0, M - 1))
    return M, x, y, draw(st.integers(1, 12))


def _assert_streams_as_the_reference(f):
    doc = series_ref(f) | {"valuation": f"{min(f.terms)}/{f.M}"}
    assert "".join(series_json(f)) == json.dumps(doc, indent=2)


@given(theta_points())
@example((6, 0, 1, 13))  # x = 0: the Xi_c constant, every M-th term stored
@example((12, 0, 5, 30))
@example((12, 6, 1, 12))  # x = M/2 leads at a negative exponent
@example((60, 30, 7, 5))
@example((12, 4, 2, 12))  # gcd(x, M) > 1: h = 4 / gcd(4, 2) = 2
@example((60, 15, 0, 8))
def test_series_json_of_theta_units_is_json_dumps_of_the_reference(point):
    M, x, y, window = point
    c = _smallest_c(M)
    _assert_streams_as_the_reference(theta_series(M, c, (x, y), _e0(M, c, x) + window))


@given(st.sampled_from([1, 3, 4, 6, 12]), st.data())
def test_series_json_over_rational_coordinates_is_json_dumps_of_the_reference(M, data):
    # a theta unit's coordinates are integers (Xi_c is integral too), so the
    # den > 1 branch is reached only by series like these
    phi = euler_phi(M)
    exponents = data.draw(st.sets(st.integers(-20, 20), min_size=1, max_size=6))
    coords = st.lists(small_rats, min_size=phi, max_size=phi)
    f = PuiseuxSeries(M, 21, {n: CycloElement(M, data.draw(coords)) for n in exponents})
    assume(f.terms)
    _assert_streams_as_the_reference(f)


def test_measure_roundtrip_torsor():
    spec = TorsorSpec(2, 2, 3, 1, "reduction", (1,))
    mu = Measure(
        spec, {x: Fraction(i - 2, 3) for i, x in enumerate(torsor_elements(spec)) if i != 2}
    )
    assert measure_to_json(mu) == {
        "spec": {"kind": "torsor", "ell": 2, "r": 2, "N": 3, "d": 1, "flavor": "reduction",
                 "t": [1]},
        "values": [{"x": [1], "v": "-2/3"}, {"x": [4], "v": "-1/3"}, {"x": [10], "v": "1/3"}],
    }


def test_measure_roundtrip_group():
    spec = GroupSpec(6, 2)
    mu = Measure(spec, {(1, 2): Fraction(5), (0, 3): Fraction(-1, 7)})
    assert measure_to_json(mu) == {
        "spec": {"kind": "group", "m": 6, "d": 2},
        "values": [{"x": [0, 3], "v": "-1/7"}, {"x": [1, 2], "v": "5"}],
    }


def test_tsym_roundtrip():
    a = TSym.basis(2, (2, 1), coeff=Fraction(3, 4)) + TSym.basis(2, (0, 1), coeff=-2)
    assert a.ring == "Q" and a.terms == {(0, 1): -2, (2, 1): Fraction(3, 4)}
    # over Z/5: -2 = 3 and 3/4 = 3 * 4 = 2
    b = a.base_change("Z/5")
    assert b.ring == "Z/5" and b.terms == {(0, 1): 3, (2, 1): 2}


def test_formal_roundtrip_all_symbol_kinds():
    x = FormalClass(
        {
            EisSym(2, 3, (1, 0)): Fraction(1, 3),
            SouleSym(2, 3, 5, (1, 1)): 1,
            CycSym(2, 3, 1): Fraction(-13, 6),
        }
    )
    assert formal_to_json(x) == [
        {"sym": {"kind": "CycSoule", "k": 2, "N": 3, "b": 1}, "coeff": "-13/6"},
        {"sym": {"kind": "Eis", "k": 2, "N": 3, "t": [1, 0]}, "coeff": "1/3"},
        {"sym": {"kind": "SouleElliptic", "k": 2, "N": 3, "c": 5, "t": [1, 1]}, "coeff": "1"},
    ]
    psi = WeightFunction(2, 3, {(0, 1): 13, (0, 2): 13, (1, 0): 27, (2, 0): 27})
    assert formal_to_json(dir_closed(psi)) == [
        {"sym": {"kind": "CycSoule", "k": 2, "N": 3, "b": 1}, "coeff": "-13/6"},
        {"sym": {"kind": "CycSoule", "k": 2, "N": 3, "b": 2}, "coeff": "-13/6"},
    ]


def test_psi_roundtrip():
    psi = WeightFunction(3, 4, {(1, 0): Fraction(2, 5), (0, 3): -7})
    assert psi_from_json(psi_to_json(psi)) == psi


def test_encodings_are_byte_stable():
    spec = TorsorSpec(2, 1, 3, 1, "reduction", (1,))
    mu = Measure(spec, {(1,): Fraction(2), (4,): Fraction(-4)})
    assert json.dumps(measure_to_json(mu), sort_keys=True) == (
        '{"spec": {"N": 3, "d": 1, "ell": 2, "flavor": "reduction", "kind": "torsor", '
        '"r": 1, "t": [1]}, "values": [{"v": "2", "x": [1]}, {"v": "-4", "x": [4]}]}'
    )
    x = FormalClass({EisSym(2, 3, (1, 0)): 1, EisSym(2, 3, (1, 1)): 1})
    assert json.dumps(formal_to_json(x)) == (
        '[{"sym": {"kind": "Eis", "k": 2, "N": 3, "t": [1, 0]}, "coeff": "1"}, '
        '{"sym": {"kind": "Eis", "k": 2, "N": 3, "t": [1, 1]}, "coeff": "1"}]'
    )
