import json
from fractions import Fraction

from hypothesis import given, strategies as st

from ellsoule.cyclotomic import CycloElement, euler_phi
from ellsoule.formal import FormalClass, WeightFunction, dir_closed, eis, soule_elliptic
from ellsoule.measures import GroupSpec, Measure, TorsorSpec, torsor_elements
from ellsoule.numutil import rat_str
from ellsoule.puiseux import PuiseuxSeries
from ellsoule.serialize import (
    cyclo_from_json,
    cyclo_to_json,
    formal_from_json,
    formal_to_json,
    measure_from_json,
    measure_to_json,
    psi_from_json,
    psi_to_json,
    series_from_json,
    series_to_json,
    tsym_from_json,
    tsym_to_json,
)
from ellsoule.tsym import TSym


small_rats = st.fractions(max_denominator=30)


@given(st.sampled_from([1, 3, 4, 6, 12]), st.data())
def test_cyclo_roundtrip(M, data):
    coeffs = data.draw(
        st.lists(small_rats, min_size=euler_phi(M), max_size=euler_phi(M))
    )
    x = CycloElement.from_poly(M, coeffs)
    assert cyclo_to_json(x)["coeffs"] == [rat_str(c) for c in x.coeffs]
    assert cyclo_from_json(cyclo_to_json(x)) == x


def test_series_roundtrip():
    f = PuiseuxSeries(
        6,
        9,
        {-2: CycloElement.zeta_pow(6, 1), 3: CycloElement.rational(6, Fraction(7, 2))},
    )
    g = series_from_json(series_to_json(f))
    assert g == f and g.T == 9


def test_measure_roundtrip_torsor():
    spec = TorsorSpec(2, 2, 3, 1, "reduction", (1,))
    mu = Measure(
        spec, {x: Fraction(i - 2, 3) for i, x in enumerate(torsor_elements(spec)) if i != 2}
    )
    assert measure_from_json(measure_to_json(mu)) == mu


def test_measure_roundtrip_group():
    spec = GroupSpec(6, 2)
    mu = Measure(spec, {(1, 2): Fraction(5), (0, 3): Fraction(-1, 7)})
    assert measure_from_json(measure_to_json(mu)) == mu


def test_tsym_roundtrip():
    a = TSym.basis(2, (2, 1), coeff=Fraction(3, 4)) + TSym.basis(2, (0, 1), coeff=-2)
    assert tsym_from_json(tsym_to_json(a)) == a
    b = a.base_change("Z/5")
    assert tsym_from_json(tsym_to_json(b)) == b


def test_formal_roundtrip_all_symbol_kinds():
    x = (
        eis(2, 3, (1, 0)).scale(Fraction(1, 3))
        + soule_elliptic(2, 3, 5, (1, 1))
    )
    assert formal_from_json(formal_to_json(x)) == x
    psi = WeightFunction(2, 3, {(0, 1): 13, (0, 2): 13, (1, 0): 27, (2, 0): 27})
    y = dir_closed(psi)
    assert formal_from_json(formal_to_json(y)) == y


def test_psi_roundtrip():
    psi = WeightFunction(3, 4, {(1, 0): Fraction(2, 5), (0, 3): -7})
    assert psi_from_json(psi_to_json(psi)) == psi


def test_encodings_are_byte_stable():
    spec = TorsorSpec(2, 1, 3, 1, "reduction", (1,))
    mu = Measure(spec, {(1,): Fraction(2), (4,): Fraction(-4)})
    s1 = json.dumps(measure_to_json(mu), sort_keys=True)
    s2 = json.dumps(measure_to_json(mu), sort_keys=True)
    assert s1 == s2
    x = eis(2, 3, (1, 0)) + eis(2, 3, (1, 1))
    assert json.dumps(formal_to_json(x)) == json.dumps(formal_to_json(x))
