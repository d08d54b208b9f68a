import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ellsoule.measures import (
    GroupSpec,
    Measure,
    TorsorSpec,
    convolve,
    dirac,
    integrate,
    pushforward,
    reduce_mod,
    torsor_elements,
    trace,
)
from ellsoule.serialize import measure_to_json


def rand_measure(spec, rng_values):
    pts = torsor_elements(spec)
    return Measure(spec, {x: Fraction(v) for x, v in zip(pts, rng_values) if v})


values8 = st.lists(st.integers(-9, 9), min_size=8, max_size=8)


def test_fiber_elements_spot():
    spec = TorsorSpec(2, 1, 3, 1, "reduction", (1,))
    assert torsor_elements(spec) == [(1,), (4,)]
    spec5 = TorsorSpec(5, 1, 3, 1, "reduction", (1,))
    assert torsor_elements(spec5) == [(1,), (4,), (7,), (10,), (13,)]


def test_fiber_cardinality():
    for ell, r, N, d in [(2, 2, 3, 1), (3, 1, 4, 2), (5, 1, 3, 1), (2, 3, 5, 2)]:
        spec = TorsorSpec(ell, r, N, d, "reduction", (1,) * d)
        assert len(torsor_elements(spec)) == ell ** (r * d)


def test_both_flavors_same_fiber():
    a = TorsorSpec(2, 2, 3, 1, "reduction", (2,))
    b = TorsorSpec(2, 2, 3, 1, "multiplication", (2,))
    assert torsor_elements(a) == torsor_elements(b)


def test_spec_validation():
    with pytest.raises(ValueError):
        TorsorSpec(4, 1, 3)  # ell not prime
    with pytest.raises(ValueError):
        TorsorSpec(3, 1, 6)  # gcd(ell, N) != 1


def test_dirac_convolution_is_group_law():
    spec = GroupSpec(6, 1)
    assert convolve(dirac(spec, (1,)), dirac(spec, (2,))) == dirac(spec, (3,))


@given(values8, values8)
def test_convolution_commutes(vals1, vals2):
    spec = GroupSpec(8, 1)
    mu = rand_measure(spec, vals1)
    nu = rand_measure(spec, vals2)
    assert convolve(mu, nu) == convolve(nu, mu)


@given(values8, values8, values8)
def test_convolution_associates(v1, v2, v3):
    spec = GroupSpec(8, 1)
    mu, nu, rho = (rand_measure(spec, v) for v in (v1, v2, v3))
    assert convolve(convolve(mu, nu), rho) == convolve(mu, convolve(nu, rho))


def test_torsor_convolution_adds_base_points():
    s1 = TorsorSpec(2, 1, 3, 1, "reduction", (1,))
    s2 = TorsorSpec(2, 1, 3, 1, "reduction", (2,))
    mu = dirac(s1, (1,))
    nu = dirac(s2, (5,))
    out = convolve(mu, nu)
    assert out.spec.t == (0,)
    assert out == dirac(out.spec, (0,))


@given(values8, values8)
def test_total_mass_multiplicative_under_convolution(v1, v2):
    spec = GroupSpec(8, 1)
    mu = rand_measure(spec, v1)
    nu = rand_measure(spec, v2)
    assert convolve(mu, nu).total_mass() == mu.total_mass() * nu.total_mass()


def test_trace_tower_collapses_fibers():
    hi = TorsorSpec(2, 2, 3, 1, "reduction", (1,))
    mu = Measure(hi, {x: Fraction(i + 1) for i, x in enumerate(torsor_elements(hi))})
    lo = trace(mu)
    assert lo.spec.r == 1
    assert lo.total_mass() == mu.total_mass()
    # values over the lower fiber aggregate the two preimages each
    assert set(lo.values) == {(1,), (4,)}


@given(values8)
def test_pushforward_preserves_mass(vals):
    spec = GroupSpec(8, 1)
    mu = rand_measure(spec, vals)
    for phi in ("neg", ("mult", 3), ("mult", 2)):
        assert pushforward(phi, mu).total_mass() == mu.total_mass()


@given(values8)
def test_pushforward_composition(vals):
    spec = GroupSpec(8, 1)
    mu = rand_measure(spec, vals)
    one_step = pushforward(("mult", 6), mu)
    two_step = pushforward(("mult", 3), pushforward(("mult", 2), mu))
    assert one_step == two_step


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec(8, 1),
        GroupSpec(3, 2),
        TorsorSpec(2, 3, 3, 1, "reduction", (1,)),
        TorsorSpec(2, 1, 5, 2, "multiplication", (1, 3)),
    ],
)
@given(vals=values8)
def test_neg_is_mult_minus_one(spec, vals):
    mu = rand_measure(spec, vals)
    assert pushforward("neg", mu) == pushforward(("mult", -1), mu)


def test_projection_of_rank_two():
    spec = GroupSpec(4, 2)
    mu = dirac(spec, (1, 3))
    assert pushforward(("proj", 0), mu) == dirac(GroupSpec(4, 1), (1,))
    assert pushforward(("proj", 1), mu) == dirac(GroupSpec(4, 1), (3,))


@pytest.mark.parametrize(
    "phi, exc",
    [
        (("mult", 2.5), TypeError),  # used to send 1 -> 2 and 3 -> 7
        (("mult", True), TypeError),  # used to act as multiplication by 1
        (("mult", Fraction(3)), TypeError),
        (("proj", -1), ValueError),  # used to project onto the last coordinate
        (("proj", 2), ValueError),  # used to raise IndexError
        (("proj", True), TypeError),
        (("mult",), ValueError),
        ("twist", ValueError),
    ],
)
def test_map_descriptions_are_checked(phi, exc):
    for spec in (GroupSpec(8, 2), TorsorSpec(2, 1, 3, 2, "reduction", (1, 2))):
        mu = dirac(spec, torsor_elements(spec)[-1])
        with pytest.raises(exc):
            pushforward(phi, mu)


def test_integrate_spot_first_moment():
    # smoothed quadratic measure over the fiber 1 mod 3 at level 15
    from ellsoule.bernoulli import bernoulli_measure

    mu = bernoulli_measure(5, 1, 3, 7, 1)
    assert sorted(mu.values.values()) == [-30, -20, -11, 18, 39]
    assert integrate(mu, lambda x: Fraction(x)) == -181


def test_reduce_mod_inverts_units():
    spec = GroupSpec(8, 1)
    mu = Measure(spec, {(1,): Fraction(14, 5)})
    assert reduce_mod(mu, 4, 2) == {(1,): 2}


def test_reduce_mod_rejects_bad_denominator():
    spec = GroupSpec(8, 1)
    mu = Measure(spec, {(1,): Fraction(1, 2)})
    with pytest.raises(ArithmeticError):
        reduce_mod(mu, 4, 2)


@given(st.floats() | st.booleans())
@example(0.1)  # used to become 3602879701896397/36028797018963968
@example(True)  # used to become 1
def test_inexact_values_are_rejected(x):
    spec = TorsorSpec(2, 1, 3, 1, "reduction", (1,))
    with pytest.raises(TypeError):
        Measure(spec, {(1,): x})
    with pytest.raises(TypeError):
        Measure(GroupSpec(3, 1), {(1,): x})
    with pytest.raises(TypeError):
        Measure(spec, {(1,): 2}).scale(x)


@pytest.mark.parametrize("x", [2.9, 1.7, 2.0, True])
def test_inexact_coordinates_are_rejected(x):
    # int() used to truncate them: {(2.9,): 1, (2,): 3} kept only {(2,): 3},
    # dirac at 1.7 was the point mass at 1, and a base point 1.7 became (1,)
    group = GroupSpec(8, 1)
    with pytest.raises(TypeError):
        Measure(group, {(x,): 1, (2,): 3})
    with pytest.raises(TypeError):  # a zero value used to skip the point check
        Measure(group, {(x,): 0})
    with pytest.raises(TypeError):
        dirac(group, (x,))
    with pytest.raises(TypeError):
        dirac(group, x)
    with pytest.raises(TypeError):
        dirac(group, (1,))(x)
    with pytest.raises(TypeError):
        TorsorSpec(2, 1, 3, 1, "reduction", (x,))
    with pytest.raises(TypeError):
        dirac(GroupSpec(8, 2), (1, x))


def test_off_fiber_point_with_value_zero_is_rejected():
    # the fiber of t = 1 mod 3 at level 6 is {1, 4}; 2 is off it, and a zero
    # value at 2 used to skip the point check
    spec = TorsorSpec(2, 1, 3, 1, "reduction", (1,))
    for v in (0, Fraction(0), 1):
        with pytest.raises(ValueError, match="not in the fiber"):
            Measure(spec, {(1,): 1, (2,): v})


def test_int_coordinates_reduce_mod_the_modulus():
    group = GroupSpec(8, 1)
    assert Measure(group, {(10,): 1, (-6,): 2}).values == {(2,): Fraction(2)}
    assert dirac(group, -1) == dirac(group, (7,))
    assert TorsorSpec(2, 1, 3, 1, "reduction", (-2,)).t == (1,)


# -- the canonical stored form: an int when integral, else a lowest-terms Fraction

rationals = st.integers(-30, 30) | st.fractions(-30, 30, max_denominator=6)
SPEC4 = TorsorSpec(2, 2, 3, 1, "reduction", (1,))
MIXED = {(1,): Fraction(4, 2), (4,): Fraction(1, 3), (7,): -5, (10,): Fraction(-6, 4)}


def _assert_stored_canonically(mu):
    for v in mu.values.values():
        assert type(v) in (int, Fraction) and v
        assert (type(v) is int) == (Fraction(v).denominator == 1)


def test_integral_values_are_stored_as_ints():
    mu = Measure(SPEC4, MIXED)
    assert mu.values == {(1,): 2, (4,): Fraction(1, 3), (7,): -5, (10,): Fraction(-3, 2)}
    assert [type(v) for v in mu.values.values()] == [int, Fraction, int, Fraction]
    assert type(Measure(SPEC4, {(1,): Fraction(4, 2)}).values[(1,)]) is int
    assert type(dirac(SPEC4, (4,)).values[(4,)]) is int


@given(st.lists(rationals, min_size=4, max_size=4), st.lists(rationals, min_size=4, max_size=4), rationals)
@example([Fraction(4, 2), Fraction(1, 3), 0, -1], [Fraction(3, 2), Fraction(2, 3), 1, 0], Fraction(3))
def test_every_operation_keeps_the_canonical_form(a, b, c):
    pts = torsor_elements(SPEC4)
    mu, nu = Measure(SPEC4, dict(zip(pts, a))), Measure(SPEC4, dict(zip(pts, b)))
    for x in (mu, mu + nu, mu - nu, -mu, mu.scale(c), convolve(mu, nu),
              pushforward("neg", mu), pushforward(("mult", 5), mu), trace(mu)):
        _assert_stored_canonically(x)


@given(st.lists(rationals, min_size=4, max_size=4))
def test_values_built_from_fractions_equal_and_hash_like_ints(vals):
    pts = torsor_elements(SPEC4)
    as_fractions = Measure(SPEC4, {x: Fraction(v) for x, v in zip(pts, vals)})
    as_given = Measure(SPEC4, dict(zip(pts, vals)))
    assert as_fractions == as_given and hash(as_fractions) == hash(as_given)
    assert as_fractions.values == as_given.values
    assert [type(v) for v in as_fractions.values.values()] == [
        type(v) for v in as_given.values.values()
    ]


def test_json_and_repr_bytes_are_unchanged():
    # pinned from the all-Fraction representation
    mu = Measure(SPEC4, MIXED)
    assert json.dumps(measure_to_json(mu)) == (
        '{"spec": {"kind": "torsor", "ell": 2, "r": 2, "N": 3, "d": 1, '
        '"flavor": "reduction", "t": [1]}, "values": [{"x": [1], "v": "2"}, '
        '{"x": [4], "v": "1/3"}, {"x": [7], "v": "-5"}, {"x": [10], "v": "-3/2"}]}'
    )
    assert repr(mu) == (
        "Measure(TorsorSpec(ell=2, r=2, N=3, d=1, flavor='reduction', t=(1,)), "
        "{(1,): 2, (4,): 1/3, (7,): -5, (10,): -3/2})"
    )


def test_computed_scalars_stay_fractions():
    mu = Measure(SPEC4, {(1,): 2, (7,): -5})
    for value in (mu.total_mass(), integrate(mu, lambda x: x),
                  Measure(SPEC4, {}).total_mass(), integrate(Measure(SPEC4, {}), lambda x: x)):
        assert type(value) is Fraction
    assert mu.total_mass() == -3 and integrate(mu, lambda x: x) == -33
    assert mu((1,)) == 2 and mu((4,)) == 0
