"""Laws of the moment maps from measure algebras into divided powers.

The degree-k moment of a Dirac measure is the divided power of its point;
convolution goes to the graded product; negation acts by (-1)^k; moments of
a torsor measure only carry mod-ell^r meaning, and all tower/redeclaration
comparisons below are exact congruences at that modulus.
"""

from fractions import Fraction
from math import factorial, gcd
from random import Random

import pytest
from hypothesis import given, strategies as st

from ellsoule import measures
from ellsoule.bernoulli import bernoulli_measure
from ellsoule.measures import (
    GroupSpec,
    Measure,
    TorsorSpec,
    convolve,
    dirac,
    pushforward,
    torsor_elements,
    trace,
)
from ellsoule.moments import (
    check_functoriality,
    check_trace_compat,
    modified_moment,
    moment,
    moment_torsor,
    redeclare,
    tsym_reduce,
)
from ellsoule.numutil import vp
from ellsoule.tsym import TSym, divided_power, tsym_map


values4 = st.lists(st.integers(-9, 9), min_size=4, max_size=4)
degrees = st.integers(0, 4)


def rand_measure(spec, vals):
    pts = torsor_elements(spec)
    return Measure(spec, {x: Fraction(v) for x, v in zip(pts, vals) if v})


# Dirac measures have exact moments: the divided power of the point


@given(st.integers(0, 7), st.integers(0, 7), degrees)
def test_dirac_moment_is_divided_power(x, y, k):
    spec = GroupSpec(8, 2)
    mu = dirac(spec, (x, y))
    assert moment(mu, k) == divided_power((x, y), k)


def test_dirac_moment_spot():
    spec = GroupSpec(8, 2)
    got = moment(dirac(spec, (1, 2)), 2)
    want = (
        TSym.basis(2, (2, 0))
        + TSym.basis(2, (1, 1), coeff=2)
        + TSym.basis(2, (0, 2), coeff=4)
    )
    assert got == want


# the moment is computed as its coefficients; the reference accumulates the
# divided power of each point of the support, scaled by its value


def ref_moment(mu, k, coord):
    out = TSym.zero(mu.spec.d)
    for x, v in sorted(mu.values.items()):
        out = out + divided_power(tuple(coord(xi) for xi in x), k).scale(v)
    return out


def seeded_measure(spec, rng, npts=5):
    pts = torsor_elements(spec)
    pts = rng.sample(pts, min(npts, len(pts)))
    return Measure(spec, {x: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for x in pts})


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_moments_equal_per_point_accumulation(ell):
    rng = Random(f"moment-reference:{ell}")
    for r in (0, 1, 2):
        q = ell ** r
        for N in (3, 4, 5, 7):
            if gcd(ell, N) != 1:
                continue
            for d in (1, 2):
                flavor = rng.choice(["reduction", "multiplication"])
                group_fiber = TorsorSpec(ell, r, N, d, flavor, (0,) * d)
                shifted = group_fiber.with_t(tuple(rng.randrange(N) for _ in range(d)))
                mu0 = seeded_measure(group_fiber, rng)
                mu1 = seeded_measure(shifted, rng)
                for k in range(7):
                    assert moment(mu0, k) == ref_moment(mu0, k, lambda xi: xi // N)
                    for mu in (mu0, mu1):
                        assert moment_torsor(mu, k) == ref_moment(mu, k, lambda xi: xi % q)


@pytest.mark.parametrize("m, d", [(1, 1), (5, 1), (6, 2), (8, 2)])
def test_group_moment_equals_per_point_accumulation(m, d):
    rng = Random(f"moment-reference:group:{m}:{d}")
    for mu in (seeded_measure(GroupSpec(m, d), rng), Measure(GroupSpec(m, d), {})):
        for k in range(7):
            assert moment(mu, k) == ref_moment(mu, k, lambda xi: xi)


# convolution of measures maps to the product of moments (graded, summed)


@given(values4, values4, degrees)
def test_convolution_to_product(v1, v2, k):
    spec = GroupSpec(4, 1)
    mu = rand_measure(spec, v1)
    nu = rand_measure(spec, v2)
    q = 4
    lhs = moment(convolve(mu, nu), k)
    rhs = TSym.zero(1)
    for i in range(k + 1):
        rhs = rhs + moment(mu, i) * moment(nu, k - i)
    # the group is Z/4, so the comparison lives mod 4
    assert tsym_reduce(lhs, q) == tsym_reduce(rhs, q)


@given(values4, degrees)
def test_negation_acts_by_parity(vals, k):
    spec = GroupSpec(4, 1)
    mu = rand_measure(spec, vals)
    lhs = moment(pushforward("neg", mu), k)
    rhs = moment(mu, k).scale((-1) ** k)
    assert tsym_reduce(lhs, 4) == tsym_reduce(rhs, 4)


@given(values4, degrees, st.sampled_from([("mult", 1), ("mult", 5), ("mult", 7), "neg"]))
def test_multiplication_functoriality(vals, k, phi):
    spec = TorsorSpec(2, 2, 3, 1, "reduction", (1,))
    mu = rand_measure(spec, vals)
    assert check_functoriality(phi, mu, k)


@pytest.mark.parametrize(
    "spec",
    [TorsorSpec(2, 2, 3, 1, "reduction", (1,)), TorsorSpec(3, 1, 4, 2, "reduction", (1, 3))],
)
@given(vals=values4, k=degrees)
def test_neg_functoriality_is_mult_minus_one(spec, vals, k):
    mu = rand_measure(spec, vals)
    assert check_functoriality("neg", mu, k)
    assert check_functoriality(("mult", -1), mu, k)


@pytest.mark.parametrize(
    "phi, exc",
    [
        ("reduce", ValueError),  # used to push forward and take a moment first
        (("proj", -1), ValueError),  # used to compare against a zero matrix
        (("proj", 2), ValueError),  # used to raise IndexError
        (("mult", True), TypeError),
    ],
)
def test_functoriality_rejects_before_pushing(phi, exc, monkeypatch):
    def no_push(*args):
        raise AssertionError("pushed forward before checking the map")

    monkeypatch.setattr("ellsoule.moments._push", no_push)
    mu = dirac(TorsorSpec(2, 2, 3, 2, "reduction", (1, 2)), (1, 2))
    with pytest.raises(exc):
        check_functoriality(phi, mu, 2)


@pytest.mark.parametrize("phi", ["neg", ("mult", 5), ("proj", 1)])
def test_functoriality_checks_the_map_once(phi, monkeypatch):
    # one map check builds the image spec once for both sides
    calls = []
    real = measures._map

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(measures, "_map", counting)
    monkeypatch.setattr("ellsoule.moments._map", counting)
    mu = dirac(TorsorSpec(2, 2, 3, 2, "reduction", (1, 2)), (1, 2))
    assert check_functoriality(phi, mu, 2)
    assert calls == [phi]


# torsor moments: congruences in the tower


def test_trace_compat_spot():
    tower = [bernoulli_measure(2, r, 3, 5, 1) for r in range(3)]
    res = check_trace_compat(tower, 2)
    assert res["ok"]


@given(st.sampled_from([(2, 3), (3, 4), (5, 3)]), degrees, values4)
def test_trace_congruence(pair, k, vals):
    ell, N = pair
    hi = TorsorSpec(ell, 2, N, 1, "reduction", (1,))
    mu = rand_measure(hi, vals * (ell * ell // min(4, ell * ell) + 1))
    lo = trace(mu)
    q = ell  # moments at the lower level live mod ell^1
    lhs = tsym_reduce(moment_torsor(lo, k), q)
    rhs = tsym_reduce(moment_torsor(mu, k), q)
    assert lhs == rhs


def test_redeclare_preserves_fiber_data():
    mu = bernoulli_measure(2, 2, 3, 5, 1)
    nu = redeclare(mu, 5)
    assert nu.spec.N == 15 and nu.spec.t == (5,)
    assert nu.total_mass() == mu.total_mass()
    # the transported points are m*x mod ell^r N'
    assert set(nu.values) == {((5 * x[0]) % 60,) for x in mu.values}


@given(degrees)
def test_redeclared_moments_agree_mod_level(k):
    mu = bernoulli_measure(2, 2, 3, 5, 1)
    nu = redeclare(mu, 5)
    q = 4
    lhs = tsym_reduce(tsym_map(5, moment_torsor(mu, k)), q)
    rhs = tsym_reduce(moment_torsor(nu, k), q)
    assert lhs == rhs


@given(st.integers(1, 4))
def test_modified_moment_level_independence(k):
    # modified moments of the same datum at levels N and 5N agree ell-adically
    mu = bernoulli_measure(2, 2, 3, 5, 1)
    nu = redeclare(mu, 5)
    a = modified_moment(mu, k)
    b = modified_moment(nu, k)
    diff = a - b
    bound = 2 - vp(factorial(k), 2)
    if diff != 0:
        assert vp(diff.numerator, 2) - vp(diff.denominator, 2) >= bound


def test_moment_rejects_shifted_fiber():
    mu = bernoulli_measure(2, 1, 3, 5, 1)
    with pytest.raises(ValueError):
        moment(mu, 1)  # fiber over t = 1 is not the group fiber


def test_moment_torsor_spot_values():
    mu181 = bernoulli_measure(5, 1, 3, 7, 1)
    tor = moment_torsor(mu181, 1).coeff((1,))
    assert tor % 5 == (-181) % 5
    # the modified moment is the torsor moment over N^k k!, 5-adically
    # congruent to the raw -181/3
    diff = modified_moment(mu181, 1) - Fraction(-181, 3)
    assert diff == 0 or vp(diff.numerator, 5) - vp(diff.denominator, 5) >= 1
