"""Acceptance suite: eight exact-equality criteria, one test line each.

Every check here is an exact identity over Q or Q(zeta_M) — no tolerances
anywhere.  Each criterion also carries a wall-clock budget; the budgets are
generous on purpose (the whole file runs in a few seconds) and exist to keep
the suite at desk scale.
"""

import time
from fractions import Fraction
from math import gcd

from ellsoule.bernoulli import bernoulli_measure, bernoulli_moment_closed
from ellsoule.measures import integrate
from ellsoule.moments import moment_torsor
from ellsoule.numutil import mod_inverse_reduce
from ellsoule.units import norm_check_theta
from ellsoule.verify import (
    suite_dir,
    suite_moments,
    suite_residues,
    suite_tsym,
    suite_units,
)


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc == (None, None, None):
            assert self.elapsed < self.seconds, (
                f"ran {self.elapsed:.2f}s, budget {self.seconds}s"
            )


def _failing(rep):
    return [row["case"] for row in rep["cases"] if not row["pass"]]


def test_criterion_1_bernoulli_moment_congruence():
    # torsor moments of the smoothed quadratic measure match the closed
    # Bernoulli expression mod ell^r on the full desk grid; exact spot at
    # (ell=5, r=1, N=3, c=7, t=1, k=1): -181 = 4 = 38/7 mod 5
    with _Budget(10):
        for ell in (2, 3, 5):
            for r in (1, 2, 3):
                q = ell**r
                for N in (3, 4):
                    if gcd(ell, N) != 1:
                        continue
                    for c in (5, 7, 11):
                        if gcd(c, 6 * ell * N) != 1:
                            continue
                        for t in range(N):
                            mu = bernoulli_measure(ell, r, N, c, t)
                            for k in range(5):
                                mom = moment_torsor(mu, k).coeff((k,))
                                closed = bernoulli_moment_closed(k, N, c, t)
                                assert (
                                    mod_inverse_reduce(mom - closed, q, ell) == 0
                                ), (ell, r, N, c, t, k)
        mu = bernoulli_measure(5, 1, 3, 7, 1)
        raw = integrate(mu, lambda x: Fraction(x))
        assert raw == -181
        assert mod_inverse_reduce(raw, 5, 5) == 4
        assert mod_inverse_reduce(Fraction(38, 7), 5, 5) == 4
        assert bernoulli_moment_closed(1, 3, 7, 1) == Fraction(38, 7)


def test_criterion_2_residue_measure_equality():
    # the measure read off q-expansion valuations equals the Bernoulli
    # measure exactly, fiber by fiber, at (ell, r, N, c) = (2, 1, 3, 5),
    # (2, 2, 3, 5) and (3, 1, 4, 5)
    with _Budget(60):
        rep = suite_residues(include_degenerate=False)
        assert _failing(rep) == []
        assert rep["summary"]["total"] == 8 + 8 + 15  # every t != (0, 0)


def test_criterion_3_norm_compatibility():
    # product over the four doubling preimages equals the rescaled base
    # series coefficient-by-coefficient in Q(zeta_12), 24 units of q^{1/12};
    # at (0, 1) the base leads at q^2 = 24 units, so its window 60 compares
    # the q^2, q^3 and q^4 coefficients
    with _Budget(60):
        for point, window in (((1, 1), 24), ((1, 0), 24), ((0, 1), 60)):
            rep = norm_check_theta(6, 2, 5, point, window)
            assert rep["ok"], (point, rep["mismatches"])
            assert rep["window"] == window


def test_criterion_4_cusp_evaluation():
    # constant term at every point over the cusp equals the closed
    # cyclotomic value, and its square factors through the smoothed Xi, at
    # (ell, N, c) = (2, 3, 5) and levels 6 and 12
    with _Budget(10):
        rep = suite_units(2, 3, 5)
        assert _failing(rep) == []
        cusp = [r for r in rep["cases"] if r["case"].startswith("cusp_value_")]
        assert len(cusp) == 5 + 11  # 0 < y < M at M = 6, 12


def test_criterion_5_two_route_boundary_agreement():
    # 50 seeded residue-zero weight functions per (N, k), two smoothing
    # factors each: the closed boundary formula agrees with the
    # smoothed-unit route symbol by symbol
    with _Budget(5):
        rep = suite_dir(count=50, seed=0, kmax=5)
        assert _failing(rep) == []
        two_route = [r for r in rep["cases"] if r["case"].startswith("two_route")]
        assert len(two_route) == 3 * 5 * 2  # (N, k) grid, two factors each


def test_criterion_6_closed_residue_consistency():
    # the closed residue of a smoothed class equals the residue of its
    # expansion, identically over the grid (N = 2..5, k = 1..6, c = 5, 7,
    # 11, 13 prime to N); frozen spot at weight 2; no seeded two-route grid
    with _Budget(1):
        rep = suite_dir(grid=())
        assert _failing(rep) == []
        cases = [r["case"] for r in rep["cases"]]
        assert sum(c.startswith("soule_residue_closed_") for c in cases) == 90
        assert "spot_residue_value" in cases


def test_criterion_7_moment_map_laws():
    # Dirac, convolution, negation, projection, tower, redeclaration and
    # weighted-moment laws over >= 100 seeded randomized cases
    with _Budget(10):
        rep = suite_moments(seed=0, kmax=4)
        assert rep["summary"]["total"] >= 100
        assert _failing(rep) == []


def test_criterion_8_divided_power_laws():
    # addition law, binomial product law, base-change commutation and the
    # rank-2 dimension count, degrees up to six
    with _Budget(5):
        rep = suite_tsym(kmax=6, seed=0)
        assert _failing(rep) == []
