import json
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import ellsoule.verify as verify
from ellsoule.formal import CycSym, FormalClass, random_residue_zero_psi
from ellsoule.serialize import psi_to_json
from ellsoule.verify import SUITE_NAMES, run_suites, suite_bernoulli, suite_dir, suite_moments


def test_all_suites_pass_and_aggregate():
    rep = run_suites(SUITE_NAMES, ell=2, N=3, c=5, rmax=2, kmax=4, trunc=40, seed=0)
    assert rep["suite"] == "all"
    assert [s["suite"] for s in rep["suites"]] == list(SUITE_NAMES)
    assert rep["all_pass"]
    assert rep["summary"]["total"] == sum(
        s["summary"]["total"] for s in rep["suites"]
    )
    failing = [
        (s["suite"], row["case"])
        for s in rep["suites"]
        for row in s["cases"]
        if not row["pass"]
    ]
    assert failing == []


def test_bernoulli_suite_takes_one_family():
    rep = suite_bernoulli(3, 4, 7, 3, 5)
    assert rep == run_suites(["bernoulli"], ell=3, N=4, c=7, rmax=3, kmax=5)
    cases = [row["case"] for row in rep["cases"]]
    assert len(cases) == 3 * 4 * 6 and rep["all_pass"]
    assert cases[:2] == ["congruence_ell3_r1_N4_c7_t0_k0", "congruence_ell3_r1_N4_c7_t0_k1"]
    assert cases[-1] == "congruence_ell3_r3_N4_c7_t3_k5"
    # outside the family (gcd(ell, N) or gcd(c, 6 ell N) not 1), and at
    # c = +-1, where both sides are 0 and every row would pass vacuously, a
    # direct call fails: one raised row, not an empty passing report
    for ell, N, c in ((2, 4, 5), (2, 3, 9), (2, 3, 1), (2, 3, -1)):
        rep = suite_bernoulli(ell, N, c, 2, 2)
        [row] = rep["cases"]
        assert row["case"] == "bernoulli_raised" and row["error"].startswith("ValueError: ")
        assert (row["ell"], row["N"], row["c"]) == (ell, N, c) and not rep["all_pass"]


def test_dir_suite_evaluates_each_bernoulli_value_once(monkeypatch):
    # every closed form reads int numerators off one table per degree n: a
    # cold dir pass converts each B_n it meets once (n = k + 2 for k = 1..6)
    # and never evaluates a Bernoulli polynomial in Fractions
    import ellsoule.bernoulli as bernoulli
    import ellsoule.formal as formal

    def refuse(n, x):
        raise AssertionError("Fraction evaluation on a library path")

    monkeypatch.setattr(bernoulli, "bern_eval", refuse)
    for cached in (bernoulli._bern_ints, formal._eis_residue, formal._residue_ints):
        cached.cache_clear()
    assert suite_dir(seed=1, kmax=4)["all_pass"]
    assert bernoulli._bern_ints.cache_info().misses == 6


@pytest.mark.parametrize("route", ["dir_via_me", "dir_closed"])
def test_a_raising_boundary_route_is_a_failing_dir_row(monkeypatch, route):
    # used to escape suite_dir (and `ellsoule verify`) with no report
    real, calls = getattr(verify, route), []

    def seventh_call_raises(*args):
        calls.append(args)
        if len(calls) == 7:
            raise AssertionError("weightless term survived")
        return real(*args)

    monkeypatch.setattr(verify, route, seventh_call_raises)
    seed, count = 2, 10
    rep = suite_dir(count=count, seed=seed, kmax=1, grid=((3, (7, 13)),))
    rng = Random(f"dir:{seed}:3:1")
    psis = [random_residue_zero_psi(3, 1, rng) for _ in range(count)]
    failing = [row for row in rep["cases"] if not row["pass"]]
    assert [row["case"] for row in failing] == ["two_route_N3_k1_c7"]
    row = failing[0]
    assert (row["seed"], row["index"], row["psi"]) == (seed, 6, psi_to_json(psis[6]))
    assert row["error"] == "AssertionError: weightless term survived"
    assert list(row)[-1] == "pass"


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="'nosuch'"):
        run_suites(["nosuch"])


def test_reports_are_json_serializable_and_stable():
    a = run_suites(["units"], ell=2, N=3, c=5, rmax=2, kmax=4, trunc=40, seed=0)
    b = run_suites(["units"], ell=2, N=3, c=5, rmax=2, kmax=4, trunc=40, seed=0)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_failing_dir_rows_carry_what_reproduces_them(monkeypatch):
    seed, count = 3, 6
    rng = Random(f"dir:{seed}:3:2")
    psis = [random_residue_zero_psi(3, 2, rng) for _ in range(count)]
    raw = [random_residue_zero_psi(3, 2, rng, parity=False) for _ in range(5)]
    real_me, real_residue = verify.dir_via_me, verify.residue

    def perturbed_me(psi, c):
        out = real_me(psi, c)
        if psi in (psis[4], raw[2]):
            out = out + FormalClass({CycSym(psi.k, psi.N, 1): 1})
        return out

    def perturbed_residue(x, target=verify.eis_of_psi(psis[1])):
        return 1 if x == target else real_residue(x)

    monkeypatch.setattr(verify, "dir_via_me", perturbed_me)
    monkeypatch.setattr(verify, "residue", perturbed_residue)
    rep = suite_dir(count=count, seed=seed, kmax=2, grid=((3, (7, 13)),))
    rows = {r["case"]: r for r in rep["cases"]}
    failing = {
        "residue_zero_N3_k2": (1, psis[1]),
        "two_route_N3_k2_c7": (4, psis[4]),
        "two_route_N3_k2_c13": (4, psis[4]),
        "raw_symmetrized_N3_k2": (2, raw[2]),
    }
    for case, row in rows.items():
        if case in failing:
            index, psi = failing[case]
            assert row["pass"] is False
            assert (row["seed"], row["index"], row["psi"]) == (seed, index, psi_to_json(psi))
            assert list(row)[-1] == "pass"
        else:
            assert row["pass"] is True
            assert not {"seed", "index", "psi"} & set(row)


def _soule_rows(rep):
    return {r["case"]: r["pass"] for r in rep["cases"] if r["case"].startswith("soule_residue")}


def test_a_wrong_closed_residue_at_one_a_fails_its_row(monkeypatch):
    # the closed value is computed once per (k, N, c, a): a fault at a = 3
    # alone must still reach the row
    real = verify.residue_soule_closed

    def wrong_at_a3(k, N, c, t):
        out = real(k, N, c, t)
        return out + 1 if (k, N, c, t[0] % N) == (2, 5, 7, 3) else out

    monkeypatch.setattr(verify, "residue_soule_closed", wrong_at_a3)
    rows = _soule_rows(suite_dir(count=1, kmax=1, grid=()))
    assert len(rows) == 90
    assert [case for case, ok in rows.items() if not ok] == ["soule_residue_closed_N5_k2_c7"]


def test_a_wrong_expansion_at_one_point_fails_its_row(monkeypatch):
    # the symbol route is still taken at every (a, b): a fault in the
    # expansion of one point reaches the row
    import ellsoule.formal as formal

    real = formal._soule_terms

    def wrong_at_one_point(sym):
        ck, terms = real(sym)
        if (sym.k, sym.N, sym.c, sym.t) == (3, 4, 11, (1, 2)):
            (t, f), rest = terms[0], terms[1:]
            terms = ((t, f + 1), *rest)
        return ck, terms

    monkeypatch.setattr(formal, "_soule_terms", wrong_at_one_point)
    rows = _soule_rows(suite_dir(count=1, kmax=1, grid=()))
    assert len(rows) == 90
    assert [case for case, ok in rows.items() if not ok] == ["soule_residue_closed_N4_k3_c11"]


def _tower_rows():
    return [r for r in suite_moments()["cases"] if r["case"].startswith("tower_compat")]


@pytest.mark.parametrize("level", [1, 2])
def test_a_failing_tower_row_names_the_level_that_failed(monkeypatch, level):
    # doubling the measure at r = level breaks the trace from level to
    # level - 1; a passing row carries no failed_level, so its bytes stay
    real = verify.bernoulli_measure

    def doubled_at_level(ell, r, N, c, t):
        mu = real(ell, r, N, c, t)
        return mu.scale(2) if r == level else mu

    rows = _tower_rows()
    assert len(rows) == 6 and all(r["pass"] and "failed_level" not in r for r in rows)
    monkeypatch.setattr(verify, "bernoulli_measure", doubled_at_level)
    rows = _tower_rows()
    assert [(r["pass"], r["failed_level"]) for r in rows] == [(False, level - 1)] * 6
    assert list(rows[0])[-2:] == ["failed_level", "pass"]


def test_the_functoriality_judge_fails_a_wrong_induced_map(monkeypatch):
    # a negative control: one coefficient of the induced map's image off by
    # one fails every functoriality row of the moments suite, and no other
    from ellsoule import moments
    from ellsoule.measures import TorsorSpec, dirac
    from ellsoule.tsym import TSym

    real = moments.tsym_map

    def off_by_one(phi, a):
        b = real(phi, a)
        n = next(iter(b.terms), (0,) * b.d)
        return TSym(b.d, b.ring, {**b.terms, n: b.terms.get(n, 0) + 1})

    mu = dirac(TorsorSpec(2, 1, 3, 1, "reduction", (1,)), (1,))
    assert moments.check_functoriality("neg", mu, 2)
    monkeypatch.setattr(moments, "tsym_map", off_by_one)
    assert not moments.check_functoriality("neg", mu, 2)
    failed = [r["case"] for r in suite_moments()["cases"] if not r["pass"]]
    assert failed == [f"{name}_{i}" for name, n in
                      (("negation", 10), ("multiplication", 10), ("projection", 5))
                      for i in range(n)]


@pytest.mark.parametrize(
    "suite, name, mutant, args",
    [
        (verify.suite_tsym, "sym_to_tsym", lambda real: lambda n: real(n).scale(2),
         {"seed": 3, "kmax": 6}),
        (verify.suite_measures, "torsor_elements", lambda real: lambda spec: real(spec)[:-1],
         {"seed": 3}),
        (verify.suite_moments, "divided_power", lambda real: lambda x, k: real(x, k).scale(2),
         {"seed": 3, "kmax": 3}),
    ],
    ids=["tsym", "measures", "moments"],
)
def test_a_failing_seeded_row_carries_its_seed(monkeypatch, suite, name, mutant, args):
    # a scratch mutant fails some rows of a seeded suite: each failing row
    # names the seed (and kmax, where the suite takes it) right after its
    # case, and a passing row carries the fields the real code's row does
    real_rows = suite(**args)["cases"]
    assert all(r["pass"] for r in real_rows)
    monkeypatch.setattr(verify, name, mutant(getattr(verify, name)))
    rows = suite(**args)["cases"]
    failed = [r for r in rows if not r["pass"]]
    assert failed and len(rows) == len(real_rows)
    for got, real in zip(rows, real_rows):
        assert got["case"] == real["case"]
        assert list(got) == (list(real) if got["pass"] else ["case", *args, *list(real)[1:]])
        assert got["pass"] or {k: got[k] for k in args} == args
    # what a failing row carries repeats the run, and the same rows fail
    again = suite(**{k: failed[0][k] for k in args})["cases"]
    assert [r for r in again if not r["pass"]] == failed


def _recording(calls, real):
    def call(*args):
        calls.append(args)
        return real(*args)

    return call


@settings(max_examples=80, deadline=None)
@given(
    names=st.sampled_from([[name] for name in SUITE_NAMES] + [list(SUITE_NAMES)]),
    ell=st.sampled_from([-2, 0, 1, 2, 3, 4, 5]),
    N=st.integers(-1, 6),
    c=st.sampled_from([-7, -5, -1, 0, 1, 3, 5, 7, 11]),
    rmax=st.integers(1, 2),
    trunc=st.sampled_from([1, 2, 3, 4, 40]),
)
def test_refused_input_is_a_value_error_not_a_raised_row(names, ell, N, c, rmax, trunc):
    # the door is complete: refused input is a ValueError raised before any
    # suite body starts (exit 2), and every input it admits gives each suite
    # cases and no failing <suite>_raised row
    calls = []
    with (
        patch.object(verify, "bernoulli_measure", _recording(calls, verify.bernoulli_measure)),
        patch.object(verify, "theta_qexp", _recording(calls, verify.theta_qexp)),
    ):
        try:
            rep = run_suites(names, ell=ell, N=N, c=c, rmax=rmax, trunc=trunc)
        except ValueError:
            assert calls == []
            return
    for block in rep.get("suites", [rep]):
        assert block["cases"]
        assert not [r["case"] for r in block["cases"] if r["case"].endswith("_raised")]


def test_the_valuation_row_names_its_level():
    rep = run_suites(["units"], N=5, c=7)
    [row] = [r for r in rep["cases"] if r["case"].startswith("theta_valuations_level")]
    assert (row["case"], row["level"], row["pass"]) == ("theta_valuations_level10", 10, True)
