import inspect
import json
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import ellsoule.verify as verify
from ellsoule import cli
from ellsoule.formal import CycSym, FormalClass, random_residue_zero_psi
from ellsoule.measures import Measure, torsor_elements
from ellsoule.numutil import rat_str
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
    seed = 2
    rep = suite_dir(seed=seed, kmax=1)
    rng = Random(f"dir:{seed}:3:1")
    psis = [random_residue_zero_psi(3, 1, rng) for _ in range(verify.DIR_COUNT)]
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
    seed = 3
    rng = Random(f"dir:{seed}:3:2")
    psis = [random_residue_zero_psi(3, 2, rng) for _ in range(verify.DIR_COUNT)]
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
    rep = suite_dir(seed=seed, kmax=2)
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
    rep = suite_dir(kmax=1)
    rows = _soule_rows(rep)
    assert len(rows) == 90
    assert [case for case, ok in rows.items() if not ok] == ["soule_residue_closed_N5_k2_c7"]
    # the row names the first failing point, t = (3, 0), with both residues
    [row] = [r for r in rep["cases"] if r["case"] == "soule_residue_closed_N5_k2_c7"]
    value = real(2, 5, 7, (3, 0))
    assert row == {
        "case": "soule_residue_closed_N5_k2_c7",
        "seed": 0,
        "kmax": 1,
        "t": [3, 0],
        "closed": rat_str(value + 1),
        "expansion": rat_str(value),
        "pass": False,
    }


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
    rows = _soule_rows(suite_dir(kmax=1))
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


# every `verify` flag, each away from its default
NON_DEFAULT = dict(ell=3, N=4, c=7, rmax=1, kmax=2, trunc=30, seed=5)


def _suite_params(name):
    return tuple(inspect.signature(getattr(verify, f"suite_{name}")).parameters)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_a_suite_takes_only_verify_flags(name):
    flags = tuple(inspect.signature(run_suites).parameters)[1:]
    assert flags == tuple(NON_DEFAULT) and set(_suite_params(name)) <= set(flags)
    # a suite declares no default of its own: an omitted flag is run_suites'
    params = inspect.signature(getattr(verify, f"suite_{name}")).parameters.values()
    assert all(p.default is inspect.Parameter.empty for p in params)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_run_suites_calls_a_suite_with_its_flags(name):
    suite = getattr(verify, f"suite_{name}")
    direct = suite(**{p: NON_DEFAULT[p] for p in _suite_params(name)})
    assert direct["all_pass"]
    assert run_suites([name], **NON_DEFAULT) == direct


@pytest.mark.parametrize(
    "name, route, carried",
    [
        ("residues", "residue_elliptic_soule", ("ell", "N", "c", "rmax")),
        ("dir", "residue_soule_closed", ("seed", "kmax")),
    ],
)
def test_a_raised_row_carries_the_flags_that_repeat_it(monkeypatch, name, route, carried):
    # a mutant of the suite's first call raises: the one raised row carries
    # the flags the suite reads, and no others, and those flags repeat it
    def raises(*args):
        raise ArithmeticError("mutant")

    monkeypatch.setattr(verify, route, raises)
    rep = run_suites([name], **NON_DEFAULT)
    [row] = rep["cases"]
    assert row["case"] == f"{name}_raised" and row["error"] == "ArithmeticError: mutant"
    assert list(row) == ["case", *carried, "error", "after", "pass"]
    assert {k: row[k] for k in carried} == {k: NON_DEFAULT[k] for k in carried}
    assert run_suites([name], **{k: row[k] for k in carried}) == rep


def test_a_failing_tsym_row_carries_the_kmax_run_suites_was_given(monkeypatch):
    # the suite runs degrees up to max(kmax, 6), but a failing row names the
    # kmax the run was given, and that kmax repeats the run
    real = verify.sym_to_tsym
    monkeypatch.setattr(verify, "sym_to_tsym", lambda n: real(n).scale(2))
    rep = run_suites(["tsym"], seed=3)
    failed = [r for r in rep["cases"] if not r["pass"]]
    assert failed and {(r["seed"], r["kmax"]) for r in failed} == {(3, 4)}
    assert run_suites(["tsym"], seed=failed[0]["seed"], kmax=failed[0]["kmax"]) == rep


def test_the_verify_defaults_are_declared_once():
    # the parser and the plain-argv reader take the defaults from run_suites
    assert tuple(verify.FLAGS) == tuple(inspect.signature(run_suites).parameters)[1:]
    for args in (cli.build_parser().parse_args(["verify"]), cli._read(["verify"])):
        assert {k: getattr(args, k) for k in verify.FLAGS} == verify.FLAGS


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_a_suite_called_bare_runs_the_verify_defaults(name):
    assert getattr(verify, f"suite_{name}")() == run_suites([name])


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify.suite_tsym(seed=0, c=5),
        lambda: verify.suite_measures(0, 1),
        lambda: verify.suite_dir(0, seed=1),
        lambda: verify.suite_units(nosuch=1),
    ],
    ids=["unknown-flag", "too-many", "given-twice", "no-such-name"],
)
def test_a_suite_given_an_argument_it_does_not_take_raises(call):
    with pytest.raises(TypeError):
        call()


def _one_heavier(mu):
    return mu + Measure(mu.spec, {max(torsor_elements(mu.spec)): 1})


# suite -> (the name in verify a mutant replaces, the mutant of the real one);
# each fails some rows of its suite at NON_DEFAULT and passes the others
MUTANTS = {
    "tsym": ("sym_to_tsym", lambda real: lambda n: real(n).scale(2)),
    "measures": ("torsor_elements", lambda real: lambda spec: real(spec)[:-1]),
    "moments": ("divided_power", lambda real: lambda x, k: real(x, k).scale(2)),
    "bernoulli": (
        "bernoulli_moment_closed",
        lambda real: lambda k, N, c, t: real(k, N, c, t) + (k == 2),
    ),
    "units": ("residue_elliptic_soule", lambda real: lambda *a: _one_heavier(real(*a))),
    "residues": (
        "bernoulli_measure",
        lambda real: lambda *a: _one_heavier(real(*a)) if a[-1] == 1 else real(*a),
    ),
    "dir": (
        "residue_soule_closed",
        lambda real: lambda k, N, c, t: real(k, N, c, t) + ((k, N, c, t[0] % N) == (2, 5, 7, 3)),
    ),
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_failing_row_carries_its_suites_flags(monkeypatch, name):
    # one rule for every suite: a failing row carries all of the suite's
    # flags, as given, right after its case, and they repeat the run; a
    # passing row keeps the keys it has when nothing fails
    params = verify._PARAMS[name]
    given = {p: NON_DEFAULT[p] for p in params}
    suite = getattr(verify, f"suite_{name}")
    real_rows = suite(**given)["cases"]
    assert all(r["pass"] for r in real_rows)
    route, mutant = MUTANTS[name]
    monkeypatch.setattr(verify, route, mutant(getattr(verify, route)))
    rows = suite(**given)["cases"]
    failed = [r for r in rows if not r["pass"]]
    assert failed and len(failed) < len(rows)
    assert [r["case"] for r in rows] == [r["case"] for r in real_rows]
    for got, real in zip(rows, real_rows):
        if got["pass"]:
            assert list(got) == list(real)
        else:
            assert list(got)[: 1 + len(params)] == ["case", *params]
            assert {p: got[p] for p in params} == given
    assert [r for r in run_suites([name], **given)["cases"] if not r["pass"]] == failed
    again = run_suites([name], **{p: failed[0][p] for p in params})
    assert [r for r in again["cases"] if not r["pass"]] == failed
