import csv
import gc
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ellsoule import cli, units, verify
from ellsoule.cli import _dumps, _verify_csv
from ellsoule.serialize import cyclo_to_json
from ellsoule.units import eta_exponent, theta_series
from ellsoule.verify import _row

CMD = [sys.executable, "-m", "ellsoule.cli"]


def run_cli(*args, **kw):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=300, **kw
    )


def test_verify_single_suite_exits_zero():
    out = run_cli("verify", "--suite", "tsym")
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["suite"] == "tsym"
    assert rep["all_pass"] is True
    assert rep["summary"]["total"] == rep["summary"]["passed"]


def test_verify_reports_are_deterministic():
    a = run_cli("verify", "--suite", "measures", "--seed", "3")
    b = run_cli("verify", "--suite", "measures", "--seed", "3")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_verify_bernoulli_csv_columns():
    out = run_cli("verify", "--suite", "bernoulli", "--format", "csv")
    assert out.returncode == 0
    rows = list(csv.reader(io.StringIO(out.stdout)))
    assert rows[0] == [
        "ell",
        "r",
        "N",
        "c",
        "t",
        "k",
        "finite_sum",
        "closed_value",
        "congruent",
    ]
    assert all(row[8] == "True" for row in rows[1:])


@pytest.mark.parametrize(
    "args, lines, digest",
    [
        ((), 31, "dfddbcdd8bc0082da3597d4c2b600ec76dc360bf8a3e5472d26a91ed4762b629"),
        (
            ("--ell", "3", "--N", "4", "--c", "7", "--rmax", "3", "--kmax", "5"),
            73,
            "c1ba9b12de77f443dd4fe30165df9f0afc21d4ef9e843046356b698d5130835f",
        ),
    ],
)
def test_verify_bernoulli_csv_bytes_are_pinned(args, lines, digest):
    argv = ["verify", "--suite", "bernoulli", "--format", "csv", *args]
    out = subprocess.run(CMD + argv, capture_output=True, timeout=300)  # raw bytes
    assert out.returncode == 0
    assert len(out.stdout.splitlines()) == lines
    assert hashlib.sha256(out.stdout).hexdigest() == digest


@pytest.mark.parametrize(
    "suite, fmt, digest",
    [
        ("units", "json", "1c43d31a53046b0dee3154ea633a9be2c049e39a982aac52b63824a7c41a0e30"),
        ("units", "csv", "4aa6297b5bd4d1c868cbc9f0e4dd403db918686bb72e85f1372ec991767b9387"),
        ("residues", "json", "74a2c88da8eedf2387b6bd1ce821d7403663e4862d4e0f87c12bde7184471eeb"),
        ("residues", "csv", "136d04a2ab1f769a22b9fbac6b33ccf2f15811bbb091bb5018c16f0d6b8caa21"),
    ],
)
def test_verify_units_and_residues_bytes_are_pinned(suite, fmt, digest):
    # the benchmark digests neither report; a change that adds rows to them
    # (say a second route for the theta unit) updates these digests with it
    argv = ["verify", "--suite", suite, "--format", fmt]
    out = subprocess.run(CMD + argv, capture_output=True, timeout=300)  # raw bytes
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout).hexdigest() == digest


@pytest.mark.parametrize(
    "ell, N, c, x, digest",
    [
        (3, 35, 11, 0, "47376b52d2e0243cb380ddde10e73e8de521df34c11c10d6c3ddcda7e7f5382e"),
        (3, 35, 11, 1, "2efc45103c6635e2b3fcd26b37c5736acc69da7b10e97a3d42e195f4c7ae3927"),
        (5, 187, 7, 0, "ba16a8d55a093ca451bdedea8b403f88911bcc99da42357ba4f228e68472683a"),
        (5, 187, 7, 1, "af930e83a5512db342b0b053ad8ab73c9a6e2a064d280ef68ad4865628f62d56"),
        (5, 187, 31, 1, "d01e4944effb4ad0a42da34969d30d0ecf357ff8c16dd32b82b7226b9223c0af"),
        # gcd(x, M) = 55 and 15: each coefficient is a row of h = 55 and 15 slots
        (5, 187, 7, 55, "5f8616efe69828e94776b91b09ff8665fbc9f07c5f6605991bde7d8c3a6a507c"),
        (3, 35, 11, 15, "d08826db43f9620cc144dd348434d3be24c41fc97375ae4b327ebcc897fc49bf"),
    ],
)
def test_qexp_bytes_at_dense_composite_levels_are_pinned(ell, N, c, x, digest):
    # levels 105 and 935, where the rows of x^k mod Phi_M are dense, at a
    # window of 40 past the leading exponent; c = 31 and the points with
    # gcd(x, M) > 1 were pinned from the assembly before the row kernel
    trunc = units._e0(ell * N, c, x) + 40
    argv = ["qexp", "--ell", str(ell), "--N", str(N), "--c", str(c), "--x", str(x)]
    argv += ["--y", "1", "--trunc", str(trunc)]
    out = subprocess.run(CMD + argv, capture_output=True, timeout=300)  # raw bytes
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout).hexdigest() == digest


class _RecordedStdout(io.StringIO):
    """A stdout that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("x", [0, 1, 15])
def test_qexp_is_streamed_a_term_block_per_write_and_out_matches_stdout(x, tmp_path):
    # level 105 at a window of 40 past the leading exponent, as pinned above
    trunc = units._e0(105, 11, x) + 40
    argv = ["qexp", "--ell", "3", "--N", "35", "--c", "11", "--x", str(x)]
    argv += ["--y", "1", "--trunc", str(trunc)]
    stdout = _RecordedStdout()
    with redirect_stdout(stdout):
        assert cli.main(argv) == 0
    text = stdout.getvalue()
    f = units.theta_qexp(3, 1, 35, 11, (x, 1), trunc)
    terms = [{"n": n, "coeff": cyclo_to_json(c)} for n, c in sorted(f.terms.items())]
    doc = {"M": f.M, "T": f.T, "terms": terms, "valuation": f"{min(f.terms)}/{f.M}"}
    assert text == json.dumps(doc, indent=2) + "\n"
    # a term block is the term's own dump, indented under "terms", after ","
    block = max(len(",\n    " + json.dumps(t, indent=2).replace("\n", "\n    ")) for t in terms)
    head = text.index("[") + 1
    assert len(stdout.sizes) > len(terms)
    assert max(stdout.sizes) <= head + block
    path = tmp_path / "qexp.json"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == text.encode()


def test_bernoulli_csv_columns_are_the_row_fields():
    # the columns are read from the rows, so they follow what _row writes
    report = {"suite": "bernoulli", "cases": [_row("a", True, p=1, q="2/3")]}
    assert _verify_csv(report).splitlines() == ["p,q", "1,2/3"]


def test_verify_timing_flag_adds_key():
    plain = json.loads(run_cli("verify", "--suite", "tsym").stdout)
    timed = json.loads(run_cli("verify", "--suite", "tsym", "--timing").stdout)
    assert "timing" not in plain
    assert "timing" in timed


def test_qexp_valuation_format():
    out = run_cli(
        "qexp", "--ell", "2", "--r", "1", "--N", "3", "--c", "5",
        "--x", "1", "--y", "1", "--trunc", "12",
    )
    assert out.returncode == 0
    obj = json.loads(out.stdout)
    assert obj["valuation"] == "2/6"
    assert obj["M"] == 6 and obj["T"] == 12


def test_qexp_rejects_bad_smoothing():
    out = run_cli("qexp", "--ell", "2", "--r", "1", "--N", "3", "--c", "6")
    assert out.returncode == 2


def test_qexp_rejects_negative_level_exponent():
    # ell^r * N = 2.5 used to reach math.gcd and exit 1 with a traceback
    out = run_cli("qexp", "--ell", "2", "--r", "-1", "--N", "5", "--c", "7")
    assert out.returncode == 2
    assert "r = -1" in out.stderr and out.stdout == ""


@pytest.mark.parametrize("ell, r", [("4", "1"), ("1", "3")])
def test_qexp_rejects_non_prime_ell(ell, r):
    out = run_cli("qexp", "--ell", ell, "--r", r, "--N", "3", "--c", "5")
    assert out.returncode == 2
    assert f"ell = {ell} must be prime" in out.stderr and out.stdout == ""


@pytest.fixture
def qexp_calls(monkeypatch):
    """Record what `qexp` would expand, and expand a small stand-in instead,
    so a test never runs an input over a cap."""
    calls = []

    def fake(*args):
        calls.append(args)
        return theta_series(6, 5, (1, 1), 12)

    monkeypatch.setattr(cli, "theta_qexp", fake)
    return calls


# each argv is a function of the window and level caps (W, L)
@pytest.mark.parametrize(
    "argv, flag",
    [
        (lambda W, L: ["--trunc", "1000000"], "--trunc"),
        # level 6 at x = 1 leads at q^{2/6}, so the window W ends at trunc W + 2
        (lambda W, L: ["--trunc", str(W + 3)], "--trunc"),
        # level 48 at x = 24 leads at q^{-48/48}: the window counts from there
        (lambda W, L: ["--r", "4", "--x", "24", "--y", "1", "--trunc", str(W)], "--trunc"),
        (lambda W, L: ["--r", "1000000000"], "--r"),
        (lambda W, L: ["--ell", "1009", "--N", "1", "--c", "5"], "--ell"),
        (lambda W, L: ["--N", str(L + 1), "--r", "0", "--c", "7"], "--N"),
        (lambda W, L: ["--c", str(cli.MAX_C + 1)], "--c"),
        (lambda W, L: ["--c", "1000001"], "--c"),
    ],
)
def test_qexp_over_a_cap_exits_2_naming_the_flag(qexp_calls, capsys, argv, flag):
    assert cli.main(["qexp", *argv(cli.MAX_WINDOW, cli.MAX_LEVEL)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and "cap" in err
    assert qexp_calls == []


def test_qexp_at_r0_caps_ell(qexp_calls, capsys):
    # at r = 0 the level is N alone, so the level cap left ell unbounded:
    # this ell was trial-divided for 1.4 s before the expansion
    argv = ["qexp", "--ell", "100000000000031", "--r", "0", "--N", "2", "--c", "5", "--trunc", "10"]
    started = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - started < 0.1
    err = capsys.readouterr().err
    assert err == f"error: |--ell| = 100000000000031 exceeds the cap {cli.MAX_LEVEL}\n"
    assert qexp_calls == []


@pytest.mark.parametrize(
    "argv",
    [
        # the largest inputs the benchmark and the tests run: level 48, trunc 400
        lambda W, L: ["--r", "4", "--x", "1", "--y", "5", "--trunc", "400"],
        lambda W, L: ["--r", "4", "--x", "0", "--y", "5", "--trunc", "400"],
        lambda W, L: ["--r", "1", "--x", "1", "--y", "1", "--trunc", str(W + 2)],
        # level 1000 = 2^3 * 125 at x = 1 leads at q^{3979/1000}
        lambda W, L: ["--ell", "2", "--r", "3", "--N", "125", "--c", "7", "--trunc", "4000"],
        # the largest admissible c under the cap at level 6
        lambda W, L: [
            "--c", str(_largest_c(6)),
            "--trunc", str(eta_exponent(2, 1, 3, _largest_c(6), 1) + W),
        ],
    ],
)
def test_qexp_within_the_caps_is_expanded(qexp_calls, capsys, argv):
    assert cli.main(["qexp", *argv(cli.MAX_WINDOW, cli.MAX_LEVEL)]) == 0
    assert len(qexp_calls) == 1


def _largest_c(M):
    return max(c for c in range(2, cli.MAX_C + 1) if math.gcd(c, 6 * M) == 1)


@pytest.fixture
def suite_calls(monkeypatch):
    """Record what `verify` would run, and run nothing, so a test never
    expands a window over the cap."""
    calls = []

    def fake(names, **params):
        calls.append((names, params))
        return {"suite": "all", "all_pass": True, "suites": []}

    monkeypatch.setattr(cli, "run_suites", fake)
    return calls


@pytest.mark.parametrize("suite", ["units", "all", "dir"])
def test_verify_trunc_over_the_cap_exits_2_naming_the_flag(suite_calls, capsys, suite):
    assert cli.main(["verify", "--suite", suite, "--trunc", str(cli.MAX_WINDOW + 1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--trunc" in err and "cap" in err
    assert suite_calls == []


def test_verify_trunc_at_the_cap_is_run(suite_calls, capsys):
    assert cli.main(["verify", "--suite", "units", "--trunc", str(cli.MAX_WINDOW)]) == 0
    assert [params["trunc"] for _, params in suite_calls] == [cli.MAX_WINDOW]


def _units_r1(trunc, ell, N):
    """`verify --suite units` at rmax 1 and c 5, with the window and family given."""
    head = ["--suite", "units", "--rmax", "1", "--c", "5"]
    return head + ["--trunc", trunc, "--ell", ell, "--N", N]


# each argv is a function of the level cap L
@pytest.mark.parametrize(
    "argv, flag",
    [
        (lambda L: ["--rmax", "9"], "--rmax"),
        (lambda L: ["--rmax", "1000000000"], "--rmax"),
        (lambda L: ["--N", str(L + 1), "--rmax", "1"], "--N"),
        (lambda L: ["--ell", "1009", "--N", "1", "--rmax", "1"], "--ell"),
        (lambda L: ["--c", str(cli.MAX_C + 1)], "--c"),
        (lambda L: ["--c", str(-cli.MAX_C - 1)], "--c"),
        # units expands the unit at every point of level ell * N and has cusp
        # rows at ell^2 * N: uncapped, each of these took 28 s or more
        (lambda L: _units_r1("1000", "2", "241"), "--ell^--rmax"),
        (lambda L: _units_r1("1000", "11", "9"), "--ell^2"),
        (lambda L: _units_r1("300", "19", "2"), "--ell^2"),
        (lambda L: _units_r1("200", "31", "2"), "--ell^2"),
    ],
)
def test_verify_over_a_cap_exits_2_naming_the_flag(suite_calls, capsys, argv, flag):
    assert cli.main(["verify", *argv(cli.MAX_LEVEL)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and flag in err and "cap" in err
    assert out == "" and suite_calls == []


@pytest.mark.parametrize(
    "argv, params",
    [
        # 2^8 * 3 = 768 and 2^9 * 3 = 1536 bracket the level cap
        (["--rmax", "8"], {"rmax": 8}),
        (["--ell", "3", "--N", "4", "--rmax", "5"], {"ell": 3, "N": 4, "rmax": 5}),
        # c = 50 is at the cap but outside bernoulli's family, which the door
        # now refuses too; dir keeps its own grid, so the cap alone decides
        (["--suite", "dir", "--c", str(cli.MAX_C)], {"c": cli.MAX_C}),
    ],
)
def test_verify_within_the_caps_is_run(suite_calls, capsys, argv, params):
    assert cli.main(["verify", "--suite", "bernoulli", *argv]) == 0
    [(_, got)] = suite_calls
    assert {k: got[k] for k in params} == params


@pytest.mark.parametrize("suite", ["residues", "all", "units"])
def test_verify_residues_over_its_level_cap_exits_2_naming_rmax(suite_calls, capsys, suite):
    # 2^5 * 3 = 96 and 2^6 * 3 = 192 bracket the residues cap
    assert cli.MAX_RESIDUES_LEVEL < 192
    assert cli.main(["verify", "--suite", suite, "--rmax", "6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--rmax" in err and "cap" in err
    assert suite_calls == []
    assert cli.main(["verify", "--suite", suite, "--rmax", "5"]) == 0
    assert [params["rmax"] for _, params in suite_calls] == [5]


@pytest.mark.parametrize("suite", ["bernoulli", "dir"])
def test_verify_other_suites_keep_the_level_cap(suite_calls, suite):
    assert cli.main(["verify", "--suite", suite, "--rmax", "8"]) == 0
    assert [params["rmax"] for _, params in suite_calls] == [8]


def _with_psi_file(tmp_path, argv):
    """argv, with a `dir` weight function given as {"k", "N"} (no values)
    written to a file and passed as --psi."""
    if argv[0] != "dir":
        return argv
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({**argv[1], "values": []}))
    return ["dir", "--psi", str(path), *argv[2:]]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["residue-table", "--N", str(10**9)], "--N"),
        (["residue-table", "--k", str(10**6)], "--k"),
        (["verify", "--kmax", str(10**6)], "--kmax"),
        (["dir", {"k": 2, "N": 10**9}], "level N"),
        (["dir", {"k": 10**6, "N": 3}], "weight k"),
    ],
)
def test_level_and_weight_over_their_caps_exit_2_at_once(tmp_path, capsys, argv, named):
    started = time.perf_counter()
    assert cli.main(_with_psi_file(tmp_path, argv)) == 2
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["residue-table", "--N", str(cli.MAX_RESIDUES_LEVEL)],
        ["residue-table", "--k", str(cli.MAX_WEIGHT)],
        ["verify", "--suite", "bernoulli", "--kmax", str(cli.MAX_WEIGHT)],
        # c = 1 mod N and coprime to 6N, as the me route needs
        ["dir", {"k": cli.MAX_WEIGHT, "N": cli.MAX_LEVEL}, "--c", str(cli.MAX_LEVEL + 1)],
    ],
)
def test_level_and_weight_at_their_caps_exit_0(tmp_path, capsys, argv):
    assert cli.main(_with_psi_file(tmp_path, argv)) == 0


def test_raising_boundary_route_is_a_failing_row_of_a_written_report(monkeypatch, capsys):
    # used to escape cli.main with the exception, writing nothing
    real, calls = verify.dir_via_me, []

    def seventh_call_raises(psi, c):
        calls.append(psi)
        if len(calls) == 7:
            raise AssertionError("weightless term survived")
        return real(psi, c)

    monkeypatch.setattr(verify, "dir_via_me", seventh_call_raises)
    assert cli.main(["verify", "--suite", "dir"]) == 1
    rep = json.loads(capsys.readouterr().out)
    failing = [row for row in rep["cases"] if not row["pass"]]
    assert [row["case"] for row in failing] == ["two_route_N3_k1_c7"]
    assert failing[0]["index"] == 6 and failing[0]["seed"] == 0
    assert failing[0]["error"] == "AssertionError: weightless term survived"
    assert rep["summary"]["failed"] == 1


def test_cusp_mismatch_is_a_failing_row_of_a_written_report(monkeypatch, capsys):
    # used to escape cli.main as an AssertionError, with no report written;
    # the suite's one comparison is against its closed form
    right = verify.cusp_value_closed

    def wrong(M, c, y):
        v = right(M, c, y)
        return v + v if (M, y) == (6, 5) else v

    monkeypatch.setattr(verify, "cusp_value_closed", wrong)
    assert cli.main(["verify", "--suite", "units"]) == 1
    rep = json.loads(capsys.readouterr().out)
    failing = [row for row in rep["cases"] if not row["pass"]]
    assert [row["case"] for row in failing] == ["cusp_value_r1_y5"]
    assert failing[0]["r"] == 1 and failing[0]["y"] == 5
    assert failing[0]["constant_term"] == cyclo_to_json(right(6, 5, 5))
    assert failing[0]["closed"] == cyclo_to_json(wrong(6, 5, 5))
    assert rep["summary"]["failed"] == 1


def _raises(real, exc, calls=1):
    """The check `real`, raising exc("injected") from its calls-th call on."""
    seen = []

    def check(*args):
        seen.append(args)
        if len(seen) >= calls:
            raise exc("injected")
        return real(*args)

    return check


@pytest.mark.parametrize("exc", [KeyError, ZeroDivisionError, AssertionError, ValueError])
def test_a_raising_check_is_a_failing_row_of_a_written_report(monkeypatch, tmp_path, exc):
    # used to escape cli.main (KeyError, AssertionError) or to exit 2 with no
    # report (ZeroDivisionError, an ArithmeticError, and ValueError, which was
    # taken for refused input); refused input is now refused before any suite
    clean = verify.run_suites(verify.SUITE_NAMES)
    monkeypatch.setattr(verify, "norm_check_theta", _raises(verify.norm_check_theta, exc))
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "all", "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["summary"]["failed"] == 1
    for block, want in zip(rep["suites"], clean["suites"]):
        if block["suite"] != "units":
            assert block == want
            continue
        *kept, raised = block["cases"]
        assert kept == want["cases"][: len(kept)] and all(r["pass"] for r in kept)
        assert raised == {
            "case": "units_raised",
            "error": f"{exc.__name__}: {exc('injected')}",
            "after": "residue_matches_smoothed_measure",
            "ell": 2,
            "N": 3,
            "c": 5,
            "trunc": 40,
            "pass": False,
        }


def test_a_raising_bernoulli_check_is_written_as_generic_csv(monkeypatch, tmp_path):
    # the bernoulli layout takes its columns from the first row, which a
    # raised row does not share: it used to crash with KeyError: 'ell'
    third_call_raises = _raises(verify.bernoulli_moment_closed, KeyError, 3)
    monkeypatch.setattr(verify, "bernoulli_moment_closed", third_call_raises)
    out = tmp_path / "report.csv"
    argv = ["verify", "--suite", "bernoulli", "--format", "csv", "--out", str(out)]
    assert cli.main(argv) == 1
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["suite", "case", "pass", "details"]
    assert [r[:3] for r in rows[1:]] == [
        ["bernoulli", "congruence_ell2_r1_N3_c5_t0_k0", "True"],
        ["bernoulli", "congruence_ell2_r1_N3_c5_t0_k1", "True"],
        ["bernoulli", "bernoulli_raised", "False"],
    ]
    assert json.loads(rows[-1][3]) == {
        "error": "KeyError: 'injected'",
        "after": "congruence_ell2_r1_N3_c5_t0_k1",
        "ell": 2,
        "N": 3,
        "c": 5,
        "rmax": 2,
        "kmax": 4,
    }


@pytest.mark.parametrize("suite", ["bernoulli", "units", "residues"])
def test_verify_rejects_non_prime_ell_with_one_message(suite):
    # the torsor check (bernoulli) and the level check (units, residues) agree
    out = run_cli("verify", "--suite", suite, "--ell", "4")
    assert out.returncode == 2
    assert out.stderr == "error: ell = 4 must be prime\n" and out.stdout == ""


def test_residue_table_and_alias():
    a = run_cli("residue-table", "--N", "3", "--k", "2")
    b = run_cli("residue_table", "--N", "3", "--k", "2")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    obj = json.loads(a.stdout)
    vals = {(r["a"], r["b"]): r["value"] for r in obj["rows"]}
    assert vals[(1, 0)] == "-13/720"
    assert vals[(0, 1)] == "3/80"


def test_residue_table_csv():
    out = run_cli("residue-table", "--N", "3", "--k", "2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out.stdout)))
    assert rows[0] == ["a", "b", "value"]
    assert len(rows) == 9


@pytest.fixture()
def psi_file(tmp_path):
    from ellsoule.formal import WeightFunction
    from ellsoule.serialize import psi_to_json

    psi = WeightFunction(2, 3, {(0, 1): 13, (0, 2): 13, (1, 0): 27, (2, 0): 27})
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(psi_to_json(psi)))
    return path


def test_dir_both_routes(psi_file):
    out = run_cli("dir", "--psi", str(psi_file), "--c", "7", "--route", "both")
    assert out.returncode == 0
    obj = json.loads(out.stdout)
    assert obj["match"] is True
    assert obj["closed"] == obj["me"]
    coeffs = sorted(row["coeff"] for row in obj["closed"])
    assert coeffs == ["-13/6", "-13/6"]


def test_dir_both_symmetrizes_a_weight_function_of_mixed_parity(tmp_path, capsys):
    # residue zero, odd under t -> -t at even weight: the closed route keeps
    # the odd part, which the me route's parity projection removes; "match"
    # used to compare the raw fields, reporting false with exit 1
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({
        "k": 2, "N": 3, "values": [{"t": [0, 1], "v": "1"}, {"t": [0, 2], "v": "-1"}],
    }))
    argv = ["dir", "--psi", str(path), "--c", "7"]
    assert cli.main(argv + ["--route", "both"]) == 0
    both = json.loads(capsys.readouterr().out)
    assert both["match"] is True
    assert [row["coeff"] for row in both["closed"]] == ["-1/6", "1/6"]
    assert both["me"] == []
    # the route fields are the single routes' values, unsymmetrized
    assert cli.main(argv + ["--route", "closed"]) == 0
    assert json.loads(capsys.readouterr().out)["closed"] == both["closed"]
    assert cli.main(argv + ["--route", "me"]) == 0
    assert json.loads(capsys.readouterr().out)["me"] == both["me"]


def test_dir_nonzero_residue_exit_code(tmp_path):
    from ellsoule.formal import WeightFunction
    from ellsoule.serialize import psi_to_json

    bad = WeightFunction(2, 3, {(1, 0): 1})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(psi_to_json(bad)))
    out = run_cli("dir", "--psi", str(path), "--route", "closed")
    assert out.returncode == 3
    obj = json.loads(out.stdout)
    assert obj["error"] == "nonzero residue"
    assert obj["residue"] == "-13/720"


def test_dir_missing_file_is_usage_error(tmp_path):
    out = run_cli("dir", "--psi", str(tmp_path / "nope.json"))
    assert out.returncode == 2


GOOD_PSI = {"k": 2, "N": 3, "values": [{"t": [0, 1], "v": "13"}, {"t": [1, 0], "v": "27"}]}


@pytest.mark.parametrize(
    "field, patch",
    [
        ("values[1].v", {"values": [{"t": [0, 1], "v": "13"}, {"t": [1, 0], "v": 0.5}]}),
        ("values[0].t", {"values": [{"t": [1], "v": "13"}]}),
        ("'k'", {"k": 2.5}),
        ("'N'", {"N": 0}),
        ("values[0].v", {"values": [{"t": [0, 1], "v": "1/0"}]}),
        ("values[1].t", {"values": [{"t": [0, 1], "v": "1"}, {"t": [3, 4], "v": "1"}]}),
    ],
)
def test_dir_malformed_psi_is_usage_error(tmp_path, field, patch):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({**GOOD_PSI, **patch}))
    out = run_cli("dir", "--psi", str(path))
    assert out.returncode == 2
    assert field in out.stderr


def test_unknown_suite_is_usage_error():
    out = run_cli("verify", "--suite", "nosuch")
    assert out.returncode == 2


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    out = run_cli("verify", "--suite", "tsym", "--out", str(target))
    assert out.returncode == 0
    assert json.loads(target.read_text())["all_pass"] is True


def test_programming_error_is_not_reported_as_bad_input(psi_file, monkeypatch):
    from ellsoule import cli

    def broken(psi):
        raise TypeError("a bug, not an input error")

    monkeypatch.setattr(cli, "dir_closed", broken)
    with pytest.raises(TypeError):
        cli.main(["dir", "--psi", str(psi_file), "--route", "closed"])


# -- the door: every refusal before any work -----------------------------


def _recording(calls, real):
    def call(*args, **kwargs):
        calls.append((real.__name__, args))
        return real(*args, **kwargs)

    return call


@pytest.fixture
def work_calls(monkeypatch):
    """Record every call of a subcommand's work function, and run it."""
    calls = []
    for name in ("theta_qexp", "residue_table", "dir_closed", "dir_via_me", "run_suites"):
        monkeypatch.setattr(cli, name, _recording(calls, getattr(cli, name)))
    return calls


@pytest.mark.parametrize(
    "argv, err",
    [
        # level 6 at x = 1 leads at q^{2/6}: theta_series refused this after the call
        (["qexp", "--trunc", "1"], "truncation 1 too small to represent the leading term q^2/6"),
        (["qexp", "--x", "0", "--y", "0"], "the unit has no expansion at the origin"),
        (["qexp", "--x", "6", "--y", "-6"], "the unit has no expansion at the origin"),
        (["residue-table", "--N", "1"], "residue tables need N >= 2, got N = 1"),
        (["dir", "--psi", "PSI", "--route", "me", "--c", "4"],
         "need c > 1 with gcd(c, 6N) = gcd(4, 18) = 1"),
        (["dir", "--psi", "PSI", "--route", "both", "--c", "5"],
         "need c == 1 mod N (got c = 5, N = 3)"),
        # `run_suites` refused these after the door had called it
        (["verify", "--rmax", "0"], "--rmax must be at least 1, got 0"),
        (["verify", "--suite", "bernoulli", "--c", "1"],
         "suite 'bernoulli' has no cases for ell = 2, N = 3, c = 1: "
         "need |c| > 1 coprime to 6*ell*N = 36"),
        (["verify", "--suite", "units", "--trunc", "2"],
         "--trunc = 2 must exceed the leading exponent 2"),
        # the CSV layouts have no place for the timing: it used to be dropped
        (["verify", "--suite", "tsym", "--timing", "--format", "csv"],
         "--timing is written only in JSON reports, not with --format csv"),
    ],
)
def test_the_door_refuses_before_any_work(work_calls, psi_file, capsys, argv, err):
    argv = [str(psi_file) if a == "PSI" else a for a in argv]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert work_calls == []


@pytest.mark.parametrize(
    "argv",
    [
        # a window of 1000 at level 2, c = 49: 1.8 s of expansion before the open failed
        ["qexp", "--ell", "3", "--r", "0", "--N", "2", "--c", "49", "--x", "1", "--y", "1",
         "--trunc", str(eta_exponent(3, 0, 2, 49, 1) + 1000)],
        ["residue-table", "--N", "3"],
        ["dir", "--psi", "PSI", "--c", "7"],
        # the suites ran first, 1.7 s at this weight, before the open failed
        ["verify", "--suite", "all", "--kmax", "50"],
    ],
)
def test_an_unwritable_out_is_refused_before_any_work(
    work_calls, psi_file, tmp_path, capsys, argv
):
    argv = [str(psi_file) if a == "PSI" else a for a in argv]
    out = tmp_path / "missing" / "x.json"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{out}'\n")
    assert work_calls == []


def test_the_dir_door_refuses_in_the_order_of_its_routes(work_calls, tmp_path, capsys):
    # nonzero residue and a bad c: the closed route meets the residue first,
    # the me route the smoothing factor
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"k": 2, "N": 3, "values": [{"t": [1, 0], "v": "1"}]}))
    argv = ["dir", "--psi", str(path), "--c", "4"]
    for route in ("closed", "both"):
        assert cli.main([*argv, "--route", route]) == 3
        assert json.loads(capsys.readouterr().out)["residue"] == "-13/720"
    assert cli.main([*argv, "--route", "me"]) == 2
    assert "gcd(4, 18)" in capsys.readouterr().err
    assert cli.main([*argv[:-1], "7", "--route", "me"]) == 3
    assert work_calls == []


@pytest.mark.parametrize(
    "name, exc, argv",
    [
        ("theta_qexp", ZeroDivisionError, ["qexp", "--x", "1", "--y", "1", "--trunc", "12"]),
        ("residue_table", ValueError, ["residue-table", "--N", "3", "--k", "2"]),
    ],
)
def test_a_raise_after_the_door_is_a_fault_not_bad_input(monkeypatch, capsys, name, exc, argv):
    # both used to exit 2 as "invalid input"
    def broken(*args):
        raise exc("a fault in the work")

    monkeypatch.setattr(cli, name, broken)
    with pytest.raises(exc, match="a fault in the work"):
        cli.main(argv)
    assert capsys.readouterr() == ("", "")


@st.composite
def _door_argvs(draw):
    """A small argv of any subcommand, each flag given or not, sometimes with
    an --out that can or cannot be opened."""
    small = st.integers(-3, 13)
    command = draw(st.sampled_from(["verify", "qexp", "residue-table", "dir"]))
    flags = {
        "verify": {
            "--suite": st.sampled_from([*verify.SUITE_NAMES, "all"]),
            "--ell": st.sampled_from([-2, 1, 2, 3, 4]),
            "--N": st.integers(-1, 5),
            "--c": st.sampled_from([-5, 0, 1, 3, 5, 7]),
            "--rmax": st.integers(-1, 2),
            "--kmax": st.integers(-1, 4),
            "--trunc": st.integers(-5, 60),
            "--seed": st.integers(0, 3),
            "--format": st.sampled_from(["json", "csv"]),
            "--timing": None,
        },
        "qexp": {
            "--ell": st.sampled_from([-2, 1, 2, 3, 4, 5]),
            "--r": st.integers(-1, 2),
            "--N": small,
            "--c": st.sampled_from([-5, 0, 1, 3, 5, 7, 11, 13]),
            "--x": small,
            "--y": small,
            "--trunc": st.integers(-5, 60),
        },
        "residue-table": {"--N": st.integers(-3, 8), "--k": st.integers(-3, 6)},
        "dir": {"--c": small, "--route": st.sampled_from(["closed", "me", "both"])},
    }[command]
    argv = [command]
    if command == "dir":
        argv += ["--psi", draw(st.sampled_from(["good.json", "bad.json", "nope.json"]))]
    for flag, values in flags.items():
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, str(draw(values))]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--out", draw(st.sampled_from(["out.json", "missing/out.json"]))]
    return argv


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=_door_argvs())
@example(argv=["qexp", "--trunc", "1"])
@example(argv=["dir", "--psi", "good.json", "--route", "me", "--c", "4"])
@example(argv=["verify", "--suite", "units", "--trunc", "2", "--out", "missing/out.json"])
@example(argv=["verify", "--suite", "tsym", "--timing", "--out", "out.json"])
def test_a_refusal_runs_no_work_and_admitted_work_runs(argv, work_calls, tmp_path, monkeypatch):
    # exit 2 or 3 comes from the door, before any work function is called;
    # every argv the door admits runs the real work, which raises nothing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.json").write_text(json.dumps(GOOD_PSI))
    bad = {"k": 2, "N": 3, "values": [{"t": [1, 0], "v": "1"}]}  # residue -13/720
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    work_calls.clear()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc in (2, 3):
        assert work_calls == []
    else:
        assert rc in (0, 1) and work_calls


@pytest.mark.parametrize("k", ["-1", "-100000000"])
def test_residue_table_rejects_a_negative_weight_naming_the_flag(capsys, k):
    # used to exit 2 with "factorial() not defined for negative values" or
    # "degree must be >= 0", which name no flag
    started = time.perf_counter()
    assert cli.main(["residue-table", "--N", "3", "--k", k]) == 2
    assert time.perf_counter() - started < 1
    out = capsys.readouterr()
    assert out.err == f"error: --k = {k} must be >= 0\n" and out.out == ""


@pytest.mark.parametrize("N", ["0", "-3", "1"])
def test_residue_table_rejects_levels_below_two(N):
    out = run_cli("residue-table", "--N", N, "--k", "2")
    assert out.returncode == 2
    assert "N >= 2" in out.stderr and out.stdout == ""


@pytest.mark.parametrize(
    "args, named",
    [
        (["--suite", "residues", "--rmax", "0"], "--rmax"),
        (["--suite", "bernoulli", "--kmax", "-1"], "--kmax"),
        (["--suite", "moments", "--kmax", "-1"], "--kmax"),
        (["--suite", "residues", "--N", "1"], "'residues' has no cases"),
        (["--suite", "bernoulli", "--c", "3"], "'bernoulli' has no cases"),
        # both sides of every congruence are 0 at c = +-1: this used to pass
        (["--suite", "bernoulli", "--c", "1"], "'bernoulli' has no cases"),
        (["--suite", "bernoulli", "--c", "-1"], "'bernoulli' has no cases"),
        # this used to exit 2 from inside the suite, after two of its rows
        (["--suite", "units", "--N", "1"], "'units' has no cases"),
    ],
)
def test_verify_rejects_parameters_that_leave_no_cases(args, named):
    # refused before any suite runs: exit 2, no report, and the reason given
    out = run_cli("verify", *args)
    assert out.returncode == 2
    assert named in out.stderr and out.stdout == ""
    if "has no cases" in named:  # and why, from the family check
        # bernoulli takes c < -1, so its refusal names |c|
        why = "N = 1 must be at least 2"
        if "--N" not in args:
            why = "need |c| > 1 coprime to 6*ell*N = 36"
        assert out.stderr.rstrip().endswith(why)


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(2**100), 10**300])
    | st.floats()
    | st.text()
)
_json_keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_json_values = st.recursive(
    _json_scalars,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(_json_keys, kids),
    max_leaves=40,
)


@given(_json_values)
@example([-0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324])
@example({"q\"uote": 'a "b" \\ \n\t\x00\x1f', "é": "ζ_M 𝔽", 1.5: [], None: {}, True: ()})
@example({"coeffs": ["1", "-3/2", "\u2028"], "n": -7, "M": (12, [])})
def test_dumps_equals_json_dumps_indent_2(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [object(), {"a": [1, {2}]}, {(1, 2): 3}, [b"bytes"]])
def test_dumps_rejects_what_json_dumps_rejects(obj):
    with pytest.raises(TypeError) as ours:
        _dumps(obj)
    with pytest.raises(TypeError) as theirs:
        json.dumps(obj, indent=2)
    assert str(ours.value) == str(theirs.value)


def _call(argv, capsys):
    try:
        rc = cli.main(argv)
    except SystemExit as e:  # argparse exits 2 on a parse error
        rc = e.code
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_one_parser_serves_every_command_in_a_process(psi_file, capsys):
    argvs = [
        ["qexp", "--x", "1", "--y", "1", "--trunc", "12"],
        ["verify", "--suite", "tsym"],
        ["qexp", "--nosuch", "1"],
        ["residue-table", "--N", "3", "--k", "2"],
        ["dir", "--psi", str(psi_file), "--c", "7"],
    ]
    first = [_call(argv, capsys) for argv in argvs]
    assert [_call(argv, capsys) for argv in argvs] == first
    assert [rc for rc, _, _ in first] == [0, 0, 2, 0, 0]
    assert "unrecognized arguments: --nosuch" in first[2][2]


@pytest.mark.parametrize(
    "argv",
    [
        ["qexp", "--x", "1", "--y", "1", "--trunc", "12"],
        ["residue-table", "--N", "3", "--k", "2"],
    ],
)
def test_a_main_call_leaves_no_cyclic_garbage(argv):
    # neither the direct read these argvs take nor the library leaves objects
    # to the cyclic GC (a parser rebuilt per call left 295)
    with redirect_stdout(io.StringIO()):
        cli.main(argv)  # warms the library caches
    gc.collect()
    gc.disable()
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the direct read ----------------------------------------------------

# one well-formed argv or more of every subcommand, the benchmark's four
# shapes first; PSI stands for a weight-function file
WELL_FORMED = [
    ["qexp", "--ell", "7", "--r", "1", "--N", "6", "--c", "5", "--x", "1", "--y", "37",
     "--trunc", "200"],
    ["verify", "--suite", "dir", "--seed", "3"],
    ["residue-table", "--N", "3", "--k", "2"],
    ["dir", "--psi", "PSI", "--c", "7"],
    ["qexp", "--x", "0", "--y", "-1", "--trunc", "9", "--trunc", "30"],
    ["verify", "--suite", "bernoulli", "--c", "-5", "--format", "csv"],
    ["residue_table", "--format", "csv", "--k", "0", "--N", "4"],
    ["dir", "--route", "closed", "--psi", "PSI"],
]


@pytest.mark.parametrize("argv", WELL_FORMED)
def test_a_well_formed_argv_builds_no_parser(argv, psi_file, monkeypatch, capsys):
    argv = [str(psi_file) if a == "PSI" else a for a in argv]
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(argv) or real())
    assert cli.main(argv) == 0
    direct = capsys.readouterr()
    assert built == [] and cli._read(argv) == real().parse_args(argv)
    # argparse reads the same argv to the same bytes
    monkeypatch.setattr(cli, "_read", lambda argv: None)
    assert cli.main(argv) == 0
    assert capsys.readouterr() == direct and built == [argv]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--trunc", "12"],
        ["-h"],
        ["qexp", "-h"],
        ["qexp", "--help"],
        ["qexp", "--tr", "80"],
        ["qexp", "--trunc=80"],
        ["qexp", "--nosuch", "1"],
        ["qexp", "--trunc"],
        ["qexp", "--", "--trunc", "80"],
        ["qexp", "stray"],
        *(["qexp", "--trunc", v]
          for v in ["+5", " 5", "5 ", "1_0", "\u0663", "\u00b2", "9" * 5000]),
        ["verify", "--suite", "nope"],
        ["dir", "--psi", "-x"],
        ["dir", "--c", "7"],
    ],
)
def test_the_read_declines_what_it_does_not_take(argv):
    # argparse takes some of these (an abbreviation, `=`, a sign, a space,
    # `1_0`, other digits): the read leaves them all to it
    assert cli._read(argv) is None


def _str_values(*choices):
    return st.sampled_from(choices) | st.sampled_from(["nope", "a b", "", "-x", "--", "-h"])


# int strings the read takes, and others it must leave to argparse: a sign,
# a space, an underscore, non-ASCII digits, and one over int()'s digit limit
_INT_EDGES = [
    "007", "-0", "+5", " 5", "5 ", "1_0", "\u0663", "\u00b2", "x",
    "9" * 4300, "-" + "9" * 4300, "9" * 5000,
]
_PATHS = _str_values("good.json", "bad.json", "nope.json")


def _flags(ints):
    """Each subcommand's flags and the values drawn for them (None: store_true)."""
    fmt = _str_values("json", "csv")
    return {
        "verify": {
            "--suite": _str_values("all", *verify.SUITE_NAMES),
            **dict.fromkeys(("--ell", "--N", "--c", "--rmax", "--kmax", "--trunc", "--seed"), ints),
            "--out": _PATHS,
            "--format": fmt,
            "--timing": None,
        },
        "qexp": {
            **dict.fromkeys(("--ell", "--r", "--N", "--c", "--x", "--y", "--trunc"), ints),
            "--out": _PATHS,
        },
        "residue-table": {"--N": ints, "--k": ints, "--format": fmt, "--out": _PATHS},
        "dir": {
            "--psi": _PATHS,
            "--c": ints,
            "--route": _str_values("closed", "me", "both"),
            "--out": _PATHS,
        },
    }


@st.composite
def _argvs(draw, ints):
    """An argv over the four subcommands: mostly exact `--name value` pairs,
    with abbreviated, `=`, valueless, foreign and repeated flags, wrong-kind
    values, help and stray tokens among them."""
    table = _flags(ints)
    every = {f: v for flags in table.values() for f, v in flags.items()}
    command = draw(st.sampled_from([*table, "residue_table", "nosuch", "-h"]))
    own = table.get(command.replace("_", "-"), every)
    argv = [command] if draw(st.integers(0, 19)) else []
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(sorted(own if draw(st.integers(0, 9)) else every)))
        values = every[flag]
        value = draw(values) if values is not None else None
        form = draw(st.sampled_from(["pair"] * 16 + ["alone", "=", "abbrev", "foreign", "stray"]))
        if form == "pair":
            argv += [flag] if value is None else [flag, value]
        elif form == "alone":
            argv.append(flag)
        elif form == "=":
            argv.append(f"{flag}={value or 1}")
        elif form == "abbrev":
            argv += [flag[: draw(st.integers(3, len(flag)))], value or "1"]
        elif form == "foreign":  # a value drawn for another flag
            other = every[draw(st.sampled_from(sorted(every)))]
            argv += [flag, "1" if other is None else draw(other)]
        else:
            stray = ["-h", "--help", "--", "stray", "--nosuch", "residue-table"]
            argv.append(draw(st.sampled_from(stray)))
    return argv


_ARGPARSE = cli.build_parser()


@settings(max_examples=400, deadline=None)
@given(_argvs(st.integers(-(10**6), 10**6).map(str) | st.sampled_from(_INT_EDGES)))
@example(["qexp", "--trunc", "9" * 5000])
@example(["dir", "--c", "7"])
@example(["qexp", "--tr", "80"])
def test_the_read_is_argparse_or_declines(argv):
    read = cli._read(argv)
    if read is None:
        return
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            parsed = _ARGPARSE.parse_args(argv)
        except SystemExit:
            parsed = None
    assert read == parsed


# recorded with COLUMNS=80: sha256 of the JSON list [exit code, stdout, stderr]
@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="recorded with Python 3.11's argparse layout"
)
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["-h"], "c9ef73121fd8fc326b9d50ca7ecc76e69ac3701bdab48934621c5d51195dc31a"),
        (["verify", "-h"], "ebe2e1d05390be6db5df083df914129e5faf797d822d23f4bb14346be1e18d10"),
        (["qexp", "-h"], "690970008c927ef8e20b4c8a985e48b5fe82d525e8f6d376b1bef3518fe11cb0"),
        (
            ["residue-table", "-h"],
            "116c7cc100c25321ae761071312e85d82fe796f7bd5eb6ddcbf5c1e831ae2da6",
        ),
        (
            ["residue_table", "-h"],
            "116c7cc100c25321ae761071312e85d82fe796f7bd5eb6ddcbf5c1e831ae2da6",
        ),
        (["dir", "-h"], "1180d7425fe2c421204268ee74e55a595061a131632e54d4cfc53967bb739e99"),
        (
            ["qexp", "--nosuch", "1"],
            "95eb14b3773ca28a0984c730d1e650fdd53528d92f52f85ff84e23afb99a4fbe",
        ),
        (
            ["qexp", "--trunc", "x"],
            "b56f697a27b74f94af620a81409c30756cb1bda47a0d516ba6b897935d25b91f",
        ),
        (
            ["verify", "--suite", "nope"],
            "c0ee89ddc03b1a1f5d8478a30f9f37efedfe96b76a73955fff040d72b971aea8",
        ),
        (["dir", "--c", "7"], "ce5f4df9d0a4317697cd9cf2f94d6cd94da6a0f2686e6d650abd32416277f932"),
        # an abbreviation argparse takes: the expansion at trunc 12, exit 0
        (
            ["qexp", "--tr", "12"],
            "51f3c22fcaf017fc63cc248d22a03bed4288e417494f2070f5610d661edd72a3",
        ),
    ],
)
def test_help_and_error_text_is_pinned(argv, digest, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    got = json.dumps(list(_call(argv, capsys)))
    assert hashlib.sha256(got.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["dir", "--psi=--"],
        ["qexp", "--trunc=--"],
        ["qexp", "--out=--", "--trunc", "3"],
        ["verify", "--suite=--"],
        ["residue-table", "--format=--"],
    ],
)
def test_a_flag_given_as_name_equals_dashdash_is_a_usage_error(argv, capsys):
    # argparse reads the value of `--name=--` as []: `dir`, `qexp --trunc` and
    # `verify` raised TypeError out of `main`, and `--out`/`--format` took it
    # for no value
    flag = next(a for a in argv if a.endswith("=--"))[:-3]
    rc, out, err = _call(argv, capsys)
    assert (rc, out) == (2, "") and err.endswith(f"argument {flag}: expected one argument\n")


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=_argvs(st.integers(-9, 9).map(str) | st.sampled_from(_INT_EDGES)))
@example(argv=["dir", "--psi=--"])
def test_main_returns_a_documented_exit_code(
    argv, qexp_calls, suite_calls, tmp_path, monkeypatch
):
    # the fixtures expand nothing and run no suite, and the int values keep
    # residue-table small; every example runs in tmp_path, where --out writes
    # and --psi reads its weight functions (the patches hold for every example)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.json").write_text(json.dumps(GOOD_PSI))
    bad = {"k": 2, "N": 3, "values": [{"t": [1, 0], "v": "1"}]}  # residue -13/720
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse: help, or a usage error
            assert e.code in (0, 2)
            return
    assert rc in (0, 1, 2, 3)
