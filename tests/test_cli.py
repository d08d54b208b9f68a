import csv
import gc
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest
from hypothesis import example, given, strategies as st

from ellsoule import cli, units
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
    "ell, N, c, x, digest",
    [
        (3, 35, 11, 0, "47376b52d2e0243cb380ddde10e73e8de521df34c11c10d6c3ddcda7e7f5382e"),
        (3, 35, 11, 1, "2efc45103c6635e2b3fcd26b37c5736acc69da7b10e97a3d42e195f4c7ae3927"),
        (5, 187, 7, 0, "ba16a8d55a093ca451bdedea8b403f88911bcc99da42357ba4f228e68472683a"),
        (5, 187, 7, 1, "af930e83a5512db342b0b053ad8ab73c9a6e2a064d280ef68ad4865628f62d56"),
    ],
)
def test_qexp_bytes_at_dense_composite_levels_are_pinned(ell, N, c, x, digest):
    # levels 105 and 935, where the rows of x^k mod Phi_M are dense, at a
    # window of 40 past the leading exponent
    trunc = units._e0(ell * N, c, x) + 40
    argv = ["qexp", "--ell", str(ell), "--N", str(N), "--c", str(c), "--x", str(x)]
    argv += ["--y", "1", "--trunc", str(trunc)]
    out = subprocess.run(CMD + argv, capture_output=True, timeout=300)  # raw bytes
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout).hexdigest() == digest


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
    ],
)
def test_verify_over_a_cap_exits_2_naming_the_flag(suite_calls, capsys, argv, flag):
    assert cli.main(["verify", *argv(cli.MAX_LEVEL)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and "cap" in err
    assert suite_calls == []


@pytest.mark.parametrize(
    "argv, params",
    [
        # 2^8 * 3 = 768 and 2^9 * 3 = 1536 bracket the level cap
        (["--rmax", "8"], {"rmax": 8}),
        (["--ell", "3", "--N", "4", "--rmax", "5"], {"ell": 3, "N": 4, "rmax": 5}),
        (["--c", str(cli.MAX_C)], {"c": cli.MAX_C}),
    ],
)
def test_verify_within_the_caps_is_run(suite_calls, capsys, argv, params):
    assert cli.main(["verify", "--suite", "bernoulli", *argv]) == 0
    [(_, got)] = suite_calls
    assert {k: got[k] for k in params} == params


@pytest.mark.parametrize("suite", ["residues", "all"])
def test_verify_residues_over_its_level_cap_exits_2_naming_rmax(suite_calls, capsys, suite):
    # 2^5 * 3 = 96 and 2^6 * 3 = 192 bracket the residues cap
    assert cli.MAX_RESIDUES_LEVEL < 192
    assert cli.main(["verify", "--suite", suite, "--rmax", "6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--rmax" in err and "cap" in err
    assert suite_calls == []
    assert cli.main(["verify", "--suite", suite, "--rmax", "5"]) == 0
    assert [params["rmax"] for _, params in suite_calls] == [5]


@pytest.mark.parametrize("suite", ["bernoulli", "units", "dir"])
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
    from ellsoule import verify

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
    # used to escape cli.main as an AssertionError, with no report written
    right = units.cusp_value_closed

    def wrong(M, c, y):
        v = right(M, c, y)
        return v + v if (M, y) == (6, 5) else v

    monkeypatch.setattr(units, "cusp_value_closed", wrong)
    assert cli.main(["verify", "--suite", "units"]) == 1
    rep = json.loads(capsys.readouterr().out)
    failing = [row for row in rep["cases"] if not row["pass"]]
    assert [row["case"] for row in failing] == ["cusp_value_r1_y5"]
    assert failing[0]["r"] == 1 and failing[0]["y"] == 5
    assert failing[0]["constant_term"] == cyclo_to_json(right(6, 5, 5))
    assert failing[0]["closed"] == cyclo_to_json(wrong(6, 5, 5))
    assert rep["summary"]["failed"] == 1


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
    ],
)
def test_verify_rejects_parameters_that_leave_no_cases(args, named):
    out = run_cli("verify", *args)
    assert out.returncode == 2
    assert named in out.stderr and out.stdout == ""


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
    first = []
    for argv in argvs:
        cli._parser.cache_clear()
        first.append(_call(argv, capsys))
    parser = cli._parser()
    assert [_call(argv, capsys) for argv in argvs] == first
    assert cli._parser() is parser
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
    # the parser was rebuilt per call, leaving 295 objects to the cyclic GC
    with redirect_stdout(io.StringIO()):
        cli.main(argv)  # builds the parser and warms the library caches
    gc.collect()
    gc.disable()
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
