"""Input checks must not depend on `assert`, which `python -O` strips."""

import os
import subprocess
import sys

import ellsoule

SRC = os.path.dirname(os.path.dirname(ellsoule.__file__))

PROBE = """
import io
import sys
from contextlib import redirect_stderr
from fractions import Fraction

from ellsoule.bernoulli import bern_eval, bernoulli_moment_closed
from ellsoule.cli import main
from ellsoule.cyclotomic import CycloElement
from ellsoule.formal import (
    CycSym, EisSym, FormalClass, SouleSym, WeightFunction, eis_residue_closed,
    residue_soule_closed, residue_table,
)
from ellsoule.measures import GroupSpec, Measure, TorsorSpec, dirac, pushforward
from ellsoule.numutil import exact_rational, vp
from ellsoule.puiseux import PuiseuxSeries
from ellsoule.tsym import TSym, divided_power, exponent_tuples, tsym_map
from ellsoule.units import (
    _e0, cusp_value_closed, epsilon_series, norm_check_theta, residue_elliptic_soule,
    theta_qexp, theta_series,
)

if __debug__:
    raise SystemExit("probe must run under python -O")

def rejects(exc, fn, *args, names=None):
    try:
        fn(*args)
    except exc as e:
        if names is None or names in str(e):
            return
        raise SystemExit(f"{fn.__name__}{args!r} raised {e!r}, which does not name {names!r}")
    raise SystemExit(f"{fn.__name__}{args!r} did not raise {exc.__name__}")

for bad in (0.1, True):
    rejects(TypeError, CycloElement.rational, 3, bad)
    rejects(TypeError, CycloElement.from_poly, 3, [bad])
    rejects(TypeError, CycloElement, 3, [bad, 0])
    rejects(TypeError, CycloElement.zeta_pow(3, 1).__mul__, bad)
    rejects(TypeError, exact_rational, bad)
    rejects(TypeError, bern_eval, 2, bad)
    rejects(TypeError, bernoulli_moment_closed, 1, 3, 7, bad)
    rejects(TypeError, bernoulli_moment_closed, 1, 3, bad, 1)
    rejects(TypeError, bernoulli_moment_closed, 1, bad, 7, 1)
    rejects(TypeError, WeightFunction, 2, 3, {(1, 0): bad})
    rejects(TypeError, FormalClass, {CycSym(2, 3, 1): bad})
    rejects(TypeError, Measure, GroupSpec(3, 1), {(1,): bad})
    for ring in ("Z", "Q", "Z/5"):
        rejects(TypeError, TSym, 2, ring, {(1, 0): bad})
    rejects(ValueError, TSym, 2, "Q", {(bad, 0): 3})
rejects(TypeError, TSym, 2, "Z", {(1, 0): 2.7})
rejects(TypeError, TSym, 2, "Z/5", {(1, 0): 7.9})
rejects(ValueError, TSym, 1, "Q", {(1.5,): 3})
rejects(ValueError, TSym, 2, "Q", {(-1, 0): 3})
rejects(ValueError, TSym, 2, "Q", {1: {(1, 0): 1}})
rejects(ValueError, _e0, 1, 2, 0)
point = dirac(GroupSpec(8, 2), (1, 3))
rejects(TypeError, pushforward, ("mult", 2.5), point)
rejects(TypeError, pushforward, ("mult", True), point)
rejects(ValueError, pushforward, ("proj", -1), point)
rejects(TypeError, tsym_map, True, TSym.basis(2, (1, 0), "Z"))
rejects(ValueError, vp, 12, 1)
rejects(TypeError, theta_series, 6, 5, (1.7, True), 12)
rejects(TypeError, cusp_value_closed, 6, 5, 1.9)
rejects(TypeError, residue_elliptic_soule, 2, 1, 3, 5, (1, 0.5))
rejects(TypeError, EisSym, 2, 5, (1.7, True))
rejects(TypeError, CycSym, 2, 5, 2.9)
rejects(TypeError, WeightFunction, 2, 5, {(1.5, 0): 1, (1, 0): 2})
rejects(TypeError, SouleSym, 2, 5, 4.5, (1, 0))
rejects(ValueError, SouleSym, 2, 5, 10, (1, 0))
rejects(ValueError, exponent_tuples, 0, 0)
rejects(ValueError, exponent_tuples, 1, -1)
# norm_check_theta(6, True, ...) used to read d = True as 1 and pass; a float
# level, c, window or d died in math.gcd or range without naming it
for bad in (12.0, True):
    rejects(TypeError, theta_series, bad, 5, (1, 1), 12, names=f"level {bad!r}")
    rejects(TypeError, theta_series, 6, bad, (1, 1), 12, names=f"c {bad!r}")
    rejects(TypeError, theta_series, 6, 5, (1, 1), bad, names=f"trunc {bad!r}")
    rejects(TypeError, norm_check_theta, bad, 2, 5, (1, 1), 24, names=f"level {bad!r}")
    rejects(TypeError, norm_check_theta, 6, bad, 5, (1, 1), 24, names=f"d {bad!r}")
    rejects(TypeError, norm_check_theta, 6, 2, bad, (1, 1), 24, names=f"c {bad!r}")
    rejects(TypeError, norm_check_theta, 6, 2, 5, (1, 1), bad, names=f"window {bad!r}")
    rejects(TypeError, theta_qexp, 2, 1, 3, bad, (1, 1), 12, names=f"c {bad!r}")
    rejects(TypeError, theta_qexp, 2, bad, 3, 5, (1, 1), 12, names=f"r {bad!r}")
    rejects(TypeError, cusp_value_closed, bad, 5, 1, names=f"level {bad!r}")
rejects(ValueError, norm_check_theta, 6, -1, 5, (1, 1), 24, names="d = -1")
rejects(ValueError, norm_check_theta, 6, 1, 5, (1, 1), -3, names="window = -3")
rejects(ValueError, epsilon_series, 2, 1, 3, 5, (1, 0), 0, names="trunc = 0")
for bad in (2.9, True):
    rejects(TypeError, Measure, GroupSpec(8, 1), {(bad,): 1, (2,): 3})
    rejects(TypeError, dirac, GroupSpec(8, 1), (bad,))
    rejects(TypeError, TorsorSpec, 2, 1, 3, 1, "reduction", (bad,))
# record fields: EisSym(True, 3, (1, 0)) had weight 1, a float level stored
# float coordinates, and True passed as a level, rank or modulus
rejects(TypeError, EisSym, True, 3, (1, 0), names="weight k")
rejects(TypeError, EisSym, 2, 3.0, (1, 0), names="level N")
rejects(TypeError, SouleSym, 2, 3.0, 5, (1, 0), names="level N")
rejects(TypeError, CycSym, 2, 3.0, 1, names="level N")
rejects(TypeError, TorsorSpec, 2, True, 3, names="level r")
rejects(TypeError, TorsorSpec, 2, 1, 3, 2.0, names="rank d")
rejects(TypeError, GroupSpec, True, names="modulus m")
rejects(TypeError, GroupSpec, 3.0, names="modulus m")
# a level N <= 0: SouleSym(2, -3, 5, (1, 0)) was stored with t = (-2, 0),
# residue_soule_closed returned -169/125 there, and EisSym(2, 0, (1, 0))
# raised "integer modulo by zero"
for N in (0, -3):
    rejects(ValueError, EisSym, 2, N, (1, 0), names="level N")
    rejects(ValueError, SouleSym, 2, N, 5, (1, 0), names="level N")
    rejects(ValueError, CycSym, 2, N, 1, names="level N")
    rejects(ValueError, residue_soule_closed, 2, N, 5, (1, 0), names="level N")
# a bool coordinate of divided_power, and a bad point under a zero value
rejects(TypeError, divided_power, (True, 0), 1)
rejects(TypeError, Measure, GroupSpec(8, 1), {(2.5,): 0})
rejects(ValueError, Measure, TorsorSpec(2, 1, 3, 1, "reduction", (1,)), {(2,): 0})
# a negative power would loop for ever: -1 >> 1 == -1
rejects(ValueError, CycloElement.zeta_pow(3, 1).__pow__, -1, names="exponent -1")
rejects(ValueError, PuiseuxSeries(3, 4, {0: 1}).__pow__, -1, names="exponent -1")
# a torsion point is a pair: (1, 1, 7) used to be read as (1, 1), and (1,)
# reached an IndexError
for p in ((1,), (1, 1, 7)):
    names = f"torsion point {p!r}"
    rejects(ValueError, theta_series, 6, 5, p, 10, names=names)
    rejects(ValueError, norm_check_theta, 6, 2, 5, p, 24, names=names)
    rejects(ValueError, residue_elliptic_soule, 2, 1, 3, 5, p, names=names)
    rejects(ValueError, epsilon_series, 2, 1, 3, 5, p, 6, names=names)
    rejects(ValueError, EisSym, 2, 3, p, names=names)
    rejects(ValueError, SouleSym, 2, 3, 5, p, names=names)
    rejects(ValueError, WeightFunction, 2, 3, {p: 1}, names=names)
# exponents and conductors are ints: z ** True was z, and
# CycloElement.rational(True, 1) had M = True
rejects(TypeError, CycloElement.zeta_pow(6, 1).__pow__, True, names="exponent True")
rejects(TypeError, CycloElement.one_minus_zeta_pow, 6, 1, True, names="exponent True")
rejects(TypeError, PuiseuxSeries(3, 4, {0: 1}).__pow__, True, names="exponent True")
rejects(TypeError, PuiseuxSeries(3, 4, {0: 1}).shift, True, names="shift True")
rejects(TypeError, CycloElement.rational, True, 1, names="conductor M True")
if main(["residue-table", "--N", "1000000000"]) != 2:
    raise SystemExit("residue-table --N 1000000000 did not exit 2")
# each subcommand's door refuses with a check that raises, not an assert:
# argv[1] is a weight function file, argv[2] a path under a missing directory
for argv in (
    ["qexp", "--x", "0", "--y", "0"],
    ["qexp", "--trunc", "2"],
    ["residue-table", "--N", "1"],
    ["dir", "--psi", sys.argv[1], "--route", "me", "--c", "4"],
    ["qexp", "--out", sys.argv[2]],
):
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(argv)
    if code != 2 or not err.getvalue().startswith("error: "):
        raise SystemExit(f"{argv} exited {code}: {err.getvalue()!r}")
# a negative weight used to reach factorial() or bernoulli_poly unnamed
for k in (-1, -100000000):
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["residue-table", "--N", "3", "--k", str(k)])
    if code != 2 or "--k" not in err.getvalue():
        raise SystemExit(f"residue-table --k {k} exited {code}: {err.getvalue()!r}")
    rejects(ValueError, residue_table, 3, k, names=f"k = {k}")
    rejects(ValueError, eis_residue_closed, k, 3, (1, 0), names=f"k = {k}")
# the closed residues refuse what their symbols refuse: these used to return
# 1 (gcd(c, N) = 3), 0 (c = 1), 0 (t = 0) and a value at the origin, and a
# negative k leaked factorial()'s message
rejects(ValueError, residue_soule_closed, 2, 3, 3, (1, 0), names="gcd")
rejects(ValueError, residue_soule_closed, 2, 3, 1, (1, 0), names="c > 1")
rejects(ValueError, residue_soule_closed, 2, 3, 5, (3, -3), names="(0, 0)")
rejects(ValueError, residue_soule_closed, -1, 3, 5, (1, 0), names="k = -1")
rejects(ValueError, eis_residue_closed, 2, 3, (0, 3), names="(0, 0)")
# closed moments name the argument instead of raising ZeroDivisionError or
# "integer modulo by zero"
rejects(ValueError, bernoulli_moment_closed, -2, 3, 7, 1, names="k = -2")
rejects(ValueError, bernoulli_moment_closed, 1, 0, 7, 1, names="N = 0")
rejects(ValueError, bernoulli_moment_closed, 1, 3, 0, 1, names="c = 0")
# the stored form: an int when integral, a lowest-terms Fraction otherwise
mu = Measure(GroupSpec(4, 1), {(1,): Fraction(4, 2), (2,): Fraction(2, 6)})
a = TSym(1, "Q", {(1,): Fraction(4, 2), (2,): Fraction(2, 6)})
for stored in (mu.values, a.terms):
    two, third = stored[(1,)], stored[(2,)]
    if type(two) is not int or two != 2 or type(third) is not Fraction or third != Fraction(1, 3):
        raise SystemExit(f"not stored canonically: {stored!r}")
"""


def test_checks_hold_under_python_O(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    psi = tmp_path / "psi.json"
    psi.write_text('{"k": 2, "N": 3, "values": [{"t": [0, 1], "v": "1"}]}')
    out = subprocess.run(
        [sys.executable, "-O", "-c", PROBE, str(psi), str(tmp_path / "missing" / "x.json")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert out.returncode == 0, out.stdout + out.stderr
