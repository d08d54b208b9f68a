"""Input checks must not depend on `assert`, which `python -O` strips."""

import os
import subprocess
import sys

import ellsoule

SRC = os.path.dirname(os.path.dirname(ellsoule.__file__))

PROBE = """
from ellsoule.bernoulli import bern_eval, bernoulli_moment_closed
from ellsoule.cli import main
from ellsoule.cyclotomic import CycloElement
from ellsoule.formal import CycSym, EisSym, FormalClass, SouleSym, WeightFunction
from ellsoule.measures import GroupSpec, Measure, TorsorSpec, dirac, pushforward
from ellsoule.numutil import exact_rational, vp
from ellsoule.puiseux import PuiseuxSeries
from ellsoule.tsym import TSym, exponent_tuples, tsym_map
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
# a negative power would loop for ever: -1 >> 1 == -1
rejects(ValueError, CycloElement.zeta_pow(3, 1).__pow__, -1, names="exponent -1")
rejects(ValueError, PuiseuxSeries(3, 4, {0: 1}).__pow__, -1, names="exponent -1")
if main(["residue-table", "--N", "1000000000"]) != 2:
    raise SystemExit("residue-table --N 1000000000 did not exit 2")
"""


def test_checks_hold_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", PROBE],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert out.returncode == 0, out.stdout + out.stderr
