"""Input checks must not depend on `assert`, which `python -O` strips."""

import os
import subprocess
import sys

import ellsoule

SRC = os.path.dirname(os.path.dirname(ellsoule.__file__))

PROBE = """
from ellsoule.cyclotomic import CycloElement, zeta
from ellsoule.numutil import vp
from ellsoule.units import eta_exponent

if __debug__:
    raise SystemExit("probe must run under python -O")

def rejects(exc, fn, *args):
    try:
        fn(*args)
    except exc:
        return
    raise SystemExit(f"{fn.__name__}{args!r} did not raise {exc.__name__}")

for bad in (0.1, True):
    rejects(TypeError, CycloElement.rational, 3, bad)
    rejects(TypeError, CycloElement.from_poly, 3, [bad])
    rejects(TypeError, CycloElement, 3, [bad, 0])
    rejects(TypeError, zeta(3).__mul__, bad)
rejects(ValueError, eta_exponent, 1, 0, 1, 2, 0)
rejects(ValueError, vp, 12, 1)
"""


def test_checks_hold_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", PROBE],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert out.returncode == 0, out.stdout + out.stderr
