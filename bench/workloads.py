"""The benchmark's workloads: seeded task lists, and the check on each output.

A task is one user-level call, either `ellsoule.cli.main(argv)` with its
standard output captured or one public library function.  Library functions
are looked up on their module at call time, so the tracer's wrappers are the
ones called in a traced pass.

Each workload is a list of tasks made from the seed.  Every seed draws its
inputs from a finite set, so the CLI outputs of all of them can be compared
with the sha256 digests in `reference.json`, frozen by `freeze.py`.  The
outputs of library calls are checked by the library's own second route
(closed measure, closed cusp value, the other boundary route).
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path
from random import Random

import ellsoule.bernoulli as bernoulli
import ellsoule.cli as cli
import ellsoule.formal as formal
import ellsoule.units as units
from ellsoule.serialize import cyclo_to_json, formal_to_json, measure_to_json
from ellsoule.verify import DIR_GRID

REFERENCE = Path(__file__).with_name("reference.json")

C = 5  # smoothing factor of every theta task; coprime to 6M on all levels used

# Cost depends on the point: on one rung it varies by up to 2x with y even
# among units mod M.  So the theta workloads run a fixed set of points, the
# same for every seed, and the seed orders them; the rational workload's
# seed draws its weight functions and the verify seed.
#
# theta_dense: (ell, r, N, trunc, y values) at x = 1, on levels 12, 24, 42;
# y in conjugate pairs.  Per pass, level 42 gives the slowest 4 of 14 tasks, so
# p90 falls inside one rung.  The
# (48, 400) rung takes 2-3 s a call; with it a run would not pool the 100
# task samples a p90 needs.  Level 48 is run at x = 0 by theta_sparse.
DENSE_LADDER = (
    (2, 2, 3, 80, (1, 5, 7, 11)),
    (2, 3, 3, 120, (1, 5, 19, 23)),
    (7, 1, 6, 200, (1, 5, 37, 41)),
)
# norm_check_theta(M, d, C, (1, y), window) for each (M, d, y, window)
NORM_CHECKS = ((6, 2, 1, 24), (6, 2, 5, 24))
# theta_sparse: the (ell, r, N, c) grid of verify.suite_residues, r = 0 included
RESIDUE_GRID = ((2, 1, 3, 5), (2, 2, 3, 5), (3, 1, 4, 5), (2, 0, 3, 5))
CUSP_LEVELS = (1, 2)  # r in epsilon_cusp_eval(2, r, 3, c, y) for every y
SPARSE_QEXP = (2, 4, 3, 400, (1, 47))  # level 48, x = 0
# rational
PSI_PER_PAIR = 12  # weight functions per (N, k) of DIR_GRID
DIR_KMAX = 5
TABLE_GRID = ((3, 2), (5, 3), (7, 4))  # residue-table (N, k)
VERIFY_SUITES = ("dir", "moments", "tsym", "measures", "bernoulli")
VERIFY_SEEDS = 8  # verify --seed is the benchmark seed mod this


class Task:
    """One timed call, its output fingerprint and its correctness check.

    `check(output, outputs, reference)` returns None when the output is
    right, else a message; `outputs` maps task keys to outputs of the pass.
    `theta_calls` is how many times the task calls units.theta_series.
    """

    __slots__ = ("key", "call", "fingerprint", "check", "theta_calls")

    def __init__(self, key, call, fingerprint, check, theta_calls=0):
        self.key = key
        self.call = call
        self.fingerprint = fingerprint
        self.check = check
        self.theta_calls = theta_calls


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text())["digests"]


# -- CLI tasks ------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def cli_task(key: str, argv: list[str], theta_calls: int = 0, report: bool = False) -> Task:
    """A CLI call whose stdout must match the frozen digest for `key`.

    With `report`, the output is a verify report and must also say all_pass.
    """

    def check(out, outputs, reference):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        want = reference.get(key)
        if want is None:
            return "no reference digest"
        if sha(text) != want:
            return "output differs from the reference digest"
        if report and json.loads(text).get("all_pass") is not True:
            return "verify report does not pass"
        return None

    return Task(key, lambda: run_cli(argv), lambda out: sha(out[1]), check, theta_calls)


def qexp_task(ell: int, r: int, N: int, x: int, y: int, trunc: int) -> Task:
    key = f"qexp:ell{ell}:r{r}:N{N}:c{C}:x{x}:y{y}:T{trunc}"
    argv = ["qexp", "--ell", str(ell), "--r", str(r), "--N", str(N), "--c", str(C)]
    argv += ["--x", str(x), "--y", str(y), "--trunc", str(trunc)]
    return cli_task(key, argv, theta_calls=1)


def table_task(N: int, k: int) -> Task:
    return cli_task(f"residue-table:N{N}:k{k}", ["residue-table", "--N", str(N), "--k", str(k)])


def verify_task(suite: str, seed: int) -> Task:
    argv = ["verify", "--suite", suite, "--seed", str(seed)]
    return cli_task(f"verify:{suite}:seed{seed}", argv, report=True)


def reference_tasks() -> list[Task]:
    """Every CLI task any seed can generate (what freeze.py digests)."""
    tasks = []
    for ell, r, N, trunc, ys in DENSE_LADDER:
        tasks += [qexp_task(ell, r, N, 1, y, trunc) for y in ys]
    ell, r, N, trunc, ys = SPARSE_QEXP
    tasks += [qexp_task(ell, r, N, 0, y, trunc) for y in ys]
    tasks += [table_task(N, k) for N, k in TABLE_GRID]
    for s in range(VERIFY_SEEDS):
        tasks += [verify_task(suite, s) for suite in VERIFY_SUITES]
    return tasks


# -- library tasks --------------------------------------------------------


def _json_digest(obj) -> str:
    return sha(json.dumps(obj, sort_keys=True))


def norm_task(M: int, d: int, y: int, window: int) -> Task:
    def call():
        return units.norm_check_theta(M, d, C, (1, y), window)

    def check(out, outputs, reference):
        if out["ok"] is not True or out["window"] < window:
            return f"norm check failed: {out}"
        return None

    return Task(f"norm:M{M}:d{d}:y{y}:w{window}", call, _json_digest, check, 1 + d * d)


def residue_task(ell: int, r: int, N: int, c: int, t: tuple[int, int]) -> Task:
    def check(out, outputs, reference):
        if out != bernoulli.bernoulli_measure(ell, r, N, c, t[0]):
            return "residue measure differs from the smoothed Bernoulli measure"
        return None

    return Task(
        f"residue:ell{ell}:r{r}:N{N}:c{c}:t{t[0]}_{t[1]}",
        lambda: units.residue_elliptic_soule(ell, r, N, c, t),
        lambda out: _json_digest(measure_to_json(out)),
        check,
        ell ** (2 * r),
    )


def cusp_task(r: int, y: int) -> Task:
    M = 2 ** r * 3

    def check(out, outputs, reference):
        if out != units.cusp_value_closed(M, C, y):
            return "cusp value differs from the closed form"
        return None

    return Task(
        f"cusp:r{r}:y{y}",
        lambda: units.epsilon_cusp_eval(2, r, 3, C, y),
        lambda out: _json_digest(cyclo_to_json(out)),
        check,
        1,
    )


def square_task(M: int, y: int) -> Task:
    def check(out, outputs, reference):
        return None if out is True else "cusp value squared is not Xi_c(b) Xi_c(1/b)"

    return Task(
        f"square:M{M}:y{y}",
        lambda: units.cusp_square_check(M, C, y),
        lambda out: str(out),
        check,
    )


def dir_tasks(tag: str, psi, c: int) -> list[Task]:
    """dir_closed and dir_via_me on one weight function; each checks the other."""
    closed_key, me_key = f"dir_closed:{tag}", f"dir_via_me:{tag}:c{c}"

    def check(out, outputs, reference):
        if outputs[closed_key] != outputs[me_key]:
            return "the two boundary routes differ"
        return None

    def fingerprint(out):
        return _json_digest(formal_to_json(out))

    return [
        Task(closed_key, lambda: formal.dir_closed(psi), fingerprint, check),
        Task(me_key, lambda: formal.dir_via_me(psi, c), fingerprint, check),
    ]


# -- workloads ------------------------------------------------------------


def build(workload: str, seed: int) -> list[Task]:
    """The task list of one pass; the same seed gives the same tasks."""
    rng = Random(f"{workload}:{seed}")
    tasks: list[Task] = []
    if workload == "theta_dense":
        for ell, r, N, trunc, ys in DENSE_LADDER:
            tasks += [qexp_task(ell, r, N, 1, y, trunc) for y in ys]
        tasks += [norm_task(*args) for args in NORM_CHECKS]
        rng.shuffle(tasks)
    elif workload == "theta_sparse":
        for ell, r, N, c in RESIDUE_GRID:
            for t1 in range(N):
                for t2 in range(N):
                    if (t1, t2) != (0, 0):
                        tasks.append(residue_task(ell, r, N, c, (t1, t2)))
        for r in CUSP_LEVELS:
            M = 2 ** r * 3
            for y in range(1, M):
                tasks += [cusp_task(r, y), square_task(M, y)]
        ell, r, N, trunc, ys = SPARSE_QEXP
        tasks += [qexp_task(ell, r, N, 0, y, trunc) for y in ys]
        rng.shuffle(tasks)
    elif workload == "rational":
        for N, cpair in DIR_GRID:
            for k in range(1, DIR_KMAX + 1):
                for i in range(PSI_PER_PAIR):
                    psi = formal.random_residue_zero_psi(N, k, rng)
                    tasks += dir_tasks(f"N{N}:k{k}:{i}", psi, cpair[i % 2])
        tasks += [table_task(N, k) for N, k in TABLE_GRID]
        tasks += [verify_task(s, seed % VERIFY_SEEDS) for s in VERIFY_SUITES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return tasks


# Layers each workload must not reach: a call there means a task was routed
# through a layer its design says it bypasses.
UNTOUCHED = {
    "theta_dense": ("formal.", "verify."),
    "theta_sparse": ("formal.", "verify."),
    "rational": ("cyclotomic.", "puiseux.", "units."),
}
