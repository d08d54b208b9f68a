"""Command-line interface.

Subcommands:

  verify         run one verification suite (or all of them) and emit a
                 deterministic JSON/CSV report; exit 0 only if every case passed
  qexp           print the q-expansion of the smoothed theta unit as JSON
  residue-table  tabulate closed residues of weight-k classes at level N
  dir            evaluate the boundary formula for a weight function, by the
                 direct route, the smoothed-unit route, or both

Exit codes: 0 success / all checks passed; 1 a verification comparison
failed, or a `verify` check raised (a failing `<suite>_raised` row of the
written report); 2 invalid input or configuration, or a failed write; 3 the
residue-zero precondition of the boundary formula was violated (the report
carries the residue).

Each subcommand's `_cmd_*` is its door: it makes every refusal its work
could make and returns the work, which gives the document's pieces and the
exit code.  `main` opens --out after the door and maps a ValueError or
OSError from either to exit 2 (a ResiduePreconditionError to 3); while the
work runs, only an OSError (a failed write) exits 2, and any other raise is
a fault, a traceback, or for `verify`, whose work is its suites, a failing
`<suite>_raised` row.  A door words a library's refusal as the library
does, from one place: it calls `verify._check_suites`, as `run_suites`
does, and raises the errors `units._short_window` and `formal._small_table`
make for `theta_series` and `residue_table`.

`qexp` bounds its work: the level ell^r * N may be at most MAX_LEVEL, --c at
most MAX_C, and --trunc may lie at most MAX_WINDOW past the leading exponent
(in q^{1/M} units, the window the unit's product is built to).  `verify`
caps its level ell^rmax * N at MAX_LEVEL (at MAX_RESIDUES_LEVEL when the
residues or units suite runs; units caps ell^2 * N too), its --c at MAX_C
and its --trunc, the window of the units suite's expansion, at MAX_WINDOW.
`residue-table` caps --N at MAX_RESIDUES_LEVEL, and `dir` the level N of
its weight function at MAX_LEVEL.  The weight (`residue-table --k`, `verify
--kmax` and the k of `dir`'s weight function) is capped at MAX_WEIGHT.  An
input over a cap exits 2 before any work is done.  `verify --timing` adds
the suites' wall time to a JSON report only, so with --format csv it exits
2 too.

The `qexp` document is streamed by `serialize.series_json`, one term block
per write, so neither a dict of the series nor the whole text is built;
every other JSON document is written by `_dumps`, whose output equals
`json.dumps(obj, indent=2)`.

Every subcommand and flag is declared once, in `_COMMANDS`; a `verify` flag
takes its default from `verify.FLAGS`, the signature of `run_suites`, and
its help text renders it (`%(default)s`).  `main` reads a
well-formed argv straight from it: a command name or alias, then exact
`--name value` pairs and store_true flags (see `_read`).  argparse, its
parser built from the same table, takes every other argv
(help, an abbreviation, `--name=value`, an error) and writes every help
text and error message.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Callable

from .formal import (ResiduePreconditionError, _check_me_factor, _small_table, cyc_symmetrize,
                     dir_closed, dir_via_me, psi_residue, residue_table)
from .numutil import _Value, rat_str
from .serialize import formal_to_json, psi_from_json, series_json
from .units import _check_theta_args, _short_window, eta_exponent, theta_qexp
from .verify import FLAGS, SUITE_NAMES, _check_suites, run_suites

__all__ = ["build_parser", "main"]

# Sized from measured cost (2 vCPU, Python 3.11.7, shared host; single runs,
# one process each) at a window of 1000 past the leading exponent, y = 1.
# The expansion: over levels 500-1000 at the smallest admissible c, at most
# 0.03 s at x = 1 and 0.20 s at x = 0.  Level 935 = 5*11*17 at c = 7, 31, 49:
# x = 1 0.07-0.10, 0.10-0.12, 0.10-0.14 s (peak RSS 28, 36, 44 MB); x = 0
# 0.14-0.22, 0.24-0.26, 0.34-0.56 s (22 MB, the closed Xi_c constant).  The
# whole `qexp` call (two to five runs each), streaming its 9, 27 and 45 MB of
# JSON at x = 1, took 0.14-0.24, 0.25-0.38 and 0.50-0.78 s (peak RSS 29, 37,
# 46 MB), and at x = 0 0.13-0.14, 0.14-0.18 and 0.32-0.36 s (23-25 MB).
# At c = 49, x = 1, levels 2, 3 and 12 take 2.1-4.1, 1.1-2.2 and
# 0.28-0.59 s (16-19 MB), against 0.34-0.44, 0.27-0.32 and 0.06-0.07 s at
# c = 5: the (x, y, c^2) factor's min(c^2, W) binomial terms grow with c,
# so MAX_C is still needed.  It keeps 49, the largest c admissible at level
# 935 below it.
# `dir` caps its weight function's level N here too: its cost is linear in N,
# 0.008 s at N = 1000 and 0.46 s at N = 100,000.
MAX_LEVEL = 1000
MAX_WINDOW = 1000
MAX_C = 50
# The residues suite expands the unit at every point of every fiber: about
# 1.25 L^2 expansions at level L = ell^rmax * N, so its cost grows with the
# level and with c; so does the units suite's, whose cusp rows are at level
# ell^2 * N.  Measured (same host, `run_suites(["residues"])` in a fresh
# process, three runs each): level 96 (2^5 * 3) took 0.08-0.12 s at c = 5
# and 0.33-0.41 s at c = 49; level 98 (2 * 49, c = 47) 0.57-0.82 s and
# level 100 (2^2 * 25, c = 49) 0.50-0.60 s; level 192 (2^6 * 3)
# 0.28-0.30 s at c = 5 and 0.94-1.13 s at c = 49, level 194 (2 * 97,
# c = 49) 2.3-2.6 s.
# `residue-table --N` shares the cap: its table has N^2 - 1 rows, and took
# 0.07 s at N = 100 and 2.0 s (peak RSS 206 MB) at N = 500.
MAX_RESIDUES_LEVEL = 100
# A weight-k residue or moment is built from B_{k+2} in Fractions, at about
# O(k^3) (same host, single runs): `residue-table --N 3` took 0.13 s at
# k = 50, 0.75 s at 100 and 20 s at 300.  Timed in-process in three fresh
# processes each (2 vCPU, Python 3.11.7, a shared host), `residue-table --N 3
# --k 50` took 0.10-0.18 s and `verify --suite all --kmax 50` 1.8-2.5 s.
MAX_WEIGHT = 50


def _dumps(obj) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte.

    With an indent, `json.dumps` runs its pure-Python encoder; this writer
    escapes strings with the C encoder, collects the pieces in one list and
    joins them once.
    """
    pieces: list[str] = []
    _put(obj, pieces.append, "\n")
    return "".join(pieces)


def _put(o, put, nl: str) -> None:
    """Pass the pieces of o's encoding to `put`; `nl` is the newline and
    indent of o's own line.  A module-level function, not a closure, so the
    piece list is freed with the output and not left to the cyclic GC."""
    if isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = nl + "  "
        lead = "{" + inner
        for k, v in o.items():
            if isinstance(k, str):
                key = lead + _encode_str(k) + ": "
            elif isinstance(k, (int, float)) or k is None:
                key = lead + _encode_str(_scalar(k)) + ": "
            else:
                raise TypeError(
                    f"keys must be str, int, float, bool or None, not {k.__class__.__name__}"
                )
            if isinstance(v, (dict, list, tuple)):
                put(key)
                _put(v, put, inner)
            else:
                put(key + _scalar(v))
            lead = "," + inner
        put(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = nl + "  "
        lead = "[" + inner
        for v in o:
            if isinstance(v, (dict, list, tuple)):
                put(lead)
                _put(v, put, inner)
            else:
                put(lead + _scalar(v))
            lead = "," + inner
        put(nl + "]")
    else:
        put(_scalar(o))


def _scalar(o) -> str:
    """A value that is not a dict, list or tuple, as `json.dumps` writes it."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _verify_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    if report["suite"] == "bernoulli" and all(row["pass"] for row in report["cases"]):
        # the row's own fields, in the order _row writes them; a failing row
        # also carries the suite's flags, and a raised row other fields, so a
        # report that holds either takes the generic layout below
        cols = [k for k in report["cases"][0] if k not in ("case", "pass")]
        writer.writerow(cols)
        writer.writerows([row[k] for k in cols] for row in report["cases"])
        return buf.getvalue().rstrip("\n")
    writer.writerow(["suite", "case", "pass", "details"])
    blocks = report["suites"] if report["suite"] == "all" else [report]
    for block in blocks:
        for row in block["cases"]:
            extra = {k: v for k, v in row.items() if k not in ("case", "pass")}
            writer.writerow(
                [
                    block["suite"],
                    row["case"],
                    row["pass"],
                    json.dumps(extra, sort_keys=True),
                ]
            )
    return buf.getvalue().rstrip("\n")


def _check_cap(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{name} = {value} exceeds the cap {cap}")


def _cmd_verify(args) -> Callable[[], tuple]:
    """`verify`'s door: --timing with CSV, the caps, then what `run_suites`
    refuses (`_check_suites`); the work runs the suites and writes their
    report."""
    if args.timing and args.format == "csv":
        raise ValueError("--timing is written only in JSON reports, not with --format csv")
    _check_cap("--trunc", args.trunc, MAX_WINDOW)
    _check_cap("--kmax", args.kmax, MAX_WEIGHT)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    cap = MAX_RESIDUES_LEVEL if {"residues", "units"}.intersection(names) else MAX_LEVEL
    _check_level_and_c(args.ell, args.rmax, args.N, args.c, "--rmax", cap)
    if "units" in names:  # its cusp rows are at level ell^2 * N
        _check_level_and_c(args.ell, 2, args.N, args.c, "2", cap)
    params = {k: getattr(args, k) for k in FLAGS}
    _check_suites(names, **params)
    return lambda: _verify(args, names, params)


def _verify(args, names, params) -> tuple[list[str], int]:
    started = time.perf_counter()
    report = run_suites(names, **params)
    if args.timing:
        report["timing"] = {"elapsed_s": round(time.perf_counter() - started, 3)}
    write = _verify_csv if args.format == "csv" else _dumps
    return [write(report)], 0 if report["all_pass"] else 1


def _check_level_and_c(
    ell: int, r: int, N: int, c: int, r_flag: str, cap: int = MAX_LEVEL
) -> None:
    """Reject a level ell^r * N over `cap`, without forming ell^r, an |ell|
    over `cap` (at r = 0 the level does not bound it), and a smoothing factor
    |c| over MAX_C."""
    level = abs(N)
    # |ell| >= 2 and level >= 1 pass the cap within log2(cap) + 1 steps
    for _ in range(r if abs(ell) > 1 and level else 0):
        level *= abs(ell)
        if level > cap:
            break
    if level > cap:
        raise ValueError(
            f"level --ell^{r_flag} * --N = {ell}^{r} * {N} exceeds the cap {cap}"
        )
    _check_cap("|--ell|", abs(ell), cap)
    _check_cap("|--c|", abs(c), MAX_C)


def _cmd_qexp(args) -> Callable[[], tuple]:
    """`qexp`'s door: the caps, then what `theta_qexp` refuses."""
    _check_level_and_c(args.ell, args.r, args.N, args.c, "--r")
    e0 = eta_exponent(args.ell, args.r, args.N, args.c, args.x)
    if args.trunc - e0 > MAX_WINDOW:
        raise ValueError(
            f"--trunc {args.trunc} lies {args.trunc - e0} past the leading "
            f"exponent {e0}; the cap is {MAX_WINDOW}"
        )
    M, point = args.ell ** args.r * args.N, (args.x, args.y)
    _check_theta_args(M, args.c, point)
    if args.trunc <= e0:
        raise _short_window(args.trunc, e0, M)
    return lambda: (series_json(theta_qexp(args.ell, args.r, args.N, args.c, point, args.trunc)), 0)


def _cmd_table(args) -> Callable[[], tuple]:
    """`residue-table`'s door: the caps, then what `residue_table` refuses."""
    _check_cap("--N", args.N, MAX_RESIDUES_LEVEL)
    _check_cap("--k", args.k, MAX_WEIGHT)
    if args.k < 0:
        raise ValueError(f"--k = {args.k} must be >= 0")
    if args.N < 2:
        raise _small_table(args.N)
    return lambda: ([_table(args)], 0)


def _table(args) -> str:
    rows = residue_table(args.N, args.k)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["a", "b", "value"])
        for a, b, v in rows:
            writer.writerow([a, b, rat_str(v)])
        return buf.getvalue().rstrip("\n")
    return _dumps({
        "N": args.N,
        "k": args.k,
        "rows": [{"a": a, "b": b, "value": rat_str(v)} for a, b, v in rows],
    })


def _cmd_dir(args) -> Callable[[], tuple]:
    """`dir`'s door: read --psi, the caps, then what its routes refuse, in
    the order they would."""
    with open(args.psi) as fh:
        try:
            psi = psi_from_json(json.load(fh))
        except RecursionError:
            raise ValueError(f"--psi {args.psi} nests too deeply to read") from None
    _check_cap("the weight function's level N", psi.N, MAX_LEVEL)
    _check_cap("the weight function's weight k", psi.k, MAX_WEIGHT)
    if args.route == "me":
        _check_me_factor(psi.N, args.c)
    if rho := psi_residue(psi):
        raise ResiduePreconditionError(rho)
    if args.route == "both":
        _check_me_factor(psi.N, args.c)
    return lambda: _dir(args, psi)


def _dir(args, psi) -> tuple[list[str], int]:
    out: dict = {"k": psi.k, "N": psi.N, "route": args.route}
    if args.route in ("closed", "both"):
        closed = dir_closed(psi)
        out["closed"] = formal_to_json(closed)
    if args.route in ("me", "both"):
        me = dir_via_me(psi, args.c)
        out["me"] = formal_to_json(me)
        out["c"] = args.c
    if args.route == "both":
        # the me route pairs with psi's parity projection, so it is compared
        # with the closed value symmetrized the same way (the two agree
        # unsymmetrized when psi has parity (-1)^k)
        out["match"] = cyc_symmetrize(closed, psi.k) == me
    return [_dumps(out)], 0 if out.get("match", True) else 1


class _Flag(_Value):
    """A subcommand's flag: `kind` is int, str or bool (store_true), and its
    dest is its name without the `--`."""

    __slots__ = ("name", "kind", "default", "help", "choices", "required", "metavar")

    def __init__(self, name: str, kind: type, default=None, help: str | None = None,
                 choices: tuple | None = None, required: bool = False, metavar: str | None = None):
        self._fix(name, kind, default, help, choices, required, metavar)


class _Command(_Value):
    __slots__ = ("name", "help", "handler", "flags", "aliases")

    def __init__(self, name: str, help: str,
                 handler: Callable[[argparse.Namespace], Callable[[], tuple]],
                 flags: tuple[_Flag, ...], aliases: tuple[str, ...] = ()):
        self._fix(name, help, handler, flags, aliases)


# Every subcommand and flag, once: `build_parser` builds argparse's tree
# from it and `_read` reads a plain argv with it.
_COMMANDS = (
    _Command("verify", "run self-verification suites", _cmd_verify, (
        _Flag("--suite", str, "all", "which suite to run (default: all)", SUITE_NAMES + ("all",)),
        _Flag("--ell", int, FLAGS["ell"], "prime ell (default %(default)s)"),
        _Flag("--N", int, FLAGS["N"], "tame level N (default %(default)s)"),
        _Flag("--c", int, FLAGS["c"],
              f"smoothing factor, |c| at most {MAX_C} (default %(default)s)"),
        _Flag("--rmax", int, FLAGS["rmax"], "largest level r (default %(default)s); the level "
              f"ell^rmax * N is at most {MAX_LEVEL}, and {MAX_RESIDUES_LEVEL} when residues or units "
              "(ell^2 * N too) runs"),
        _Flag("--kmax", int, FLAGS["kmax"],
              f"largest weight k, at most {MAX_WEIGHT} (default %(default)s)"),
        _Flag("--trunc", int, FLAGS["trunc"],
              f"q-expansion window, at most {MAX_WINDOW} (default %(default)s)"),
        _Flag("--seed", int, FLAGS["seed"], "RNG seed (default %(default)s)"),
        _Flag("--out", str, None, "write the report to FILE", metavar="FILE"),
        _Flag("--format", str, "json", "report format", ("json", "csv")),
        _Flag("--timing", bool, False, "include wall-clock time in the report (off by default "
              "so reports are byte-reproducible)"),
    )),
    _Command("qexp", "q-expansion of the smoothed theta unit", _cmd_qexp, (
        _Flag("--ell", int, 2),
        _Flag("--r", int, 1),
        _Flag("--N", int, 3),
        _Flag("--c", int, 5, f"|c| at most {MAX_C} (default 5)"),
        _Flag("--x", int, 1),
        _Flag("--y", int, 0),
        _Flag("--trunc", int, 40, f"window in q^(1/M) units, at most {MAX_WINDOW} past the leading "
              f"exponent (default 40); the level ell^r * N is at most {MAX_LEVEL}"),
        _Flag("--out", str, metavar="FILE"),
    )),
    _Command("residue-table", "closed residues of all weight-k classes at level N", _cmd_table, (
        _Flag("--N", int, 3, f"level, at most {MAX_RESIDUES_LEVEL} (default 3)"),
        _Flag("--k", int, 2, f"weight, at most {MAX_WEIGHT} (default 2)"),
        _Flag("--format", str, "json", choices=("json", "csv")),
        _Flag("--out", str, metavar="FILE"),
    ), aliases=("residue_table",)),
    _Command("dir", "boundary value of a weight function (requires residue zero)", _cmd_dir, (
        _Flag("--psi", str, None, f"weight function as JSON; its level N is at most {MAX_LEVEL} "
              f"and its weight k at most {MAX_WEIGHT}", required=True, metavar="FILE"),
        _Flag("--c", int, 5, "smoothing factor for the me route"),
        _Flag("--route", str, "both", choices=("closed", "me", "both")),
        _Flag("--out", str, metavar="FILE"),
    )),
)

# each command name and alias -> the command, its flags by name, their defaults by dest
_BY_NAME = {
    name: (cmd, {f.name: f for f in cmd.flags}, {f.name[2:]: f.default for f in cmd.flags})
    for cmd in _COMMANDS for name in (cmd.name, *cmd.aliases)
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellsoule",
        description="exact arithmetic of smoothed theta units, their measures, "
        "moments and boundary formulas",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS:
        p = sub.add_parser(cmd.name, aliases=cmd.aliases, help=cmd.help)
        for f in cmd.flags:
            if f.kind is bool:
                p.add_argument(f.name, action="store_true", default=f.default, help=f.help)
            else:
                p.add_argument(f.name, type=f.kind, default=f.default, choices=f.choices,
                               required=f.required, help=f.help, metavar=f.metavar)
        p.set_defaults(func=cmd.handler)
    return parser


def _read(argv: list) -> argparse.Namespace | None:
    """`build_parser().parse_args(argv)` read straight from the flag table,
    or None, leaving argv to argparse and its help and error texts.

    Read: a command name or alias, then exact `--name value` pairs and
    store_true flags alone; an int value is ASCII `-?[0-9]+` that `int()`
    takes, a str value does not start with `-` and lies in the flag's
    choices, if any; every required flag is given, and a repeated flag
    keeps its last value.  Anything else is None.  Never raises.
    """
    if not argv or not all(isinstance(a, str) for a in argv) or argv[0] not in _BY_NAME:
        return None
    cmd, flags, defaults = _BY_NAME[argv[0]]
    read = {}
    tokens = iter(argv[1:])
    for token in tokens:
        f = flags.get(token)
        if f is None:
            return None
        value = True if f.kind is bool else next(tokens, None)
        if value is None:  # the flag's value is missing
            return None
        if f.kind is int:
            digits = value[1:] if value[:1] == "-" else value
            if not (digits.isascii() and digits.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # over int()'s digit limit
                return None
        elif f.kind is str and (value[:1] == "-" or (f.choices and value not in f.choices)):
            return None
        read[f.name[2:]] = value
    if any(f.required and f.name[2:] not in read for f in cmd.flags):
        return None
    return argparse.Namespace(**{**defaults, **read}, command=argv[0], func=cmd.handler)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv)
        for dest, value in vars(args).items():
            if isinstance(value, list):  # `--name=--`, whose value argparse (3.11) reads as []
                parser.error(f"argument --{dest}: expected one argument")
    try:  # the door: the command's refusals, then --out is opened
        work = args.func(args)
        dest = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except ResiduePreconditionError as e:
        print(_dumps({"error": "nonzero residue", "residue": rat_str(e.residue)}))
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:  # the work: any raise but a failed write is a fault, not bad input
        with dest as fh:
            pieces, code = work()
            for piece in pieces:  # one write each: `qexp` streams its terms
                fh.write(piece)
            fh.write("\n")
        return code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
