"""Command-line interface.

Subcommands:

  verify         run one verification suite (or all of them) and emit a
                 deterministic JSON/CSV report; exit 0 only if every case passed
  qexp           print the q-expansion of the smoothed theta unit as JSON
  residue-table  tabulate closed residues of weight-k classes at level N
  dir            evaluate the boundary formula for a weight function, by the
                 direct route, the smoothed-unit route, or both

Exit codes: 0 success / all checks passed; 1 a verification comparison
failed; 2 invalid input or configuration; 3 the residue-zero precondition of
the boundary formula was violated (the report carries the residue).

`qexp` bounds its work: the level ell^r * N may be at most MAX_LEVEL, --c at
most MAX_C, and --trunc may lie at most MAX_WINDOW past the leading exponent
(in q^{1/M} units, the window the unit's product is built to).  `verify`
caps its level ell^rmax * N at MAX_LEVEL (at MAX_RESIDUES_LEVEL when the
residues suite runs), its --c at MAX_C and its --trunc, the window of the
units suite's expansion, at MAX_WINDOW.  `residue-table` caps --N at
MAX_RESIDUES_LEVEL, and `dir` the level N of its weight function at
MAX_LEVEL.  The weight (`residue-table --k`, `verify --kmax` and the k of
`dir`'s weight function) is capped at MAX_WEIGHT.  An input over a cap exits
2 before any work is done.

Every JSON document is written by `_dumps`, whose output equals
`json.dumps(obj, indent=2)`, and `main` builds its parser once per process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii as _encode_str

from .formal import ResiduePreconditionError, dir_closed, dir_via_me, residue_table
from .numutil import rat_str
from .serialize import formal_to_json, psi_from_json, series_to_json
from .units import eta_exponent, theta_qexp
from .verify import SUITE_NAMES, run_suites

__all__ = ["build_parser", "main"]

# Sized from measured cost (2 vCPU, Python 3.11.7) at a window of 1000 past
# the leading exponent, x in {0, 1}, with the smallest admissible c.  Dense
# small levels take 0.81-0.86 s at level 2, 0.67-0.74 s at level 3 and
# 0.16-0.24 s at level 12 (x = 1).  Over levels 500-1000, x = 0 took at most
# 0.19 s (level 989); at x = 1 the dearest were 805, 665, 595 (c = 11) and
# 770 (c = 13) at 0.75-1.4 s, and 3 of the 501 levels took over 1 s; level
# 935 = 5*11*17 (c = 7) took 0.45-0.71 s (peak RSS 45 MB).  The cost grows
# with c: at level 935, x = 1 it was 7.2-9.7 s at c = 31 (peak RSS 140 MB)
# and 9.9-10.7 s at 49 (218 MB), and x = 0 0.29 s at 49; at level 2, 2.7-3.4 s
# at c = 49.  MAX_C keeps 49, the largest c admissible at level 935 below it.
# `dir` caps its weight function's level N here too: its cost is linear in N,
# 0.008 s at N = 1000 and 0.46 s at N = 100,000.
MAX_LEVEL = 1000
MAX_WINDOW = 1000
MAX_C = 50
# The residues suite expands the unit at every point of every fiber: about
# 1.25 L^2 expansions at level L = ell^rmax * N, so its time grows about 4x
# per doubling of the level, and with c.  Measured (same host): level 96
# (2^5 * 3) took 0.47 s at c = 5 and 1.0 s at c = 49; level 98 (2 * 49,
# c = 47) 3.7 s and level 100 (2^2 * 25, c = 49) 2.4 s; level 192 (2^6 * 3)
# 1.9 s at c = 5 and 6.9 s at c = 49, level 194 (2 * 97, c = 49) 34 s.
# `residue-table --N` shares the cap: its table has N^2 - 1 rows, and took
# 0.07 s at N = 100 and 2.0 s (peak RSS 206 MB) at N = 500.
MAX_RESIDUES_LEVEL = 100
# A weight-k residue or moment is built from B_{k+2} in Fractions, at about
# O(k^3) (same host, single runs): `residue-table --N 3` took 0.13 s at
# k = 50, 0.75 s at 100 and 20 s at 300, and `verify --suite all --kmax 50`
# 2.45 s.
MAX_WEIGHT = 50


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellsoule",
        description="exact arithmetic of smoothed theta units, their measures, "
        "moments and boundary formulas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run self-verification suites")
    p_verify.add_argument(
        "--suite",
        choices=SUITE_NAMES + ("all",),
        default="all",
        help="which suite to run (default: all)",
    )
    p_verify.add_argument("--ell", type=int, default=2, help="prime ell (default 2)")
    p_verify.add_argument("--N", type=int, default=3, help="tame level N (default 3)")
    p_verify.add_argument(
        "--c", type=int, default=5, help=f"smoothing factor, |c| at most {MAX_C} (default 5)"
    )
    p_verify.add_argument(
        "--rmax",
        type=int,
        default=2,
        help=f"largest level r (default 2); the level ell^rmax * N is at most "
        f"{MAX_LEVEL}, and {MAX_RESIDUES_LEVEL} when the residues suite runs",
    )
    p_verify.add_argument(
        "--kmax", type=int, default=4, help=f"largest weight k, at most {MAX_WEIGHT} (default 4)"
    )
    p_verify.add_argument(
        "--trunc",
        type=int,
        default=40,
        help=f"q-expansion window, at most {MAX_WINDOW} (default 40)",
    )
    p_verify.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_verify.add_argument("--out", metavar="FILE", help="write the report to FILE")
    p_verify.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    p_verify.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock time in the report (off by default so reports "
        "are byte-reproducible)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_qexp = sub.add_parser("qexp", help="q-expansion of the smoothed theta unit")
    p_qexp.add_argument("--ell", type=int, default=2)
    p_qexp.add_argument("--r", type=int, default=1)
    p_qexp.add_argument("--N", type=int, default=3)
    p_qexp.add_argument("--c", type=int, default=5, help=f"|c| at most {MAX_C} (default 5)")
    p_qexp.add_argument("--x", type=int, default=1)
    p_qexp.add_argument("--y", type=int, default=0)
    p_qexp.add_argument(
        "--trunc",
        type=int,
        default=40,
        help=f"window in q^(1/M) units, at most {MAX_WINDOW} past the leading "
        f"exponent (default 40); the level ell^r * N is at most {MAX_LEVEL}",
    )
    p_qexp.add_argument("--out", metavar="FILE")
    p_qexp.set_defaults(func=_cmd_qexp)

    p_table = sub.add_parser(
        "residue-table",
        aliases=["residue_table"],
        help="closed residues of all weight-k classes at level N",
    )
    p_table.add_argument(
        "--N", type=int, default=3, help=f"level, at most {MAX_RESIDUES_LEVEL} (default 3)"
    )
    p_table.add_argument(
        "--k", type=int, default=2, help=f"weight, at most {MAX_WEIGHT} (default 2)"
    )
    p_table.add_argument("--format", choices=("json", "csv"), default="json")
    p_table.add_argument("--out", metavar="FILE")
    p_table.set_defaults(func=_cmd_table)

    p_dir = sub.add_parser(
        "dir", help="boundary value of a weight function (requires residue zero)"
    )
    p_dir.add_argument(
        "--psi",
        required=True,
        metavar="FILE",
        help=f"weight function as JSON; its level N is at most {MAX_LEVEL} and "
        f"its weight k at most {MAX_WEIGHT}",
    )
    p_dir.add_argument("--c", type=int, default=5, help="smoothing factor for the me route")
    p_dir.add_argument("--route", choices=("closed", "me", "both"), default="both")
    p_dir.add_argument("--out", metavar="FILE")
    p_dir.set_defaults(func=_cmd_dir)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads argv with, built once per process: building
    one costs more than ten times parsing with it."""
    return build_parser()


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
        sep = "," + inner
        try:  # a list of strings, such as the coefficients of an element
            put("[" + inner + sep.join(map(_encode_str, o)) + nl + "]")
            return
        except TypeError:
            pass
        lead = "[" + inner
        for v in o:
            if isinstance(v, (dict, list, tuple)):
                put(lead)
                _put(v, put, inner)
            else:
                put(lead + _scalar(v))
            lead = sep
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


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _verify_csv(report: dict) -> str:
    buf = io.StringIO()
    if report["suite"] == "bernoulli":
        # the row's own fields, in the order _row writes them
        cols = [k for k in report["cases"][0] if k not in ("case", "pass")]
        writer = csv.writer(buf)
        writer.writerow(cols)
        for row in report["cases"]:
            writer.writerow([row[k] for k in cols])
        return buf.getvalue().rstrip("\n")
    writer = csv.writer(buf)
    writer.writerow(["suite", "case", "pass", "details"])
    blocks = report["suites"] if report["suite"] == "all" else [report]
    for block in blocks:
        for row in block["cases"]:
            extra = {
                k: v for k, v in row.items() if k not in ("case", "pass")
            }
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


def _cmd_verify(args) -> int:
    _check_cap("--trunc", args.trunc, MAX_WINDOW)
    _check_cap("--kmax", args.kmax, MAX_WEIGHT)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    cap = MAX_RESIDUES_LEVEL if "residues" in names else MAX_LEVEL
    _check_level_and_c(args.ell, args.rmax, args.N, args.c, "--rmax", cap)
    started = time.perf_counter()
    report = run_suites(
        names,
        ell=args.ell,
        N=args.N,
        c=args.c,
        rmax=args.rmax,
        kmax=args.kmax,
        trunc=args.trunc,
        seed=args.seed,
    )
    if args.timing:
        report["timing"] = {"elapsed_s": round(time.perf_counter() - started, 3)}
    if args.format == "csv":
        _emit(_verify_csv(report), args.out)
    else:
        _emit(_dumps(report), args.out)
    return 0 if report["all_pass"] else 1


def _check_level_and_c(
    ell: int, r: int, N: int, c: int, r_flag: str, cap: int = MAX_LEVEL
) -> None:
    """Reject a level ell^r * N over `cap`, without forming ell^r, and a
    smoothing factor |c| over MAX_C."""
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
    _check_cap("|--c|", abs(c), MAX_C)


def _check_qexp_caps(args) -> None:
    """Reject a level, smoothing factor or window over its cap."""
    _check_level_and_c(args.ell, args.r, args.N, args.c, "--r")
    e0 = eta_exponent(args.ell, args.r, args.N, args.c, args.x)
    if args.trunc - e0 > MAX_WINDOW:
        raise ValueError(
            f"--trunc {args.trunc} lies {args.trunc - e0} past the leading "
            f"exponent {e0}; the cap is {MAX_WINDOW}"
        )


def _cmd_qexp(args) -> int:
    _check_qexp_caps(args)
    f = theta_qexp(args.ell, args.r, args.N, args.c, (args.x, args.y), args.trunc)
    obj = series_to_json(f)
    obj["valuation"] = f"{min(f.terms)}/{f.M}"
    _emit(_dumps(obj), args.out)
    return 0


def _cmd_table(args) -> int:
    _check_cap("--N", args.N, MAX_RESIDUES_LEVEL)
    _check_cap("--k", args.k, MAX_WEIGHT)
    rows = residue_table(args.N, args.k)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["a", "b", "value"])
        for a, b, v in rows:
            writer.writerow([a, b, rat_str(v)])
        _emit(buf.getvalue().rstrip("\n"), args.out)
    else:
        obj = {
            "N": args.N,
            "k": args.k,
            "rows": [{"a": a, "b": b, "value": rat_str(v)} for a, b, v in rows],
        }
        _emit(_dumps(obj), args.out)
    return 0


def _cmd_dir(args) -> int:
    with open(args.psi) as fh:
        psi = psi_from_json(json.load(fh))
    _check_cap("the weight function's level N", psi.N, MAX_LEVEL)
    _check_cap("the weight function's weight k", psi.k, MAX_WEIGHT)
    out: dict = {"k": psi.k, "N": psi.N, "route": args.route}
    if args.route in ("closed", "both"):
        out["closed"] = formal_to_json(dir_closed(psi))
    if args.route in ("me", "both"):
        out["me"] = formal_to_json(dir_via_me(psi, args.c))
        out["c"] = args.c
    ok = True
    if args.route == "both":
        out["match"] = out["closed"] == out["me"]
        ok = out["match"]
    _emit(_dumps(out), args.out)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ResiduePreconditionError as e:
        print(_dumps({"error": "nonzero residue", "residue": rat_str(e.residue)}))
        return 3
    except (ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
