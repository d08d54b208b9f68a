"""Deterministic JSON encodings for every public object.

All rational numbers are rendered as strings "num/den" (or "num" when the
denominator is 1), so no value is rounded; every list is emitted in a
canonical sorted order so serialized output is byte-stable.  A series, the
one large document, is not built as a dict: `series_json` yields its text
one term block at a time.  The one decoder, `psi_from_json`, reads the
weight-function input of `ellsoule dir`.
"""

from __future__ import annotations

from math import gcd

from .cyclotomic import CycloElement
from .formal import EisSym, FormalClass, SouleSym, WeightFunction
from .measures import Measure, TorsorSpec
from .numutil import parse_rat, rat_str
from .puiseux import PuiseuxSeries

__all__ = [
    "cyclo_to_json",
    "series_json",
    "measure_to_json",
    "formal_to_json",
    "psi_to_json",
    "psi_from_json",
]


def _ratio_str(n: int, d: int) -> str:
    """rat_str(Fraction(n, d)) for d > 0, with one gcd and no Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def cyclo_to_json(x: CycloElement) -> dict:
    den = x.den
    return {"M": x.M, "coeffs": [_ratio_str(a, den) for a in x.num]}


# One term block of a series document, as `json.dumps(..., indent=2)` lays
# it out: the separator from the previous block, n, M and the joined
# coordinate strings (digits, "-" and "/" only, so none needs escaping).
_TERM = (
    '%s\n    {\n      "n": %d,\n      "coeff": {\n        "M": %d,\n'
    '        "coeffs": [\n          "%s"\n        ]\n      }\n    }'
)
_COORD_SEP = '",\n          "'


def series_json(f: PuiseuxSeries):
    """Yield the `qexp` document of a nonzero series f in pieces: the head,
    one block per term in ascending n, the tail.  Joined, they equal the
    `json.dumps(..., indent=2)` of {"M", "T", "terms": [{"n": n, "coeff":
    cyclo_to_json(a_n)}, ...], "valuation": "<min n>/<M>"}.  No dict and no
    `Fraction` is built: a coordinate is its numerator when the denominator
    is 1, else put in lowest terms with one gcd.
    """
    terms = sorted(f.terms.items())
    if not terms:
        raise ValueError("series is zero to its truncation order")
    M = f.M
    yield f'{{\n  "M": {M},\n  "T": {f.T},\n  "terms": ['
    lead = ""
    for n, c in terms:
        den = c.den
        if den == 1:
            coords = _COORD_SEP.join(map(str, c.num))
        else:
            coords = _COORD_SEP.join([_ratio_str(a, den) for a in c.num])
        yield _TERM % (lead, n, M, coords)
        lead = ","
    yield f'\n  ],\n  "valuation": "{terms[0][0]}/{M}"\n}}'


def _spec_to_json(spec) -> dict:
    if isinstance(spec, TorsorSpec):
        return {
            "kind": "torsor",
            "ell": spec.ell,
            "r": spec.r,
            "N": spec.N,
            "d": spec.d,
            "flavor": spec.flavor,
            "t": list(spec.t),
        }
    return {"kind": "group", "m": spec.m, "d": spec.d}


def measure_to_json(mu: Measure) -> dict:
    return {
        "spec": _spec_to_json(mu.spec),
        "values": [
            {"x": list(x), "v": rat_str(v)}
            for x, v in sorted(mu.values.items())
        ],
    }


def _sym_to_json(sym) -> dict:
    if isinstance(sym, EisSym):
        return {"kind": "Eis", "k": sym.k, "N": sym.N, "t": list(sym.t)}
    if isinstance(sym, SouleSym):
        return {
            "kind": "SouleElliptic",
            "k": sym.k,
            "N": sym.N,
            "c": sym.c,
            "t": list(sym.t),
        }
    return {"kind": "CycSoule", "k": sym.k, "N": sym.N, "b": sym.b}


def _sym_sort_key(entry):
    sym = entry["sym"]
    return (
        sym["kind"],
        sym["k"],
        sym["N"],
        sym.get("t", [sym.get("b", 0), 0]),
        sym.get("c", 0),
    )


def formal_to_json(x: FormalClass) -> list:
    rows = [
        {"sym": _sym_to_json(sym), "coeff": rat_str(v)}
        for sym, v in x.coeffs.items()
    ]
    rows.sort(key=_sym_sort_key)
    return rows


def psi_to_json(psi: WeightFunction) -> dict:
    return {
        "k": psi.k,
        "N": psi.N,
        "values": [
            {"t": list(t), "v": rat_str(v)}
            for t, v in sorted(psi.values.items())
        ],
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def psi_from_json(obj: dict) -> WeightFunction:
    """Parse a weight function; a malformed field raises ValueError naming it."""
    if not isinstance(obj, dict):
        raise ValueError("weight function must be a JSON object")
    for key in ("k", "N"):
        if not (_is_int(obj.get(key)) and obj[key] >= 1):
            raise ValueError(f"field {key!r} must be a positive integer, got {obj.get(key)!r}")
    N = obj["N"]
    rows = obj.get("values")
    if not isinstance(rows, list):
        raise ValueError(f"field 'values' must be a list, got {rows!r}")
    values = {}
    for i, row in enumerate(rows):
        t = row.get("t") if isinstance(row, dict) else None
        if not (isinstance(t, list) and len(t) == 2 and all(map(_is_int, t))):
            raise ValueError(f"field 'values[{i}].t' must be two integers, got {t!r}")
        point = (t[0] % N, t[1] % N)
        if point == (0, 0) or point in values:
            raise ValueError(f"field 'values[{i}].t' is the origin or a repeated point mod N = {N}")
        v = row.get("v")
        bad_v = ValueError(f"field 'values[{i}].v' must be a rational string like \"-3/4\", got {v!r}")
        if not isinstance(v, str):
            raise bad_v
        try:
            values[point] = parse_rat(v)
        except (ValueError, ZeroDivisionError):
            raise bad_v from None
    return WeightFunction(obj["k"], N, values)
