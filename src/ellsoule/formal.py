"""Formal exact-rational calculus of Eisenstein-type cohomology classes.

Three kinds of opaque symbols are manipulated:

  * Eis(k, N, t)        — weight-k Eisenstein class at an N-torsion point
                          t = (a, b) != (0, 0), of parity (-1)^k under
                          t -> -t;
  * SouleElliptic(k, N, c, t) — the smoothed elliptic class, expanding as
                          -N (c^2 Eis^k(t) - c^{-k} Eis^k(c t));
  * CycSoule(k, N, b)   — the cyclotomic symbol written ctilde_{k+1}(zeta_N^b),
                          b != 0, kept fully opaque (no parity relation is
                          ever imposed on it).

A FormalClass is a rational linear combination of symbols, canonicalized by
parity rewriting (Eis/SouleElliptic only).  The residue at the cusp is the
linear extension of

    res(Eis^k(a, b)) = -(N^k / (k! (k+2))) * B_{k+2}({a/N}),

and the two routes to the boundary value of a weight function psi —
the direct formula dir(psi) and the smoothed-unit evaluation dir_via_me —
are implemented exactly as stated, including the residue-zero precondition.

The residue of Eis^k(psi) is computed directly, as the linear functional
sum_t psi(t) res(Eis^k(t)); the symbol route residue(eis_of_psi(psi)) is
kept as the reference it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from random import Random

from .bernoulli import bern_eval
from .numutil import exact_rational, frac_part

__all__ = [
    "EisSym",
    "SouleSym",
    "CycSym",
    "FormalClass",
    "WeightFunction",
    "ResiduePreconditionError",
    "rewrite_soule",
    "eis_residue_closed",
    "residue",
    "residue_soule_closed",
    "soule_elliptic",
    "eis_of_psi",
    "parity_project",
    "dir_closed",
    "dir_via_me",
    "cyc_symmetrize",
    "residue_table",
    "random_residue_zero_psi",
]


class ResiduePreconditionError(ValueError):
    """Raised when a boundary computation requires residue zero."""

    def __init__(self, residue: Fraction):
        super().__init__(f"nonzero residue {residue}")
        self.residue = residue


def _norm_point(N: int, t) -> tuple[int, int]:
    return (int(t[0]) % N, int(t[1]) % N)


@dataclass(frozen=True)
class EisSym:
    k: int
    N: int
    t: tuple[int, int]

    def __post_init__(self):
        t = _norm_point(self.N, self.t)
        if t == (0, 0):
            raise ValueError("Eisenstein symbols need t != (0, 0)")
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class SouleSym:
    k: int
    N: int
    c: int
    t: tuple[int, int]

    def __post_init__(self):
        t = _norm_point(self.N, self.t)
        if t == (0, 0):
            raise ValueError("elliptic symbols need t != (0, 0)")
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class CycSym:
    """ctilde_{k+1}(zeta_N^b); the stored k is the weight of the source."""

    k: int
    N: int
    b: int

    def __post_init__(self):
        b = int(self.b) % self.N
        if b == 0:
            raise ValueError("cyclotomic symbols need b != 0")
        object.__setattr__(self, "b", b)


Symbol = EisSym | SouleSym | CycSym


def _parity_canonical(N: int, t: tuple[int, int]) -> tuple[tuple[int, int], bool]:
    """The lexicographically smaller of t and -t, and whether a flip happened."""
    neg = ((-t[0]) % N, (-t[1]) % N)
    if neg < t:
        return neg, True
    return t, False


class FormalClass:
    """Canonicalized rational combination of class symbols."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[Symbol, Fraction] | None = None):
        merged: dict[Symbol, Fraction] = {}
        for sym, c in (coeffs or {}).items():
            c = exact_rational(c)
            if not c:
                continue
            sym2, c2 = _canonical_symbol(sym, c)
            if sym2 is None:
                continue
            merged[sym2] = merged.get(sym2, Fraction(0)) + c2
        object.__setattr__(
            self, "coeffs", {s: v for s, v in merged.items() if v}
        )

    def __setattr__(self, *a):
        raise AttributeError("FormalClass is immutable")

    def __eq__(self, other):
        if not isinstance(other, FormalClass):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items(), key=lambda kv: repr(kv[0]))))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "FormalClass") -> "FormalClass":
        out = dict(self.coeffs)
        for s, v in other.coeffs.items():
            out[s] = out.get(s, Fraction(0)) + v
        return FormalClass(out)

    def __neg__(self):
        return FormalClass({s: -v for s, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "FormalClass":
        c = exact_rational(c)
        return FormalClass({s: v * c for s, v in self.coeffs.items()})

    def symbols(self):
        return set(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for s, v in sorted(self.coeffs.items(), key=lambda kv: repr(kv[0])):
            bits.append(f"({v})*{s}")
        return " + ".join(bits)


def _canonical_symbol(sym: Symbol, c: Fraction):
    """Parity-canonical form of a single symbol with its sign folded in.

    Symbols with t == -t and odd k are 2-torsion over Q, hence zero.
    """
    if isinstance(sym, CycSym):
        return sym, c
    N, k, t = sym.N, sym.k, sym.t
    canon, flipped = _parity_canonical(N, t)
    sign = (-1) ** k if flipped else 1
    if t == ((-t[0]) % N, (-t[1]) % N) and k % 2 == 1:
        return None, Fraction(0)
    if isinstance(sym, EisSym):
        return EisSym(k, N, canon), c * sign
    return SouleSym(k, N, sym.c, canon), c * sign


def soule_elliptic(k: int, N: int, c: int, t) -> FormalClass:
    return FormalClass({SouleSym(k, N, c, _norm_point(N, t)): Fraction(1)})


def eis(k: int, N: int, t) -> FormalClass:
    return FormalClass({EisSym(k, N, _norm_point(N, t)): Fraction(1)})


def rewrite_soule(x: FormalClass) -> FormalClass:
    """Expand every elliptic symbol into the Eisenstein span:

        SouleElliptic(k, N, c, t) -> -N (c^2 Eis^k(t) - c^{-k} Eis^k(c t)).
    """
    out: dict[Symbol, Fraction] = {}

    def add(sym, v):
        out[sym] = out.get(sym, Fraction(0)) + v

    for sym, v in x.coeffs.items():
        if isinstance(sym, SouleSym):
            k, N, c, t = sym.k, sym.N, sym.c, sym.t
            ct = ((c * t[0]) % N, (c * t[1]) % N)
            add(EisSym(k, N, t), v * (-N) * c * c)
            add(EisSym(k, N, ct), v * N * Fraction(1, c ** k))
        else:
            add(sym, v)
    return FormalClass(out)


@lru_cache(maxsize=None)
def _eis_residue(k: int, N: int, a: int) -> Fraction:
    return -Fraction(N ** k, factorial(k) * (k + 2)) * bern_eval(
        k + 2, frac_part(Fraction(a, N))
    )


def eis_residue_closed(k: int, N: int, t) -> Fraction:
    """res(Eis^k(a, b)) = -(N^k/(k!(k+2))) * B_{k+2}({a/N})."""
    return _eis_residue(k, N, _norm_point(N, t)[0])


def residue(x: FormalClass) -> Fraction:
    """Linear extension of the closed Eisenstein residue.

    Elliptic symbols are expanded first (their residue is defined through
    that expansion); cyclotomic symbols have no residue and raise.
    """
    for sym in x.coeffs:
        if isinstance(sym, CycSym):
            raise ValueError("residue is undefined on cyclotomic symbols")
    expanded = rewrite_soule(x)
    total = Fraction(0)
    for sym, v in expanded.coeffs.items():
        total += v * eis_residue_closed(sym.k, sym.N, sym.t)
    return total


def residue_soule_closed(k: int, N: int, c: int, t) -> Fraction:
    """Closed residue of the elliptic symbol:

        N^{k+1}/(k!(k+2)) * (c^2 B_{k+2}({a/N}) - c^{-k} B_{k+2}({c a/N})).
    """
    a = _norm_point(N, t)[0]
    return Fraction(N ** (k + 1), factorial(k) * (k + 2)) * (
        c * c * bern_eval(k + 2, frac_part(Fraction(a, N)))
        - Fraction(1, c ** k) * bern_eval(k + 2, frac_part(Fraction(c * a, N)))
    )


# ---------------------------------------------------------------------------
# weight functions and the two boundary routes
# ---------------------------------------------------------------------------


class WeightFunction:
    """psi: (Z/N)^2 \\ {0} -> Q, with a weight k attached."""

    __slots__ = ("k", "N", "values")

    def __init__(self, k: int, N: int, values: dict):
        vals: dict[tuple[int, int], Fraction] = {}
        for t, v in values.items():
            t = _norm_point(N, t)
            if t == (0, 0):
                raise ValueError("weight functions exclude the origin")
            v = exact_rational(v)
            if v:
                vals[t] = v
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, *a):
        raise AttributeError("WeightFunction is immutable")

    def __call__(self, t) -> Fraction:
        return self.values.get(_norm_point(self.N, t), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, WeightFunction):
            return NotImplemented
        return (self.k, self.N, self.values) == (other.k, other.N, other.values)

    def __repr__(self):
        return f"WeightFunction(k={self.k}, N={self.N}, {self.values})"


def eis_of_psi(psi: WeightFunction) -> FormalClass:
    """Eis^k(psi) = sum_t psi(t) Eis^k(t) (canonicalized)."""
    out: dict[Symbol, Fraction] = {}
    for t, v in psi.values.items():
        sym = EisSym(psi.k, psi.N, t)
        out[sym] = out.get(sym, Fraction(0)) + v
    return FormalClass(out)


def parity_project(psi: WeightFunction) -> WeightFunction:
    """psi_k(t) = (psi(t) + (-1)^k psi(-t)) / 2."""
    N, k = psi.N, psi.k
    vals = {}
    for t in set(psi.values) | {((-a) % N, (-b) % N) for a, b in psi.values}:
        v = (psi(t) + (-1) ** k * psi(((-t[0]) % N, (-t[1]) % N))) / 2
        if v:
            vals[t] = v
    return WeightFunction(k, N, vals)


def _residue_of_values(k: int, N: int, values: dict) -> Fraction:
    """sum_t v(t) res(Eis^k(t)) over normalized points t; res depends on a only."""
    by_a: dict[int, Fraction] = {}
    for (a, _), v in values.items():
        by_a[a] = by_a.get(a, 0) + v
    return sum((v * _eis_residue(k, N, a) for a, v in by_a.items()), Fraction(0))


def psi_residue(psi: WeightFunction) -> Fraction:
    """res(Eis^k(psi)) as the linear functional sum_t psi(t) res(Eis^k(t)).

    Equal to residue(eis_of_psi(psi)), the symbol route kept as reference:
    res(Eis^k(-t)) = (-1)^k res(Eis^k(t)) since B_n(1-x) = (-1)^n B_n(x), so
    parity canonicalization does not move the sum, and the symbols it drops
    (t = -t with k odd) have residue zero.
    """
    return _residue_of_values(psi.k, psi.N, psi.values)


def dir_closed(psi: WeightFunction) -> FormalClass:
    """The boundary value: -(1/(N k!)) sum_{b != 0} psi(0, b) ctilde_{k+1}(zeta_N^b).

    Requires residue(Eis^k(psi)) = 0.
    """
    rho = psi_residue(psi)
    if rho:
        raise ResiduePreconditionError(rho)
    k, N = psi.k, psi.N
    out: dict[Symbol, Fraction] = {}
    for b in range(1, N):
        v = psi((0, b))
        if v:
            out[CycSym(k, N, b)] = -v / (N * factorial(k))
    return FormalClass(out)


def dir_via_me(psi: WeightFunction, c: int) -> FormalClass:
    """The smoothed-unit route to the boundary value.

    Needs c == 1 mod N, gcd(c, 6N) = 1, c > 1, and residue zero.  The
    parity projection psi_k(0, b) = (psi(0, b) + (-1)^k psi(0, -b))/2, read
    on the b-fiber only, is paired with the four-term evaluation

      me(0, b) = (1/(2 k! N^k)) * ( c^2 (ct_b + (-1)^k ct_{-b})
                                   - c^{-k} (ct_{cb} + (-1)^k ct_{-cb}) ),

    assembled literally (the summation-index merge over b realizes the
    formal parity substitution through psi_k's own symmetry — the symbols'
    parity relation is never used); the smoothing factor is then divided
    out: result = -N^{k-1}/(c^2 - c^{-k}) * sum_b psi_k(0, b) me(0, b).
    """
    k, N = psi.k, psi.N
    if c % N != 1:
        raise ValueError(f"need c == 1 mod N (got c = {c}, N = {N})")
    if c <= 1 or gcd(c, 6 * N) != 1:
        raise ValueError(f"need c > 1 with gcd(c, 6N) = gcd({c}, {6 * N}) = 1")
    rho = psi_residue(psi)
    if rho:
        raise ResiduePreconditionError(rho)
    sign = (-1) ** k
    acc: dict[Symbol, Fraction] = {}

    def add(b, v):
        b %= N
        if b == 0:
            if v:
                raise AssertionError("weightless term survived at b = 0")
            return
        sym = CycSym(k, N, b)
        acc[sym] = acc.get(sym, Fraction(0)) + v

    pref = Fraction(1, 2 * factorial(k) * N ** k)
    for b in range(1, N):
        w = (psi((0, b)) + sign * psi((0, N - b))) / 2
        if not w:
            continue
        w = w * pref
        add(b, w * c * c)
        add(-b, w * c * c * sign)
        add(c * b, -w * Fraction(1, c ** k))
        add(-c * b, -w * Fraction(1, c ** k) * sign)
    S = FormalClass(acc)
    factor = Fraction(c * c) - Fraction(1, c ** k)
    return S.scale(Fraction(-(N ** (k - 1) * factor.denominator), factor.numerator))


def cyc_symmetrize(x: FormalClass, k: int) -> FormalClass:
    """Coefficient symmetrization lambda_b -> (lambda_b + (-1)^k lambda_{-b})/2
    on the cyclotomic span (the formal parity substitution for raw psi)."""
    out: dict[Symbol, Fraction] = {}
    for sym, v in x.coeffs.items():
        if not isinstance(sym, CycSym):
            raise ValueError("cyc_symmetrize acts on the cyclotomic span")
        out[sym] = out.get(sym, Fraction(0)) + v / 2
        mirror = CycSym(sym.k, sym.N, (-sym.b) % sym.N)
        out[mirror] = out.get(mirror, Fraction(0)) + v * (-1) ** k / 2
    return FormalClass(out)


def residue_table(N: int, k: int) -> list[tuple[int, int, Fraction]]:
    """Rows (a, b, res(Eis^k(a, b))) over all t != 0, sorted."""
    rows = []
    for a in range(N):
        for b in range(N):
            if (a, b) == (0, 0):
                continue
            rows.append((a, b, eis_residue_closed(k, N, (a, b))))
    return rows


def random_residue_zero_psi(
    N: int, k: int, rng: Random, parity: bool = True, span: int = 20
) -> WeightFunction:
    """A random weight function with residue(Eis^k(psi)) = 0.

    All but one value are drawn uniformly from [-span, span]; the last is
    solved exactly at a point t* (with a* != 0 and nonzero residue
    coefficient) so the single linear residue constraint holds.  With
    parity=True the function is parity-projected afterwards (which preserves
    the residue), so it has exact parity (-1)^k.
    """
    points = [(a, b) for a in range(N) for b in range(N) if (a, b) != (0, 0)]
    t_star = None
    for t in points:
        if t[0] != 0 and eis_residue_closed(k, N, t):
            t_star = t
            break
    if t_star is None:
        raise ValueError(f"no usable pivot for N={N}, k={k}")
    vals: dict[tuple[int, int], Fraction] = {}
    for t in points:
        if t != t_star:
            vals[t] = Fraction(rng.randint(-span, span))
    partial = _residue_of_values(k, N, vals)
    vals[t_star] = -partial / eis_residue_closed(k, N, t_star)
    psi = WeightFunction(k, N, vals)
    if parity:
        psi = parity_project(psi)
    return psi
