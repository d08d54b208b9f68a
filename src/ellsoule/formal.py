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

A weight function and a FormalClass are each held as int numerators over
one positive denominator, in lowest terms, and every operation here (the
residue functional, the parity projection, the generator, both boundary
routes, class arithmetic, rewriting and the symbol-route residue) runs in
int arithmetic with one gcd at the end; a Fraction is built only for an
output coefficient or a residue.  The parity-canonical form of an
Eisenstein or elliptic symbol, with its sign, is computed once per
(k, N, c, t) and cached, like the closed residues; `eis_of_psi` reads it
from a per-(k, N) table of every point, filled on first use.  The
generator reads a per-(k, N) plan (the points, their residue coefficients
and the pivot), draws each value with `getrandbits` exactly as
`randrange(-20, 21)` would, and solves the pivot as one dot product.

The symbols are records (`numutil._Record`) whose int fields are checked
and whose hash is computed once, at construction; they, classes and
weight functions are immutable values (`numutil._Value`).  Each symbol's
checks are one function (`_eis_args`, `_soule_args`), which
`soule_elliptic` and the closed residues call without building a record.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import mul
from random import Random

from .bernoulli import _bern_ints, _bern_num, _moment_ints
from .numutil import _Record, _Value, _coord, _int, _lowest, _point, _rebuild, exact_rational

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
    "psi_residue",
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


def _level_N(N) -> int:
    """N, which must be an int >= 1: no point lives at a level N <= 0."""
    N = _int(N, "level N")
    if N < 1:
        raise ValueError(f"level N = {N} must be >= 1")
    return N


def _weight_k(k) -> int:
    """k, which must be an int >= 0: factorial(k) and c^k need it."""
    k = _int(k, "weight k")
    if k < 0:
        raise ValueError(f"weight k = {k} must be >= 0")
    return k


def _eis_args(k, N, t) -> tuple[int, int, tuple[int, int]]:
    """The fields of `EisSym(k, N, t)`, checked and normalized, with no
    record built."""
    k, N = _weight_k(k), _level_N(N)
    t = _point(t, N)
    if t == (0, 0):
        raise ValueError("Eisenstein symbols need t != (0, 0)")
    return k, N, t


def _soule_args(k, N, c, t) -> tuple[int, int, int, tuple[int, int]]:
    """The fields of `SouleSym(k, N, c, t)`, checked and normalized, with no
    record built."""
    k, N, c = _weight_k(k), _level_N(N), _int(c, "smoothing factor")
    if c <= 1 or gcd(c, N) != 1:
        raise ValueError(f"need c > 1 with gcd(c, N) = gcd({c}, {N}) = 1")
    t = _point(t, N)
    if t == (0, 0):
        raise ValueError("elliptic symbols need t != (0, 0)")
    return k, N, c, t


class EisSym(_Record):
    """Eis(k, N, t); k >= 0, and t is normalized mod N and nonzero."""

    __slots__ = ("k", "N", "t")

    def __init__(self, k: int, N: int, t: tuple[int, int]):
        self._fix(*_eis_args(k, N, t))


class SouleSym(_Record):
    """SouleElliptic(k, N, c, t); k >= 0, and c is an int > 1 prime to N, so
    that c t is again a nonzero N-torsion point."""

    __slots__ = ("k", "N", "c", "t")

    def __init__(self, k: int, N: int, c: int, t: tuple[int, int]):
        self._fix(*_soule_args(k, N, c, t))


class CycSym(_Record):
    """ctilde_{k+1}(zeta_N^b), k >= 0; the stored k is the weight of the source."""

    __slots__ = ("k", "N", "b")

    def __init__(self, k: int, N: int, b: int):
        k, N = _weight_k(k), _level_N(N)
        b = _coord(b, N)
        if b == 0:
            raise ValueError("cyclotomic symbols need b != 0")
        self._fix(k, N, b)


Symbol = EisSym | SouleSym | CycSym


@lru_cache(maxsize=None, typed=True)
def _canonical_at(k: int, N: int, c: int | None, t: tuple[int, int]):
    """(sym, sign) with Eis^k(t) = sign * sym (c None), or
    SouleElliptic(k, N, c, t) = sign * sym: sym sits at the lexicographically
    smaller of t and -t, and sign = (-1)^k if that is -t.  (None, 0) when
    t = -t and k is odd: the symbol is 2-torsion over Q, hence zero.

    t is normalized; one cache entry per point met, and t and -t share one
    symbol object.
    """
    neg = ((-t[0]) % N, (-t[1]) % N)
    if neg == t and k % 2:
        return None, 0
    if neg < t:
        return _canonical_at(k, N, c, neg)[0], -1 if k % 2 else 1
    return (EisSym(k, N, t) if c is None else SouleSym(k, N, c, t)), 1


def _canonical_symbol(sym: Symbol):
    """Parity-canonical form (sym, sign) of a single symbol; (None, 0) when it
    vanishes.  Cyclotomic symbols are opaque and returned as they are."""
    if isinstance(sym, CycSym):
        return sym, 1
    return _canonical_at(sym.k, sym.N, sym.c if isinstance(sym, SouleSym) else None, sym.t)


@lru_cache(maxsize=None)
def _cyc_row(k: int, N: int) -> tuple:
    """(None, CycSym(k, N, 1), ..., CycSym(k, N, N - 1)): the cyclotomic
    symbols of one (k, N), indexed by b."""
    return (None, *(CycSym(k, N, b) for b in range(1, N)))


class FormalClass(_Value):
    """Canonicalized rational combination of class symbols.

    Held as int numerators `num` {symbol: nonzero int} on parity-canonical
    symbols over one positive `den`, in lowest terms (the empty class has
    den 1), so equality and hashing compare the representation.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: dict[Symbol, Fraction] | None = None):
        terms = []
        for sym, v in (coeffs or {}).items():
            v = exact_rational(v)
            sym, sign = _canonical_symbol(sym)
            if v and sym is not None:
                terms.append((sym, sign * v.numerator, v.denominator))
        den = lcm(*(d for _, _, d in terms))
        num: dict[Symbol, int] = {}
        for sym, n, d in terms:
            num[sym] = num.get(sym, 0) + n * (den // d)
        self._fix(*_lowest(num, den))

    @classmethod
    def _make(cls, num: dict[Symbol, int], den: int) -> "FormalClass":
        """num[sym] / den on parity-canonical symbols, unchecked; den > 0."""
        x = object.__new__(cls)
        num, den = _lowest(num, den)
        _set_num(x, num)
        _set_den(x, den)
        return x

    @property
    def coeffs(self) -> dict[Symbol, Fraction]:
        """The nonzero coefficients {sym: Fraction}."""
        return {s: Fraction(v, self.den) for s, v in self.num.items()}

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other: "FormalClass") -> "FormalClass":
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = {s: v * fa for s, v in self.num.items()}
        for s, v in other.num.items():
            out[s] = out.get(s, 0) + v * fb
        return FormalClass._make(out, den)

    def __neg__(self):
        return FormalClass._make({s: -v for s, v in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "FormalClass":
        c = exact_rational(c)
        return FormalClass._make(
            {s: v * c.numerator for s, v in self.num.items()}, self.den * c.denominator
        )

    def __repr__(self):
        if not self.num:
            return "0"
        bits = []
        for s, v in sorted(self.coeffs.items(), key=lambda kv: repr(kv[0])):
            bits.append(f"({v})*{s}")
        return " + ".join(bits)


_set_num, _set_den = FormalClass._setters


def soule_elliptic(k: int, N: int, c: int, t) -> FormalClass:
    """The class of the single symbol SouleElliptic(k, N, c, t), checked as
    `SouleSym` checks it and built from its cached parity-canonical form (the
    zero class when that vanishes), already in lowest terms over den 1."""
    canon, sign = _canonical_at(*_soule_args(k, N, c, t))
    x = object.__new__(FormalClass)
    _set_num(x, {canon: sign} if sign else {})
    _set_den(x, 1)
    return x


def _soule_terms(sym: SouleSym):
    """SouleElliptic(k, N, c, t) = -N (c^2 Eis^k(t) - c^{-k} Eis^k(c t)), as
    c^k and the two (point, int factor) pairs of c^k times the expansion:
    (t, -N c^{k+2}) and (c t, N)."""
    k, N, c, t = sym.k, sym.N, sym.c, sym.t
    ck = c ** k
    return ck, ((t, -N * ck * c * c), (((c * t[0]) % N, (c * t[1]) % N), N))


def rewrite_soule(x: FormalClass) -> FormalClass:
    """Expand every elliptic symbol into the Eisenstein span:

        SouleElliptic(k, N, c, t) -> -N (c^2 Eis^k(t) - c^{-k} Eis^k(c t)).

    Summed in ints over den * C, C the lcm of the c^k met.
    """
    C = lcm(*(s.c ** s.k for s in x.num if isinstance(s, SouleSym)))
    out: dict[Symbol, int] = {}
    for sym, v in x.num.items():
        if not isinstance(sym, SouleSym):
            out[sym] = out.get(sym, 0) + v * C
            continue
        ck, terms = _soule_terms(sym)
        for t, f in terms:
            eis, sign = _canonical_at(sym.k, sym.N, None, t)
            if eis is not None:
                out[eis] = out.get(eis, 0) + sign * v * f * (C // ck)
    return FormalClass._make(out, x.den * C)


@lru_cache(maxsize=None)
def _eis_residue(k: int, N: int, a: int) -> Fraction:
    # -(N^k/(k!(k+2))) B_{k+2}({a/N}), with B_{k+2}({a/N}) = R / (D N^{k+2})
    b, D = _bern_ints(k + 2)
    return Fraction(-_bern_num(b, a % N, N), factorial(k) * (k + 2) * D * N * N)


def eis_residue_closed(k: int, N: int, t) -> Fraction:
    """res(Eis^k(a, b)) = -(N^k/(k!(k+2))) * B_{k+2}({a/N}).

    Refuses what `EisSym(k, N, t)` refuses (k < 0 or t = (0, 0) raise
    ValueError).
    """
    k, N, t = _eis_args(k, N, t)
    return _eis_residue(k, N, t[0])


def residue(x: FormalClass) -> Fraction:
    """Linear extension of the closed Eisenstein residue, summed in ints.

    An elliptic symbol's residue is defined through its Eisenstein expansion
    and summed term by term over it (no canonicalization is needed:
    res(Eis^k(-t)) = (-1)^k res(Eis^k(t)), so parity rewriting does not move
    the sum); cyclotomic symbols have no residue and raise.  One pass over
    the symbols sums the numerators per residue key (k, N, a) over den * C,
    C the lcm of the c^k met so far (as in `rewrite_soule`; the sums are
    rescaled when a new c^k raises it); the closed residues met are put
    over their lcm Q, and one Fraction is built, over den * C * Q.
    """
    C = 1
    acc: dict[tuple[int, int, int], int] = {}
    for sym, v in x.num.items():
        cls = sym.__class__
        if cls is EisSym:
            key = (sym.k, sym.N, sym.t[0])
            acc[key] = acc.get(key, 0) + v * C
        elif cls is SouleSym:
            ck, terms = _soule_terms(sym)
            if C % ck:  # a new c^k: put the sums so far over the lcm
                g = lcm(C, ck) // C
                if acc:
                    acc = {key: n * g for key, n in acc.items()}
                C *= g
            v *= C // ck
            for t, f in terms:
                key = (sym.k, sym.N, t[0])
                acc[key] = acc.get(key, 0) + v * f
        else:
            raise ValueError("residue is undefined on cyclotomic symbols")
    total, Q = 0, 1
    for key, n in acc.items():
        if n:
            r = _eis_residue(*key)
            q = r.denominator
            if Q % q:
                g = lcm(Q, q) // Q
                total *= g
                Q *= g
            total += n * r.numerator * (Q // q)
    return Fraction(total, x.den * C * Q)


def residue_soule_closed(k: int, N: int, c: int, t) -> Fraction:
    """The residue formula: res(SouleElliptic(k, N, c, (a, b))) is the
    degree-k moment of the c-smoothed Bernoulli measure at a, over k!,

        N^{k+1}/(k!(k+2)) * (c^2 B_{k+2}({a/N}) - c^{-k} B_{k+2}({c a/N})),

    built as one Fraction from the moment's int numerator and denominator.
    Refuses what `SouleSym(k, N, c, t)` refuses (k < 0, c <= 1,
    gcd(c, N) != 1 or t = (0, 0) raise ValueError).
    """
    k, N, c, t = _soule_args(k, N, c, t)
    n, d = _moment_ints(k, N, c, t[0])
    return Fraction(n, c ** k * d * factorial(k))


# ---------------------------------------------------------------------------
# weight functions and the two boundary routes
# ---------------------------------------------------------------------------


def _check_psi_kN(k, N) -> None:
    """A weight function's rule for its weight and level: ints (not bools)
    k >= 0 and N >= 1."""
    if not (type(k) is int and k >= 0 and type(N) is int and N >= 1):
        raise ValueError(
            f"weight functions need ints k >= 0, N >= 1; got k = {k!r}, N = {N!r}"
        )


class WeightFunction(_Value):
    """psi: (Z/N)^2 \\ {0} -> Q, with a weight k attached.

    Held as int numerators `num` (nonzero only) over one positive `den`, in
    lowest terms, so equality and hashing compare the representation.  The
    object is immutable, so `psi_residue` keeps its value in `_res` (None
    until first asked for), which equality, hashing and pickling ignore.
    """

    __slots__ = ("k", "N", "num", "den", "_res")

    def __init__(self, k: int, N: int, values: dict):
        _check_psi_kN(k, N)
        vals: dict[tuple[int, int], Fraction] = {}
        for t, v in values.items():
            t = _point(t, N)
            if t == (0, 0):
                raise ValueError("weight functions exclude the origin")
            v = exact_rational(v)
            if v:
                vals[t] = v
        # the lcm of lowest-terms denominators leaves the numerators coprime to it
        den = lcm(*(v.denominator for v in vals.values()))
        num = {t: v.numerator * (den // v.denominator) for t, v in vals.items()}
        self._fix(k, N, num, den)

    @classmethod
    def _from_num(cls, k: int, N: int, num: dict, den: int) -> "WeightFunction":
        """num[t] / den on normalized points t != 0, unchecked; den > 0."""
        return _rebuild(cls, (k, N, *_lowest(num, den)))

    @property
    def values(self) -> dict[tuple[int, int], Fraction]:
        """The nonzero values {t: psi(t)}."""
        return {t: Fraction(v, self.den) for t, v in self.num.items()}

    def __call__(self, t) -> Fraction:
        return Fraction(self.num.get(_point(t, self.N), 0), self.den)

    def __repr__(self):
        return f"WeightFunction(k={self.k}, N={self.N}, {self.values})"


_set_res = WeightFunction._res.__set__


@lru_cache(maxsize=None)
def _eis_points(k: int, N: int) -> dict:
    """{t: (sym, sign)} = `_canonical_at(k, N, None, t)` for every nonzero
    point t of (Z/N)^2."""
    return {t: _canonical_at(k, N, None, t) for t in _points(N)}


def eis_of_psi(psi: WeightFunction) -> FormalClass:
    """Eis^k(psi) = sum_t psi(t) Eis^k(t) (canonicalized), over psi's den."""
    table = _eis_points(psi.k, psi.N)
    out: dict[Symbol, int] = {}
    for t, v in psi.num.items():
        sym, sign = table[t]
        if sym is not None:
            out[sym] = out.get(sym, 0) + sign * v
    return FormalClass._make(out, psi.den)


def parity_project(psi: WeightFunction) -> WeightFunction:
    """psi_k(t) = (psi(t) + (-1)^k psi(-t)) / 2."""
    return WeightFunction._from_num(psi.k, psi.N, _parity_num(psi.k, psi.N, psi.num), 2 * psi.den)


def _parity_num(k: int, N: int, num: dict) -> dict:
    """The numerators of psi_k over 2 den, for psi = num / den; zero entries
    of num are skipped, so that raw and reduced numerators give the same
    key order."""
    sign = -1 if k % 2 else 1
    negatives = _negatives(N)
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for t, v in num.items():
        if v:
            out[t] = get(t, 0) + v
            neg = negatives[t]
            out[neg] = get(neg, 0) + sign * v
    return out


@lru_cache(maxsize=16)
def _negatives(N: int) -> dict[tuple[int, int], tuple[int, int]]:
    """{t: -t} over the nonzero points of (Z/N)^2."""
    return {(a, b): ((-a) % N, (-b) % N) for a, b in _points(N)}


@lru_cache(maxsize=None)
def _residue_ints(k: int, N: int) -> tuple[tuple[int, ...], int]:
    """(R, Q) with res(Eis^k(a, b)) = R[a] / Q for 0 <= a < N."""
    res = [_eis_residue(k, N, a) for a in range(N)]
    Q = lcm(*(r.denominator for r in res))
    return tuple(r.numerator * (Q // r.denominator) for r in res), Q


def psi_residue(psi: WeightFunction) -> Fraction:
    """res(Eis^k(psi)) as the linear functional sum_t psi(t) res(Eis^k(t)).

    Equal to residue(eis_of_psi(psi)), the symbol route kept as reference:
    res(Eis^k(-t)) = (-1)^k res(Eis^k(t)) since B_n(1-x) = (-1)^n B_n(x), so
    parity canonicalization does not move the sum, and the symbols it drops
    (t = -t with k odd) have residue zero.  Summed in ints as
    sum_t num(t) R[a] over den * Q, once per weight function: the value is
    kept in psi's `_res` slot, which both boundary routes read.
    """
    res = psi._res
    if res is None:
        R, Q = _residue_ints(psi.k, psi.N)
        total = sum(v * R[a] for (a, _), v in psi.num.items())
        res = Fraction(total, psi.den * Q) if total else Fraction(0)
        _set_res(psi, res)
    return res


def dir_closed(psi: WeightFunction) -> FormalClass:
    """The boundary value: -(1/(N k!)) sum_{b != 0} psi(0, b) ctilde_{k+1}(zeta_N^b).

    Requires residue(Eis^k(psi)) = 0.
    """
    rho = psi_residue(psi)
    if rho:
        raise ResiduePreconditionError(rho)
    k, N = psi.k, psi.N
    row = _cyc_row(k, N)
    out: dict[Symbol, int] = {}
    for b in range(1, N):
        v = psi.num.get((0, b))
        if v:
            out[row[b]] = -v
    return FormalClass._make(out, N * factorial(k) * psi.den)


def _check_me_factor(N: int, c: int) -> None:
    """The me route's rule for c at level N: c == 1 mod N, c > 1, gcd(c, 6N) = 1."""
    if c % N != 1 % N:  # at N = 1 every c is 1 mod N
        raise ValueError(f"need c == 1 mod N (got c = {c}, N = {N})")
    if c <= 1 or gcd(c, 6 * N) != 1:
        raise ValueError(f"need c > 1 with gcd(c, 6N) = gcd({c}, {6 * N}) = 1")


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

    The sum is accumulated in ints, scaled by 2 den * 2 k! N^k * c^k, and the
    smoothing factor is divided out in the class's one denominator:
    -N^{k-1} c^k / (c^{k+2} - 1) / (4 den k! N^k c^k)
    = -1 / (4 den k! N (c^{k+2} - 1)).
    """
    k, N = psi.k, psi.N
    _check_me_factor(N, c)
    rho = psi_residue(psi)
    if rho:
        raise ResiduePreconditionError(rho)
    sign = (-1) ** k
    ck2 = c ** (k + 2)
    num = psi.num
    acc = [0] * N  # acc[b]: the coefficient of ct_b
    for b in range(1, N):
        # 2 den psi_k(0, b)
        w = num.get((0, b), 0) + sign * num.get((0, N - b), 0)
        if not w:
            continue
        cb = c * b % N
        v = w * ck2
        acc[b] += v
        acc[N - b] += v * sign
        acc[cb] -= w
        acc[N - cb] -= w * sign
    den = 4 * psi.den * factorial(k) * N * (ck2 - 1)
    row = _cyc_row(k, N)
    return FormalClass._make({row[b]: -v for b, v in enumerate(acc) if v}, den)


def cyc_symmetrize(x: FormalClass, k: int) -> FormalClass:
    """Coefficient symmetrization lambda_b -> (lambda_b + (-1)^k lambda_{-b})/2
    on the cyclotomic span (the formal parity substitution for raw psi)."""
    sign = (-1) ** k
    out: dict[Symbol, int] = {}
    for sym, v in x.num.items():
        if not isinstance(sym, CycSym):
            raise ValueError("cyc_symmetrize acts on the cyclotomic span")
        out[sym] = out.get(sym, 0) + v
        mirror = _cyc_row(sym.k, sym.N)[(-sym.b) % sym.N]
        out[mirror] = out.get(mirror, 0) + sign * v
    return FormalClass._make(out, 2 * x.den)


def _small_table(N: int) -> ValueError:
    """The refusal of a level N below 2, for `residue_table` and the
    `residue-table` door to raise."""
    return ValueError(f"residue tables need N >= 2, got N = {N}")


def residue_table(N: int, k: int) -> list[tuple[int, int, Fraction]]:
    """Rows (a, b, res(Eis^k(a, b))) over all t != 0, sorted; needs N >= 2
    and k >= 0 (`eis_residue_closed` checks k and N, once).  The residue
    depends on a only, so it is read once per a."""
    if N < 2:
        raise _small_table(N)
    eis_residue_closed(k, N, (0, 1))
    rows = []
    for a in range(N):
        res = _eis_residue(k, N, a)
        rows += [(a, b, res) for b in range(N) if a or b]
    return rows


@lru_cache(maxsize=16)
def _points(N: int) -> tuple[tuple[int, int], ...]:
    """The nonzero points of (Z/N)^2, in lexicographic order (N^2 - 1 of
    them, so only the last few levels are kept)."""
    return tuple((a, b) for a in range(N) for b in range(N) if (a, b) != (0, 0))


@lru_cache(maxsize=64)
def _generator_plan(k: int, N: int) -> tuple:
    """(others, R_row, t*, R*, den) for `random_residue_zero_psi` at (k, N):
    the nonzero points other than the pivot t* in lexicographic order, their
    residue coefficients R[a] in that order, t* (the first point with a != 0
    and R[a] != 0; None when every R[a] is 0), R* = R[a*] and den = |R*|
    (1 without a pivot)."""
    R, _ = _residue_ints(k, N)
    points = _points(N)
    t_star = next((t for t in points if t[0] != 0 and R[t[0]]), None)
    if t_star is None and any(R):
        raise ValueError(f"no usable pivot for N={N}, k={k}")
    others = tuple(t for t in points if t != t_star)
    R_star = R[t_star[0]] if t_star else None
    den = abs(R_star) if t_star else 1
    return others, tuple(R[a] for a, _ in others), t_star, R_star, den


def random_residue_zero_psi(N: int, k: int, rng: Random, parity: bool = True) -> WeightFunction:
    """A random weight function with residue(Eis^k(psi)) = 0.

    k and N must be as `WeightFunction` takes them: ints (not bools) k >= 0
    and N >= 1 (ValueError).  All but one value are drawn uniformly from
    [-20, 20]; the last is solved exactly at a point t* (with a* != 0 and
    nonzero residue coefficient) so the single linear residue constraint
    holds.  When every residue coefficient is 0 (N = 2 at odd k, where
    B_{k+2} vanishes at 0 and 1/2), every value is drawn and there is no t*.
    With parity=True the drawn numerators are parity-projected before the
    one reduction to lowest terms (the result equals `parity_project` of
    the raw draw, and the projection preserves the residue), so the function
    has exact parity (-1)^k.

    Each value is drawn as `rng.randrange(-20, 21)` draws it (getrandbits(6),
    drawn again while it is >= 41), so the values and the state of rng
    afterwards are the same.
    """
    _check_psi_kN(k, N)
    others, R_row, t_star, R_star, den = _generator_plan(k, N)
    getrandbits = rng.getrandbits
    vals = []
    for _ in others:
        v = getrandbits(6)
        while v >= 41:
            v = getrandbits(6)
        vals.append(v - 20)
    num = dict(zip(others, [v * den for v in vals]))
    if t_star:
        # psi(t*) = -sum_{t != t*} psi(t) R[a] / R[a*], over den = |R[a*]|
        num[t_star] = -sum(map(mul, vals, R_row)) * den // R_star
    if parity:
        return WeightFunction._from_num(k, N, _parity_num(k, N, num), 2 * den)
    return WeightFunction._from_num(k, N, num, den)
