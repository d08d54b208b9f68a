"""Exact cyclotomic field arithmetic.

Elements of Q(zeta_M) are stored as the unique reduced residue modulo the
M-th cyclotomic polynomial Phi_M: phi(M) rational coordinates
(a_0, ..., a_{phi(M)-1}) representing sum a_i zeta_M^i.  Reduction mod Phi_M
(rather than mod x^M - 1) makes equality of coordinates equality in the
field, which every series-coefficient comparison in this package relies on.

The coordinates are stored as a tuple of int numerators `num` over one
positive int denominator `den`, in lowest terms (gcd(den, *num) == 1), so
equality and hashing compare the representation directly; `coeffs` gives
them as `Fraction`s.  Ring operations run in int arithmetic, and every
reduction uses one table of x^k mod Phi_M for 0 <= k < M: its rows are
integral because Phi_M is monic, and zeta^M = 1 folds any exponent into
that range.  The tables of the last `_XPOW_LEVELS` levels used are cached.

The only denominators the library meets are elements 1 - zeta^w, so there
is no general field inverse, no `/` and no negative power: the closed forms
`one_minus_zeta_inverse` and `one_minus_zeta_pow` give (1 - zeta^w)^{-1} and
(1 - zeta^w)^k with one reduction of M folded terms each.

All arithmetic is pure and exact; no floats, no complex embeddings.  Every
coordinate enters through `_rat`, which accepts int and `Fraction` only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .numutil import exact_rational

__all__ = [
    "cyclo_poly",
    "euler_phi",
    "CycloElement",
]


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("phi is defined for positive integers")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


@lru_cache(maxsize=None)
def cyclo_poly(M: int) -> tuple[int, ...]:
    """The M-th cyclotomic polynomial Phi_M, ascending integer coefficients.

    x^M - 1 divided exactly by the monic Phi_d of each proper divisor d,
    by long division from the top coefficient down.
    """
    if M < 1:
        raise ValueError("conductor must be positive")
    num = [-1] + [0] * (M - 1) + [1]
    for d in range(1, M):
        if M % d == 0:
            den = cyclo_poly(d)
            n = len(den) - 1
            quo = [0] * (len(num) - n)
            for pos in reversed(range(len(quo))):
                c = quo[pos] = num[pos + n]
                if c:
                    for i, dc in enumerate(den):
                        num[pos + i] -= c * dc
            if any(num):
                raise ArithmeticError(f"Phi_{d} does not divide x^{M} - 1")
            num = quo
    return tuple(num)


def _rat(x) -> tuple[int, int]:
    """(numerator, positive denominator) of an exact rational.

    The single entry point for coordinates; anything `exact_rational`
    rejects (floats, bools, other types) raises TypeError.
    """
    if type(x) is int:
        return x, 1
    x = exact_rational(x)
    return x.numerator, x.denominator


def _common_den(coeffs) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of `coeffs`."""
    pairs = [_rat(c) for c in coeffs]
    den = 1
    for _, d in pairs:
        den = den // gcd(den, d) * d
    return [n * (den // d) for n, d in pairs], den


# Levels whose x^k mod Phi_M table is kept.  A table holds M rows, dense at
# composite levels (5.7 MB at M = 935), so an unbounded cache grows with
# every level a process meets; one computation touches a few levels (M and
# dM in a norm check), far fewer than this.
_XPOW_LEVELS = 8


@lru_cache(maxsize=_XPOW_LEVELS)
def _xpow(M: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^k mod Phi_M for 0 <= k < M, each row as its nonzero (index, coeff) pairs."""
    phi_poly = cyclo_poly(M)
    phi = len(phi_poly) - 1
    rows = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(M):
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
        # multiply by x, then reduce the single overflow term via
        # x^phi = -(phi_poly[0] + ... + phi_poly[phi-1] x^{phi-1})
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(phi):
                cur[i] -= top * phi_poly[i]
    return tuple(rows)


def _reduce(M: int, phi: int, poly: list[int]) -> list[int]:
    """Reduce integer coefficients of zeta_M^0, zeta_M^1, ... modulo Phi_M."""
    out = poly[:phi]
    out += [0] * (phi - len(out))
    if len(poly) > phi:
        rows = _xpow(M)
        for k in range(phi, len(poly)):
            c = poly[k]
            if c:
                for i, r in rows[k % M]:
                    out[i] += c * r
    return out


def _make(M: int, num, den: int) -> "CycloElement":
    """Element with coordinates num/den (den > 0), put in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    self = object.__new__(CycloElement)
    _set_M(self, M)
    _set_num(self, tuple(num))
    _set_den(self, den)
    return self


class CycloElement:
    """An element of Q(zeta_M), reduced modulo Phi_M."""

    __slots__ = ("M", "num", "den")

    def __init__(self, M: int, coeffs):
        phi = euler_phi(M)
        num, den = _common_den(coeffs)
        if len(num) != phi:
            raise ValueError(f"need {phi} coordinates for conductor {M}")
        _set_M(self, M)
        _set_num(self, tuple(num))
        _set_den(self, den)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("CycloElement is immutable")

    def __reduce__(self):
        return CycloElement, (self.M, self.coeffs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The phi(M) coordinates as `Fraction`s."""
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_poly(M: int, coeffs) -> "CycloElement":
        """Build from arbitrary-length zeta_M-power coefficients."""
        num, den = _common_den(coeffs)
        return _make(M, _reduce(M, euler_phi(M), num), den)

    @staticmethod
    def rational(M: int, x) -> "CycloElement":
        n, d = _rat(x)
        return _make(M, (n,) + (0,) * (euler_phi(M) - 1), d)

    @staticmethod
    def zeta_pow(M: int, k: int) -> "CycloElement":
        num = [0] * euler_phi(M)
        for i, r in _xpow(M)[k % M]:
            num[i] = r
        return _make(M, num, 1)

    @staticmethod
    def one_minus_zeta_pow(M: int, w: int, k: int) -> "CycloElement":
        """(1 - zeta_M^w)^k for k >= 0 by the binomial theorem:
        sum_{i<=k} (-1)^i C(k, i) zeta^{wi}, folded mod M and reduced once."""
        if k < 0:
            raise ValueError(f"exponent {k} must be >= 0; see one_minus_zeta_inverse")
        poly = [0] * M
        b = 1  # (-1)^i C(k, i)
        for i in range(k + 1):
            poly[w * i % M] += b
            b = -b * (k - i) // (i + 1)
        return _make(M, _reduce(M, euler_phi(M), poly), 1)

    @staticmethod
    def one_minus_zeta_inverse(M: int, w: int) -> "CycloElement":
        """(1 - zeta_M^w)^{-1} in closed form, for w != 0 mod M.

        zeta = zeta_M^w has order m = M / gcd(w, M) > 1, and
        sum_{j<m} j zeta^j = m / (zeta - 1), so
        (1 - zeta)^{-1} = -(1/m) sum_{j<m} j zeta^j.
        """
        w %= M
        if not w:
            raise ZeroDivisionError("1 - zeta^0 = 0 has no inverse")
        m = M // gcd(w, M)
        poly = [0] * M
        for j in range(1, m):
            poly[j * w % M] = -j
        return _make(M, _reduce(M, euler_phi(M), poly), m)

    # -- structure ----------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloElement):
            return NotImplemented
        return self.M == other.M and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.M, self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    # -- ring operations ----------------------------------------------
    def _coerce(self, other) -> "CycloElement":
        if isinstance(other, CycloElement):
            if other.M != self.M:
                raise ValueError("conductor mismatch; embed explicitly")
            return other
        return CycloElement.rational(self.M, other)

    def __add__(self, other):
        other = self._coerce(other)
        da, db = self.den, other.den
        if da == db:
            return _make(self.M, [a + b for a, b in zip(self.num, other.num)], da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _make(
            self.M, [a * fa + b * fb for a, b in zip(self.num, other.num)], da * fa
        )

    __radd__ = __add__

    def __neg__(self):
        return _make(self.M, [-a for a in self.num], self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, CycloElement):
            n, d = _rat(other)
            return _make(self.M, [a * n for a in self.num], self.den * d)
        other = self._coerce(other)
        a, b = self.num, other.num
        phi = len(a)
        nz_b = [(j, bj) for j, bj in enumerate(b) if bj]
        conv = [0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in nz_b:
                    conv[i + j] += ai * bj
        return _make(self.M, _reduce(self.M, phi, conv), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CycloElement":
        if n < 0:
            raise ValueError(f"exponent {n} must be >= 0; see one_minus_zeta_inverse")
        result = CycloElement.rational(self.M, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- field maps -----------------------------------------------------
    def embed(self, M2: int) -> "CycloElement":
        """Ring embedding Q(zeta_M) -> Q(zeta_M2), zeta_M -> zeta_M2^{M2/M}."""
        if M2 % self.M != 0:
            raise ValueError(f"{self.M} does not divide {M2}")
        s = M2 // self.M
        big = [0] * ((len(self.num) - 1) * s + 1)
        big[::s] = self.num
        return _make(M2, _reduce(M2, euler_phi(M2), big), self.den)

    def galois(self, u: int) -> "CycloElement":
        """The automorphism determined by zeta_M -> zeta_M^u, gcd(u, M) = 1."""
        M = self.M
        if gcd(u, M) != 1:
            raise ValueError(f"{u} is not coprime to {M}")
        big = [0] * M
        for i, c in enumerate(self.num):
            big[(i * u) % M] = c
        return _make(M, _reduce(M, len(self.num), big), self.den)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z{self.M}")
            else:
                terms.append(f"{c}*z{self.M}^{i}")
        return " + ".join(terms) if terms else "0"


# slot setters: immutable elements are built without going through __setattr__
_set_M = CycloElement.M.__set__
_set_num = CycloElement.num.__set__
_set_den = CycloElement.den.__set__

