"""Truncated Laurent–Puiseux series with exact cyclotomic coefficients.

A series is a finite map n -> a_n (a_n in Q(zeta_M), n an integer exponent
meaning q^{n/M}) together with a truncation window T: it represents

    f = sum_{n < T} a_n q^{n/M} + O(q^{T/M}).

Every series carries its own window, and a product takes the tightest
window that is still sound, min(T_f + val_lb(g), T_g + val_lb(f)) with
val_lb the least stored exponent (or the window itself when no term is
stored), so products of many unit factors track precision automatically.
The library only multiplies series: there is no sum, inverse or negative
power.

Negative exponents are allowed; zero coefficients are never stored, so the
zero series is the empty map and representations are canonical.

A product accumulates before it reduces: each operand's coordinates are put
over one int denominator, every term pair that lands below the window adds
its coordinate convolution into one unreduced int row per output exponent,
and each row is reduced mod Phi_M and put in lowest terms once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .cyclotomic import CycloElement, _make, _reduce, euler_phi

__all__ = ["PuiseuxSeries"]


def _int_terms(terms: dict[int, CycloElement], bound: int):
    """The terms with exponent below `bound`, ascending, each as its int
    numerators over one common denominator (returned too)."""
    kept = sorted((n, c) for n, c in terms.items() if n < bound)
    den = 1
    for _, c in kept:
        den = den // gcd(den, c.den) * c.den
    return [
        (n, c.num if c.den == den else [a * (den // c.den) for a in c.num])
        for n, c in kept
    ], den


class PuiseuxSeries:
    """Truncated Laurent–Puiseux series over Q(zeta_M) in q^{1/M}."""

    __slots__ = ("M", "T", "terms")

    def __init__(self, M: int, T: int, terms: dict[int, CycloElement]):
        if M < 1:
            raise ValueError("exponent denominator must be positive")
        clean: dict[int, CycloElement] = {}
        for n, c in terms.items():
            if n >= T:
                continue
            if not isinstance(c, CycloElement):
                c = CycloElement.rational(M, c)
            if c.M != M:
                raise ValueError("coefficient conductor must equal series M")
            if not c.is_zero():
                clean[n] = c
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("PuiseuxSeries is immutable")

    # -- inspection -------------------------------------------------------
    def val_lb(self) -> int:
        """Least stored exponent, or T when no terms are stored."""
        return min(self.terms) if self.terms else self.T

    def valuation(self) -> Fraction:
        """The least exponent with nonzero coefficient, as n/M."""
        if not self.terms:
            raise ValueError("series is zero to its truncation order")
        return Fraction(min(self.terms), self.M)

    def constant_term(self) -> CycloElement:
        return self.terms.get(0, CycloElement.rational(self.M, 0))

    def coeff(self, n: int) -> CycloElement:
        return self.terms.get(n, CycloElement.rational(self.M, 0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (
            self.M == other.M and self.T == other.T and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.M, self.T, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        bits = [
            f"({c!r})*q^({n}/{self.M})"
            for n, c in sorted(self.terms.items())
        ]
        body = " + ".join(bits) if bits else "0"
        return f"{body} + O(q^({self.T}/{self.M}))"

    # -- conductor management --------------------------------------------
    def rescale(self, M2: int) -> "PuiseuxSeries":
        """Re-express in q^{1/M2} for M | M2 (exponents and window scale by
        M2/M; coefficients embed into Q(zeta_M2))."""
        if M2 % self.M != 0:
            raise ValueError(f"{self.M} does not divide {M2}")
        s = M2 // self.M
        if s == 1:
            return self
        return PuiseuxSeries(
            M2, self.T * s, {n * s: c.embed(M2) for n, c in self.terms.items()}
        )

    def _common(self, other: "PuiseuxSeries"):
        M2 = lcm(self.M, other.M)
        return self.rescale(M2), other.rescale(M2)

    # -- arithmetic --------------------------------------------------------
    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        f, g = self._common(other)
        T = min(f.T + g.val_lb(), g.T + f.val_lb())
        M = f.M
        phi = euler_phi(M)
        width = 2 * phi - 1
        a_terms, a_den = _int_terms(f.terms, T - g.val_lb())
        b_terms, b_den = _int_terms(g.terms, T - f.val_lb())
        b_terms = [(n, [(j, b) for j, b in enumerate(num) if b]) for n, num in b_terms]
        # one unreduced convolution row per output exponent, over the common
        # denominator a_den * b_den; reduced and normalised once at the end
        rows: dict[int, list[int]] = {}
        for n1, num in a_terms:
            a = [(i, ai) for i, ai in enumerate(num) if ai]
            for n2, b in b_terms:
                n = n1 + n2
                if n >= T:
                    break  # b_terms ascend in n2
                row = rows.get(n)
                if row is None:
                    row = rows[n] = [0] * width
                for i, ai in a:
                    for j, bj in b:
                        row[i + j] += ai * bj
        den = a_den * b_den
        return PuiseuxSeries(
            M, T, {n: _make(M, _reduce(M, phi, row), den) for n, row in rows.items()}
        )

    def shift(self, n0: int) -> "PuiseuxSeries":
        """Multiply by the exact monomial q^{n0/M}."""
        return PuiseuxSeries(
            self.M, self.T + n0, {n + n0: c for n, c in self.terms.items()}
        )

    def __pow__(self, k: int) -> "PuiseuxSeries":
        if k < 0:
            raise ValueError(f"exponent {k} must be >= 0")
        # power by repeated squaring; window bookkeeping is handled by mul
        base = self
        acc = None
        n = k
        while n:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if n:
                base = base * base
        if acc is None:
            # k == 0: exact 1 with the window of self as a safe default
            return PuiseuxSeries(self.M, self.T, {0: 1})
        return acc
