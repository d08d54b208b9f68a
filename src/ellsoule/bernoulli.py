"""Bernoulli polynomials and the c-smoothed second-Bernoulli measures.

The level-(ell^r N) measure attached to a smoothing integer c with
gcd(c, ell*N) = 1 assigns to a residue x the exact rational

    B(x) = (M/2) * (c^2 B_2({x/M}) - B_2({c x/M})),      M = ell^r N,

which is an integer whenever gcd(c, 6) = 1 as well.  Restricted to a fiber
{x == t mod N} this is a measure on the level-r torsor; the family over r is
compatible under the trace maps (the distribution relation of B_2), and its
degree-k torsor moments satisfy the congruence

    mom^k == N^{k+1}/(c^k (k+2)) * (c^{k+2} B_{k+2}({t/N}) - B_{k+2}({c t/N}))
                                                          (mod ell^r),

whose right side is the closed moment formula implemented here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .measures import Measure, TorsorSpec, torsor_elements
from .numutil import _coord, _int, exact_rational

__all__ = [
    "bernoulli_poly",
    "bern_eval",
    "smoothed_b2",
    "bernoulli_measure",
    "bernoulli_moment_closed",
]


@lru_cache(maxsize=None)
def bernoulli_poly(k: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the k-th Bernoulli polynomial B_k(x).

    Defined by B_0 = 1 and the recurrence
    sum_{j=0}^{k} C(k+1, j) B_j(x) = (k+1) x^k.
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    if k == 0:
        return (Fraction(1),)
    coeffs = [Fraction(0)] * (k + 1)
    coeffs[k] = Fraction(k + 1)  # (k+1) x^k
    for j in range(k):
        bj = bernoulli_poly(j)
        w = comb(k + 1, j)
        for i, c in enumerate(bj):
            coeffs[i] -= w * c
    return tuple(c / (k + 1) for c in coeffs)


def bern_eval(k: int, x) -> Fraction:
    """B_k evaluated at an exact rational (a float or bool raises TypeError)."""
    x = exact_rational(x)
    acc = Fraction(0)
    for c in reversed(bernoulli_poly(k)):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def _bern_ints(n: int) -> tuple[tuple[int, ...], int]:
    """(b, D) with B_n(x) = sum b_i x^i / D: int numerators over the least
    common denominator D of B_n's coefficients."""
    coeffs = bernoulli_poly(n)
    D = lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (D // c.denominator) for c in coeffs), D


def _bern_num(b: tuple[int, ...], a: int, N: int) -> int:
    """R(a, N) = sum b_i a^i N^{n-i} for (b, D) = _bern_ints(n), so that
    B_n(a/N) = R(a, N) / (D N^n); an int Horner sum.  Every closed Bernoulli
    value is read through here, with a = t mod N for B_n({t/N})."""
    acc, p = b[-1], 1
    for bi in b[-2::-1]:
        p *= N
        acc = acc * a + bi * p
    return acc


def smoothed_b2(M: int, c: int, x: int) -> Fraction:
    """(M/2) * (c^2 B_2({x/M}) - B_2({c x/M})): the degree-0 closed moment."""
    return bernoulli_moment_closed(0, M, c, x)


def bernoulli_measure(ell: int, r: int, N: int, c: int, t: int) -> Measure:
    """The c-smoothed Bernoulli measure on the rank-1 fiber over t.

    Values are exact rationals; they are integers when gcd(c, 6) = 1 too,
    and that is asserted (ell-integrality is what reduce_mod checks later).
    """
    if gcd(c, ell * N) != 1:
        raise ValueError(f"gcd(c, ell*N) = gcd({c}, {ell * N}) != 1")
    spec = TorsorSpec(ell, r, N, 1, "reduction", (t,))
    M = spec.modulus
    integral = gcd(c, 6) == 1
    values = {}
    for x in torsor_elements(spec):
        v = smoothed_b2(M, c, x[0])
        if integral and v.denominator != 1:
            raise AssertionError(
                f"value {v} at {x} not integral despite gcd(c, 6*ell*N) = 1"
            )
        values[x] = v
    return Measure._make(spec, values)


def _moment_ints(k: int, N: int, c: int, a: int) -> tuple[int, int]:
    """(n, d) with the closed moment at a = n / (c^k d), for ints k >= -1,
    N >= 1 and 0 <= a < N: n = c^{k+2} R(a) - R(c a) and d = (k+2) D N,
    with B_{k+2}({a/N}) = R(a, N) / (D N^{k+2})."""
    b, D = _bern_ints(k + 2)
    return c ** (k + 2) * _bern_num(b, a, N) - _bern_num(b, c * a % N, N), (k + 2) * D * N


def bernoulli_moment_closed(k: int, N: int, c: int, t: int) -> Fraction:
    """Closed form of the limit degree-k moment over the fiber at t (the
    right side of the congruence above); smoothed_b2 is its k = 0 case.

    With B_{k+2}({a/N}) = R(a, N) / (D N^{k+2}) it is the one fraction
    (c^{k+2} R(t) - R(c t)) / (c^k (k+2) D N).  k, N, c and t must be ints
    (a float or a bool raises TypeError); k >= -1 (at k = -2 the factor
    1/(k+2) has no value), N >= 1, and c != 0 unless k = 0 (c^k divides),
    else ValueError naming the argument.
    """
    k, N, c = _int(k, "k"), _int(N, "N"), _int(c, "c")
    if k < -1:
        raise ValueError(f"k = {k} must be >= -1")
    if N < 1:
        raise ValueError(f"level N = {N} must be >= 1")
    if c == 0 and k:
        raise ValueError(f"c = 0 has no power c^{k} to divide by")
    n, d = _moment_ints(k, N, c, _coord(t, N))
    if k < 0:  # c^k = 1/c: keep the value exact
        return Fraction(n * c, d)
    return Fraction(n, c ** k * d)
