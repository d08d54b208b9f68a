"""Graded divided-power algebra of symmetric tensors, rank 1 or 2.

Degree-k component has basis e^{[n]} = e_1^{[n_1]} ... e_d^{[n_d]} over
exponent tuples with |n| = k.  The two structural laws are

    (g + h)^{[k]} = sum_{m+n=k} g^{[m]} h^{[n]}          (addition)
    e^{[a]} * e^{[b]} = prod_i C(a_i + b_i, a_i) e^{[a+b]} (product)

so the algebra is integrally distinct from the symmetric algebra: the map
from Sym sends e_1^{n_1}...e_d^{n_d} to (prod_i n_i!) e^{[n]}.

Coefficients live over Z, Q, or Z/m (ring tags "Z", "Q", "Z/<m>"); reduction
mod m commutes with the product, and no operation ever divides.
"""

from __future__ import annotations

from math import comb, factorial, gcd

from .numutil import _int, _rational, _Value, exact_rational

__all__ = [
    "TSym",
    "divided_power",
    "sym_to_tsym",
    "tsym_map",
    "exponent_tuples",
]


def _ring_normalize(ring: str, c):
    """Coerce an exact rational coefficient into the given ring's canonical form."""
    if ring == "Q":
        return _rational(c)
    if type(c) is not int:  # an int is already exact and needs no Fraction
        c = exact_rational(c)
    if ring == "Z":
        if c.denominator != 1:
            raise ValueError(f"{c} is not an integer")
        return c.numerator
    if ring.startswith("Z/"):
        m = int(ring[2:])
        if gcd(c.denominator, m) != 1:
            raise ArithmeticError(f"denominator of {c} not invertible mod {m}")
        return (c.numerator * pow(c.denominator, -1, m)) % m
    raise ValueError(f"unknown ring tag {ring!r}")


def _clean(ring: str, terms: dict) -> dict:
    """terms with each coefficient normalized into the ring, zeros dropped."""
    out = {}
    for n, c in terms.items():
        c = _ring_normalize(ring, c)
        if c:
            out[n] = c
    return out


def exponent_tuples(d: int, k: int) -> list[tuple[int, ...]]:
    """All exponent tuples of length d with entries >= 0 summing to k.

    Needs d >= 1 and k >= 0: there is no tuple of length 0, and none with
    entries >= 0 sums to a negative k.
    """
    if d < 1:
        raise ValueError(f"exponent tuples need length d >= 1, got {d}")
    if k < 0:
        raise ValueError(f"exponent tuples need degree k >= 0, got {k}")
    if d == 1:
        return [(k,)]
    out = []
    for first in range(k + 1):
        for rest in exponent_tuples(d - 1, k - first):
            out.append((first,) + rest)
    return out


class TSym(_Value):
    """An element of the truncated divided-power algebra, rank d over a ring.

    terms maps an exponent tuple n to the coefficient of e^{[n]}, whose
    degree is sum(n); zero coefficients are dropped, so representations are
    canonical.  Over "Z" and "Z/m" a coefficient is an int (in [0, m) for
    "Z/m"); over "Q" it is an int when integral, otherwise a Fraction in
    lowest terms, so products and sums of integral elements stay in int
    arithmetic (an int and a Fraction compare and hash equal).
    """

    __slots__ = ("d", "ring", "terms")

    def __init__(self, d: int, ring: str, terms: dict[tuple[int, ...], object]):
        if _int(d, "rank d") not in (1, 2):
            raise ValueError("rank must be 1 or 2")
        for n in terms:
            if not (
                type(n) is tuple
                and len(n) == d
                and all(type(x) is int and x >= 0 for x in n)
            ):
                raise ValueError(f"bad exponent tuple {n!r} for rank {d}")
        _set_d(self, d)
        _set_ring(self, ring)
        _set_terms(self, _clean(ring, terms))

    @classmethod
    def _make(cls, d: int, ring: str, terms: dict) -> "TSym":
        """TSym(d, ring, terms) without the checks on d and the exponent
        tuples, for terms built from checked values (or from
        `exponent_tuples`); the coefficients are still normalized into the
        ring, so a float or bool among them still raises TypeError."""
        x = object.__new__(cls)
        _set_d(x, d)
        _set_ring(x, ring)
        _set_terms(x, _clean(ring, terms))
        return x

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zero(d: int, ring: str = "Q") -> "TSym":
        return TSym(d, ring, {})

    @staticmethod
    def one(d: int, ring: str = "Q") -> "TSym":
        return TSym(d, ring, {(0,) * d: 1})

    @staticmethod
    def basis(d: int, n: tuple[int, ...], ring: str = "Q", coeff=1) -> "TSym":
        """coeff * e^{[n]}."""
        return TSym(d, ring, {tuple(n): coeff})

    # -- structure ---------------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def coeff(self, n: tuple[int, ...]):
        return self.terms.get(tuple(n), 0)

    def __repr__(self):
        body = ", ".join(f"{n}: {c}" for n, c in sorted(self.terms.items()))
        return f"TSym({self.d}, {self.ring!r}, {{{body}}})"

    # -- linear structure ---------------------------------------------------
    def _check(self, other: "TSym"):
        if self.d != other.d or self.ring != other.ring:
            raise ValueError("rank/ring mismatch")

    def __add__(self, other: "TSym") -> "TSym":
        self._check(other)
        terms = dict(self.terms)
        for n, c in other.terms.items():
            terms[n] = terms.get(n, 0) + c
        return TSym._make(self.d, self.ring, terms)

    def __neg__(self) -> "TSym":
        return TSym._make(self.d, self.ring, {n: -c for n, c in self.terms.items()})

    def __sub__(self, other: "TSym") -> "TSym":
        return self + (-other)

    def scale(self, c) -> "TSym":
        c = _rational(c)
        return TSym._make(self.d, self.ring, {n: v * c for n, v in self.terms.items()})

    # -- the divided-power product ------------------------------------------
    def __mul__(self, other: "TSym") -> "TSym":
        self._check(other)
        terms: dict[tuple[int, ...], object] = {}
        for n1, c1 in self.terms.items():
            for n2, c2 in other.terms.items():
                n = tuple(a + b for a, b in zip(n1, n2))
                w = 1
                for a, b in zip(n1, n2):
                    w *= comb(a + b, a)
                terms[n] = terms.get(n, 0) + c1 * c2 * w
        return TSym._make(self.d, self.ring, terms)

    # -- base change ----------------------------------------------------------
    def base_change(self, ring: str) -> "TSym":
        """Move coefficients into another ring (Z -> Q, Z -> Z/m, Q -> Z/m
        when denominators are invertible)."""
        return TSym._make(self.d, ring, self.terms)


_set_d, _set_ring, _set_terms = TSym._setters


def divided_power(coords, k: int, ring: str = "Q") -> TSym:
    """h^{[k]} for a degree-1 element h = sum coords_i e_i, of rank len(coords).

    Equals sum_{|n|=k} (prod_i coords_i^{n_i}) e^{[n]}, the unique extension
    of the addition law (g+h)^{[k]} = sum g^{[m]} h^{[n]}.  A coordinate is
    checked as a coefficient is: a float or a bool raises TypeError.
    """
    coords = tuple(map(_rational, coords))
    d = len(coords)
    tuples = exponent_tuples(d, k)  # refuses d < 1 and k < 0
    if d > 2:
        raise ValueError("rank must be 1 or 2")
    terms = {}
    for n in tuples:
        c = 1
        for x, e in zip(coords, n):
            if e:
                c = c * (x ** e)
        terms[n] = c
    return TSym._make(d, ring, terms)


def sym_to_tsym(monomial: tuple[int, ...]) -> TSym:
    """Image of e_1^{n_1}...e_d^{n_d} under the algebra map from Sym.

    The map is the ring homomorphism fixing degree one, which forces the
    coefficient prod_i n_i! on the divided-power basis vector e^{[n]}.
    """
    n = tuple(monomial)
    w = 1
    for e in n:
        w *= factorial(e)
    return TSym.basis(len(n), n, coeff=w)


def tsym_map(phi, a: TSym) -> TSym:
    """The induced map TSym(phi) for phi a scalar or a d'-by-d integer matrix.

    A scalar c multiplies the degree-k component by c^k.  A matrix phi sends
    e_j^{[1]} to sum_i phi[i][j] e_i^{[1]} and basis vectors to divided-power
    products of the column images, which is the functorial map on symmetric
    tensors.  A bool scalar or matrix entry raises TypeError.
    """
    if isinstance(phi, bool):
        raise TypeError("tsym_map needs an int scalar or an integer matrix, got bool")
    if isinstance(phi, int):
        return TSym._make(a.d, a.ring, {n: c * phi ** sum(n) for n, c in a.terms.items()})
    rows = [list(r) for r in phi]
    if any(isinstance(x, bool) for r in rows for x in r):
        raise TypeError("tsym_map matrix entries must be ints, not bools")
    d_out = len(rows)
    d_in = len(rows[0]) if rows else 0
    if d_in != a.d:
        raise ValueError("matrix shape does not match element rank")
    columns = [tuple(rows[i][j] for i in range(d_out)) for j in range(d_in)]
    out = TSym.zero(d_out, a.ring)
    for n, c in a.terms.items():
        img = TSym.one(d_out, a.ring)
        for j, e in enumerate(n):
            if e:
                img = img * divided_power(columns[j], e, a.ring)
        out = out + img.scale(c)
    return out
