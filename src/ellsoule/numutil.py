"""Small integer/rational helpers shared across the package, and `_Value`,
the base of every immutable value type."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import attrgetter


def is_prime(n: int) -> bool:
    """Deterministic primality test for the small moduli used here."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % p == 0:
            return n == p
    d = 37
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer n, for p >= 2."""
    if p < 2:
        raise ValueError(f"valuation needs p >= 2, got {p}")
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def exact_rational(x) -> Fraction:
    """x as a `Fraction`, for x an int or a `Fraction`.

    The check at every exact entry point: a float would carry binary rounding
    in and a bool is not a number here, so these and every other type raise
    TypeError.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"exact rational (int or Fraction) required, got {type(x).__name__}")
    return Fraction(x)


def _rational(x) -> int | Fraction:
    """x checked as by `exact_rational`, in its canonical stored form: an int
    when x is integral, otherwise a Fraction (in lowest terms)."""
    if type(x) is int:
        return x
    x = exact_rational(x)
    return x.numerator if x.denominator == 1 else x


def _int(v, what: str) -> int:
    """v, which must be an int: a float or a bool would be truncated or read
    as 0 or 1."""
    if type(v) is int:
        return v
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"{what} {v!r} must be an int, got {type(v).__name__}")
    return v


def _coord(v, M: int) -> int:
    """A torsion coordinate reduced mod M; it must be an int, since a float
    or a bool would be truncated to a different point."""
    return _int(v, "coordinate") % M


def _point(p, M: int) -> tuple[int, int]:
    """A torsion point (x, y), each coordinate put through `_coord`; a point
    of any other length raises ValueError, since reading p[0] and p[1] would
    drop or miss a coordinate."""
    if len(p) != 2:
        raise ValueError(f"torsion point {p!r} must have two coordinates")
    return _coord(p[0], M), _coord(p[1], M)


class _Value:
    """Base of every immutable value type.

    A subclass's public `__slots__` are its fields, in order; a slot with a
    leading underscore is a cache, which starts as None and which `==`,
    `hash` and pickling ignore.  `_setters` holds the fields' slot setters
    (a hot constructor unpacks them once, at module level), and `_fix`
    stores the fields through them.  Setting or deleting an attribute
    raises AttributeError.  `==` compares the field tuples within one
    class, `hash` hashes the field tuple (a dict field as the frozenset of
    its items), and pickling and copies rebuild from the field tuple.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        fields = cls._names = tuple(n for n in names if n[0] != "_")
        cls._setters = tuple(getattr(cls, n).__set__ for n in fields)
        cls._caches = tuple(getattr(cls, n).__set__ for n in names if n[0] == "_")
        # x._fields(x) is the field tuple, built in C by attrgetter (which
        # gives a bare value, not a tuple, for one name)
        cls._fields = staticmethod(
            attrgetter(*fields) if len(fields) > 1
            else lambda x: tuple(getattr(x, n) for n in fields)
        )

    def _fix(self, *values) -> None:
        for store, v in zip(self._setters, values):
            store(self, v)
        for store in self._caches:
            store(self, None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._fields
        return get(self) == get(other)

    def __hash__(self):
        fields = self._fields(self)
        return hash(tuple([frozenset(v.items()) if type(v) is dict else v for v in fields]))

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _rebuild, (type(self), self._fields(self))


def _rebuild(cls, fields: tuple) -> _Value:
    """The value of class `cls` with the given fields (see `_Value.__reduce__`)."""
    x = object.__new__(cls)
    x._fix(*fields)
    return x


class _Record(_Value):
    """Base of the records (symbols, torsor and group specs): a `_Value`
    whose hash is computed once, at construction, and whose repr is
    `Name(field=value, ...)`.  A record's `__init__` checks its arguments
    and stores them once through `_fix`; a record has no cache slots."""

    __slots__ = ("_hash",)

    def _fix(self, *values) -> None:
        for store, v in zip(self._setters, values):
            store(self, v)
        _store_hash(self, hash(values))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._names, self._fields(self)))
        return f"{type(self).__qualname__}({body})"


_store_hash = _Record._hash.__set__


def _lowest(num: dict, den: int) -> tuple[dict, int]:
    """The int numerators `num` over `den` > 0 in lowest terms, zeros dropped."""
    if 0 in num.values():
        num = {k: v for k, v in num.items() if v}
    g = gcd(den, *num.values())
    if g != 1:
        num = {k: v // g for k, v in num.items()}
        den //= g
    return num, den


def rat_str(x: Fraction | int) -> str:
    """Render an exact rational as "num/den" ("num" when den == 1)."""
    if type(x) is int:
        return str(x)
    x = exact_rational(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Fraction:
    """Inverse of rat_str; accepts "num", "num/den", and signs."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def mod_inverse_reduce(x: Fraction, q: int, ell: int) -> int:
    """Reduce a rational with ell-unit denominator into Z/q, q a power of ell.

    Raises ArithmeticError when ell divides the denominator (the value is not
    ell-integral, so it has no image in Z/q).
    """
    if gcd(x.denominator, ell) != 1:
        raise ArithmeticError(
            f"{x} is not {ell}-integral; cannot reduce mod {q}"
        )
    return (x.numerator * pow(x.denominator, -1, q)) % q


def ceil_div(a: int, b: int) -> int:
    return -((-a) // b)
