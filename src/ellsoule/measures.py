"""Finite-level measure algebras on cyclic groups and their torsors.

The ambient group at level r is G = (Z/(ell^r * N))^d.  A torsor spec fixes a
surjection G -> (Z/N)^d — reduction mod N, or multiplication by ell^r under
the additive identification of the N-torsion — and a base point t; both
surjections have the same fibers

    fiber(t) = { x in G : x == t (mod N) componentwise },

of cardinality ell^{r d}, so the flavor is retained as bookkeeping only.
Measures are exact-rational-valued functions on one fiber; reduction into
Z/ell^r is a separate, checked operation.  Bare (non-torsor) groups (Z/m)^d
are supported for the plain convolution-algebra laws.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _iproduct
from math import gcd

from .numutil import _Record, _Value, _coord, _int, _rational, is_prime, mod_inverse_reduce

__all__ = [
    "TorsorSpec",
    "GroupSpec",
    "Measure",
    "torsor_elements",
    "dirac",
    "pushforward",
    "convolve",
    "trace",
    "integrate",
    "reduce_mod",
]


class TorsorSpec(_Record):
    """Fiber over t of the level-r surjection (Z/ell^r N)^d -> (Z/N)^d."""

    __slots__ = ("ell", "r", "N", "d", "flavor", "t")

    def __init__(
        self,
        ell: int,
        r: int,
        N: int,
        d: int = 1,
        flavor: str = "reduction",
        t: tuple[int, ...] = (0,),
    ):
        ell, r = _int(ell, "prime ell"), _int(r, "level r")
        N, d = _int(N, "level N"), _int(d, "rank d")
        if not is_prime(ell):
            raise ValueError(f"ell = {ell} must be prime")
        if r < 0:
            raise ValueError("level r must be >= 0")
        if N < 2:
            raise ValueError("N must be >= 2")
        if gcd(ell, N) != 1:
            raise ValueError(f"gcd(ell, N) = gcd({ell}, {N}) != 1")
        if d not in (1, 2):
            raise ValueError("rank must be 1 or 2")
        if flavor not in ("reduction", "multiplication"):
            raise ValueError(f"unknown flavor {flavor!r}")
        t = tuple(_coord(x, N) for x in t)
        if len(t) != d:
            raise ValueError("base point rank mismatch")
        self._fix(ell, r, N, d, flavor, t)

    @property
    def modulus(self) -> int:
        return self.ell ** self.r * self.N

    def contains(self, x: tuple[int, ...]) -> bool:
        return len(x) == self.d and all(
            0 <= xi < self.modulus and xi % self.N == ti
            for xi, ti in zip(x, self.t)
        )

    def with_t(self, t: tuple[int, ...]) -> "TorsorSpec":
        return TorsorSpec(self.ell, self.r, self.N, self.d, self.flavor, tuple(t))


class GroupSpec(_Record):
    """A bare product group (Z/m)^d (no torsor structure)."""

    __slots__ = ("m", "d")

    def __init__(self, m: int, d: int = 1):
        m, d = _int(m, "modulus m"), _int(d, "rank d")
        if m < 1:
            raise ValueError("modulus must be positive")
        if d not in (1, 2):
            raise ValueError("rank must be 1 or 2")
        self._fix(m, d)

    @property
    def modulus(self) -> int:
        return self.m

    def contains(self, x: tuple[int, ...]) -> bool:
        return len(x) == self.d and all(0 <= xi < self.m for xi in x)


Spec = TorsorSpec | GroupSpec


def torsor_elements(spec: Spec) -> list[tuple[int, ...]]:
    """Enumerate the fiber (sorted); for a bare group, the whole group."""
    if isinstance(spec, GroupSpec):
        return [tuple(x) for x in _iproduct(range(spec.m), repeat=spec.d)]
    per_component = [
        [ti + spec.N * j for j in range(spec.ell ** spec.r)] for ti in spec.t
    ]
    return [tuple(x) for x in _iproduct(*per_component)]


def _key(spec: Spec, x) -> tuple[int, ...]:
    """x as a point of the fiber; each coordinate must be an int (TypeError
    for a float or a bool, which would be truncated to another point)."""
    m = spec.modulus
    x = tuple(_coord(v, m) for v in (x if isinstance(x, (tuple, list)) else (x,)))
    if not spec.contains(x):
        raise ValueError(f"{x} is not in the fiber of {spec}")
    return x


class Measure(_Value):
    """Exact-rational-valued measure supported on one fiber (or bare group).

    `values` holds each nonzero value as an int when it is integral and as a
    lowest-terms Fraction otherwise (the two compare and hash equal), so the
    maps below sum integral measures in int arithmetic.
    """

    __slots__ = ("spec", "values")

    def __init__(self, spec: Spec, values: dict):
        vals: dict[tuple[int, ...], int | Fraction] = {}
        for x, v in values.items():
            v, x = _rational(v), _key(spec, x)
            if v:
                vals[x] = v
        _set_spec(self, spec)
        _set_values(self, vals)

    @classmethod
    def _make(cls, spec: Spec, values: dict) -> "Measure":
        """Measure(spec, values) without the `_key` check, for values whose
        points are already points of spec's fiber (carried over from a
        measure on spec, or enumerated by `torsor_elements`); each value is
        still put in its stored form (`_rational`), and zeros dropped."""
        x = object.__new__(cls)
        _set_spec(x, spec)
        _set_values(x, {p: v for p, v in zip(values, map(_rational, values.values())) if v})
        return x

    def __call__(self, x) -> int | Fraction:
        return self.values.get(_key(self.spec, x), 0)

    def __add__(self, other: "Measure") -> "Measure":
        if self.spec != other.spec:
            raise ValueError("measures live on different fibers")
        vals = dict(self.values)
        for x, v in other.values.items():
            vals[x] = vals.get(x, 0) + v
        return Measure._make(self.spec, vals)

    def __neg__(self) -> "Measure":
        return Measure._make(self.spec, {x: -v for x, v in self.values.items()})

    def __sub__(self, other: "Measure") -> "Measure":
        return self + (-other)

    def scale(self, c) -> "Measure":
        c = _rational(c)
        return Measure._make(self.spec, {x: v * c for x, v in self.values.items()})

    def total_mass(self) -> Fraction:
        return Fraction(sum(self.values.values()))

    def __repr__(self):
        body = ", ".join(
            f"{x}: {v}" for x, v in sorted(self.values.items())
        )
        return f"Measure({self.spec}, {{{body}}})"


_set_spec, _set_values = Measure._setters


def dirac(spec: Spec, x) -> Measure:
    """Unit mass at a point of the fiber."""
    return Measure(spec, {_key(spec, x): 1})


def _map(phi, spec: Spec):
    """Check a map description on `spec`; return (image spec, point map,
    induced TSym map).

    ("mult", a) needs an int a, not a bool (TypeError), and "neg" is
    ("mult", -1); both induce a.  ("proj", i) needs an int 0 <= i < d
    (ValueError when out of range) and induces the projection matrix.
    "reduce", one level of the trace tower, needs a torsor spec above
    level 0 and induces no TSym map (None).  Anything else raises
    ValueError.  The point map reduces into the image spec's modulus.
    """
    if phi == "neg":
        phi = ("mult", -1)
    if phi == "reduce":
        if not isinstance(spec, TorsorSpec):
            raise ValueError("level reduction needs a torsor spec")
        if spec.r == 0:
            raise ValueError("cannot reduce below level 0")
        image = TorsorSpec(spec.ell, spec.r - 1, spec.N, spec.d, spec.flavor, spec.t)
        m = image.modulus
        return image, lambda x: tuple(xi % m for xi in x), None
    if not (isinstance(phi, tuple) and len(phi) == 2 and phi[0] in ("mult", "proj")):
        raise ValueError(f"unsupported map description {phi!r}")
    name, a = phi
    if isinstance(a, bool) or not isinstance(a, int):
        raise TypeError(f"{name} needs an int, got {type(a).__name__}")
    torsor = isinstance(spec, TorsorSpec)
    if name == "mult":
        image = spec.with_t(tuple((a * ti) % spec.N for ti in spec.t)) if torsor else spec
        m = image.modulus
        return image, lambda x: tuple((a * xi) % m for xi in x), a
    if not 0 <= a < spec.d:
        raise ValueError(f"projection index {a} out of range for rank {spec.d}")
    if torsor:
        image = TorsorSpec(spec.ell, spec.r, spec.N, 1, spec.flavor, (spec.t[a],))
    else:
        image = GroupSpec(spec.m, 1)
    return image, lambda x: (x[a],), [[int(j == a) for j in range(spec.d)]]


def pushforward(phi, mu: Measure) -> Measure:
    """(phi_! mu)(y) = sum over phi(x) = y of mu(x).

    Supported map descriptions: ("mult", a), "neg" (the same as
    ("mult", -1)), ("proj", i), and "reduce" (one level of the trace
    tower); see `_map` for the checks.
    """
    image, f, _ = _map(phi, mu.spec)
    return _push(mu, image, f)


def _push(mu: Measure, image: Spec, f) -> Measure:
    """The measure on `image` summing mu over the fibers of the point map f."""
    vals: dict[tuple[int, ...], int | Fraction] = {}
    for x, v in mu.values.items():
        y = f(x)
        vals[y] = vals.get(y, 0) + v
    return Measure(image, vals)


def trace(mu: Measure) -> Measure:
    """Pushforward along the canonical level surjection r+1 -> r."""
    return pushforward("reduce", mu)


def convolve(mu: Measure, nu: Measure) -> Measure:
    """(mu * nu)(z) = sum_{x + y = z} mu(x) nu(y).

    Defined for two measures on the same ambient group: two bare-group
    measures, or two torsor measures with the same (ell, r, N, d, flavor)
    (base points add — the group case is the fiber over 0, and a group
    measure acts on any torsor fiber by translation).
    """
    if isinstance(mu.spec, GroupSpec) and isinstance(nu.spec, GroupSpec):
        if mu.spec != nu.spec:
            raise ValueError("incompatible group specs")
        spec = mu.spec
    elif isinstance(mu.spec, TorsorSpec) and isinstance(nu.spec, TorsorSpec):
        a, b = mu.spec, nu.spec
        if (a.ell, a.r, a.N, a.d, a.flavor) != (b.ell, b.r, b.N, b.d, b.flavor):
            raise ValueError("incompatible torsor specs")
        spec = a.with_t(tuple((x + y) % a.N for x, y in zip(a.t, b.t)))
    else:
        raise ValueError("cannot convolve a bare-group with a torsor measure")
    m = spec.modulus
    vals: dict[tuple[int, ...], int | Fraction] = {}
    for x, vx in mu.values.items():
        for y, vy in nu.values.items():
            z = tuple((a + b) % m for a, b in zip(x, y))
            vals[z] = vals.get(z, 0) + vx * vy
    return Measure(spec, vals)


def integrate(mu: Measure, f) -> object:
    """sum_x mu(x) f(*x); f receives one argument per component.  A sum that
    comes out as an int (int values and an int-valued f) is returned as a
    Fraction, as is the empty sum."""
    total = None
    for x, v in sorted(mu.values.items()):
        term = f(*x) * v
        total = term if total is None else total + term
    if total is None:
        return Fraction(0)
    return Fraction(total) if type(total) is int else total


def reduce_mod(mu: Measure, q: int, ell: int | None = None) -> dict[tuple[int, ...], int]:
    """Checked reduction of the values into Z/q, q a power of a prime ell.

    Raises ArithmeticError when some value is not ell-integral.
    """
    if ell is None:
        if isinstance(mu.spec, TorsorSpec):
            ell = mu.spec.ell
        else:
            raise ValueError("specify the prime for a bare-group measure")
    return {
        x: mod_inverse_reduce(v, q, ell) for x, v in sorted(mu.values.items())
    }
