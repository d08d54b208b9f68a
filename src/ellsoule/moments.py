"""Finite-level moment maps from measures into the divided-power algebra.

For a measure mu on the group (Z/ell^r)^d the degree-k moment is

    mom^k(mu) = sum_h mu(h) h^{[k]},

the degree-k piece of the algebra map sending the Dirac measure at h to the
total divided power of h.  On a torsor fiber {x == t mod N} the moment is
taken after multiplication by N, whose image lands in the subgroup N*(Z/M)
identified with Z/ell^r by dividing representatives by N; concretely the
coordinate of a fiber element x is x mod ell^r.  The modified moment divides
by N^k (and by k! in rank 1, inverting Sym = TSym over Q on the generator).

Moments are computed exactly over Q; reduction mod ell^r is applied at
comparison time, which is where the convolution/negation/scaling laws hold.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .measures import GroupSpec, Measure, TorsorSpec, _map, _push, trace
from .tsym import TSym, exponent_tuples, tsym_map

__all__ = [
    "moment",
    "moment_torsor",
    "modified_moment",
    "redeclare",
    "check_trace_compat",
    "check_functoriality",
    "tsym_reduce",
]


def _moment(mu: Measure, k: int, coord) -> TSym:
    """sum_x mu(x) x^{[k]}, each coordinate read through `coord`: the
    coefficient of e^{[n]} is sum_x mu(x) prod_i coord(x_i)^{n_i}."""
    points = [(tuple(coord(xi) for xi in x), v) for x, v in mu.values.items()]
    return TSym._make(
        mu.spec.d,
        "Q",
        {
            n: sum(v * prod(y ** e for y, e in zip(ys, n)) for ys, v in points)
            for n in exponent_tuples(mu.spec.d, k)
        },
    )


def moment(mu: Measure, k: int) -> TSym:
    """Degree-k moment of a measure in standard group coordinates.

    Accepts a bare-group measure (coordinates used as-is) or a torsor
    measure supported on the fiber over t = 0 (coordinates divided by N).
    """
    spec = mu.spec
    if isinstance(spec, GroupSpec):
        return _moment(mu, k, lambda xi: xi)
    if any(spec.t):
        raise ValueError("moment() needs the group fiber t = 0; "
                         "use moment_torsor for general fibers")
    return _moment(mu, k, lambda xi: xi // spec.N)


def moment_torsor(mu: Measure, k: int) -> TSym:
    """Degree-k torsor moment: sum_x mu(x) * (x mod ell^r)^{[k]}."""
    spec = mu.spec
    if not isinstance(spec, TorsorSpec):
        raise ValueError("moment_torsor needs a torsor measure")
    q = spec.ell ** spec.r
    return _moment(mu, k, lambda xi: xi % q)


def modified_moment(mu: Measure, k: int) -> Fraction:
    """Rank-1 modified moment: moment_torsor / (N^k * k!)."""
    spec = mu.spec
    if not isinstance(spec, TorsorSpec) or spec.d != 1:
        raise ValueError("modified_moment is the rank-1 torsor path")
    mom = moment_torsor(mu, k).coeff((k,))
    return Fraction(mom, spec.N ** k * factorial(k))


def redeclare(mu: Measure, m: int) -> Measure:
    """The same torsor datum declared at level N' = m*N (gcd(m, ell) = 1).

    Under the canonical inclusion of (1/(ell^r N))Z/Z into (1/(ell^r N'))Z/Z
    a fiber representative u maps to m*u, so the transported measure lives
    on the fiber over m*t mod N' and assigns mu's values to the points m*x.
    """
    spec = mu.spec
    if not isinstance(spec, TorsorSpec):
        raise ValueError("redeclare needs a torsor measure")
    spec2 = TorsorSpec(
        spec.ell,
        spec.r,
        spec.N * m,
        spec.d,
        spec.flavor,
        tuple((m * ti) % (spec.N * m) for ti in spec.t),
    )
    m2 = spec2.modulus
    return Measure(
        spec2,
        {tuple((m * xi) % m2 for xi in x): v for x, v in mu.values.items()},
    )


def tsym_reduce(a: TSym, q: int) -> TSym:
    """Reduce a rational TSym element into Z/q (checked denominators)."""
    return a.base_change(f"Z/{q}")


def check_trace_compat(tower: list[Measure], k: int) -> dict:
    """Verify that reducing the level commutes with the moment maps.

    tower[i] must live at level r_i with tower[i+1] one level above
    tower[i]; for each adjacent pair the check is

        moment_torsor(trace(mu_{r+1}), k) == moment_torsor(mu_{r+1}, k)  mod ell^r.

    Returns {"ok": bool, "failed_level": r or None}.
    """
    for hi in tower[1:]:
        lo_spec = hi.spec
        q = lo_spec.ell ** (lo_spec.r - 1)
        lhs = tsym_reduce(moment_torsor(trace(hi), k), q)
        rhs = tsym_reduce(moment_torsor(hi, k), q)
        if lhs != rhs:
            return {"ok": False, "failed_level": lo_spec.r - 1}
    # also confirm the tower itself is trace-compatible where both are given
    for lo, hi in zip(tower, tower[1:]):
        if trace(hi) != lo:
            return {"ok": False, "failed_level": lo.spec.r if isinstance(lo.spec, TorsorSpec) else None}
    return {"ok": True, "failed_level": None}


def check_functoriality(phi, mu: Measure, k: int) -> bool:
    """moment(phi_! mu, k) == TSym(phi)(moment(mu, k)) mod ell^r.

    phi uses the pushforward map descriptions; one `measures._map` call gives
    the point map and the induced coefficient map: a^k for ("mult", a), so
    (-1)^k for "neg", and the projection matrix for ("proj", i).  A
    description `pushforward` rejects, and "reduce", which has no induced
    coefficient map, raise before anything is pushed.
    """
    spec = mu.spec
    if not isinstance(spec, TorsorSpec):
        raise ValueError("functoriality checks run on torsor measures")
    image, f, induced = _map(phi, spec)
    if induced is None:
        raise ValueError(f"no induced TSym map for {phi!r}")
    q = spec.ell ** spec.r
    lhs = tsym_reduce(moment_torsor(_push(mu, image, f), k), q)
    rhs = tsym_map(induced, moment_torsor(mu, k))
    return lhs == tsym_reduce(rhs, q)
