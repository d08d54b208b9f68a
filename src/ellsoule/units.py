"""q-expansions of the canonical smoothed theta unit and its cusp calculus.

At level M (with gcd(c, 6M) = 1, c > 1) and a torsion point (x, y) with
canonical representatives in [0, M), (x, y) != (0, 0), the unit's expansion
in q^{1/M} over Q(zeta_M) is

    q^{e0} * (-zeta^y)^{(c-c^2)/2} * (-1)^m zeta^{mcy}
           * (1 - q^x zeta^y)^{c^2} / (1 - q^{x'} zeta^{y'})
           * gtilde(x, y)^{c^2} / gtilde(x', y'),

where e0 is the unit's leading exponent (an integer, in q^{1/M} units),
(x', y') = (c x mod M, c y mod M) with carry m = (c x - x')/M, and

    gtilde(u, v) = prod_{n >= 1} (1 - q^{nM+u} zeta^v)(1 - q^{nM-u} zeta^{-v}).

The scalar is forced by the reduction of the smoothed index into [0, M):
shifting the expansion index u -> u - 1 multiplies the product by
-zeta^{-y'}, and m such shifts bring c x down to x'.  With that carry factor
the expansions are exactly norm-compatible: the product over the d^2
preimages of a point under multiplication by d equals the base expansion.

e0 comes from the Jacobi triple product (Kato, Asterisque 295, section 1;
Andrews, *The Theory of Partitions*, ch. 2): with t = q^{x/M} zeta^y, the
unit is (-1)^h q^{(c^2-1)/12} t^h S(t)^{c^2} / S(t^c) times a power of
prod (1 - q^n), h = (c - c^2)/2 and S(t) = sum_k (-1)^k q^{k(k-1)/2} t^k.
S(t) leads at k = 0 and S(t^c) at k = -floor(c x/M), so the triple-product
form e0 = M(c^2-1)/12 + h x - (k c x + M k(k-1)/2) equals the Bernoulli form
smoothed_b2(M, c, x) = (M/2)(c^2 B_2({x/M}) - B_2({c x/M})), which this
module never reads: the `residues` suite and the `units` valuation rows
compare the two.

`theta_series` assembles the expansion as one running product of the sparse
factors (1 - q^{e/M} zeta^v)^k behind it: (x, y, c^2), (x', y', -1), and
the gtilde factors (nM -+ u, -+v, k) of each.  Each factor monomial is
t^a q^b for t = q^{x/M} zeta^y (Kato, Asterisque 295, section 1), a = -+1
or -+c.  So with g = gcd(x, M) (M at x = 0), the coefficient of q^{n/M}
vanishes unless g | n, and its zeta-exponents form one coset of
h = g / gcd(g, y) elements: the unit part (W terms past q^{e0}) is a series
over Z[w]/(w^h - 1), one bare int per term when h = 1 (every x prime to M),
else a list of h ints.  It starts at the sign of the scalar -+zeta^s, and
`_mul_factor` multiplies in each factor, (1 - w^r z^e)^k there, in place:
no power is formed by squaring, no series is inverted and nothing is
reduced mod Phi_M; each stored coefficient is folded into Q(zeta_M) once,
at the end, in the one series a call builds.  A factor with e >= W is 1 to
that window and is left out; at x = 0 the two e = 0 factors are the
constant Xi_c(zeta^y), taken in closed form (`_xi_c_at`, cached per
(M, y mod M, c)) onto the few stored coefficients.  The running product
depends on y only through h, and not at all when the window lies below
every factor, so `_plan` builds it once per (M, c, x, W, h), with h = 1 in
such a window, and keeps its rows as immutable tuples; every call still
checks its arguments and places its lead before it reads that cache, and
folds the rows into Q(zeta_M) at its own y.

Everything downstream is read off this expansion: the residue measure at the
cusp aggregates actual q-valuations over a fiber (with ramification factor
ell^r), and the cusp (q = 0) value of the valuation-normalized unit is an
exact cyclotomic number.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .cyclotomic import CycloElement, _make, _xpow, euler_phi
from .measures import Measure, TorsorSpec, torsor_elements
from .numutil import _coord, _int, _point, ceil_div, is_prime
from .puiseux import PuiseuxSeries
from .serialize import cyclo_to_json

__all__ = [
    "theta_series",
    "theta_qexp",
    "residue_elliptic_soule",
    "norm_check_theta",
    "eta_exponent",
    "epsilon_series",
    "cusp_value_closed",
    "epsilon_cusp_eval",
    "cusp_square_check",
]


def _check_theta_args(
    M: int, c: int, point: tuple[int, int], origin: str = "the unit has no expansion at the origin"
) -> tuple[int, int]:
    M, c = _int(M, "level"), _int(c, "c")
    if M < 2:
        raise ValueError("level must be >= 2")
    if c <= 1 or gcd(c, 6 * M) != 1:
        raise ValueError(f"need c > 1 with gcd(c, 6M) = gcd({c}, {6 * M}) = 1")
    x, y = _point(point, M)
    if (x, y) == (0, 0):
        raise ValueError(origin)
    return x, y


def _level(ell: int, r: int, N: int, c: int, c_is: str = "c") -> int:
    """M = ell^r * N, after the family check: ell prime, gcd(ell, N) = 1,
    c > 1 with gcd(c, 6 ell N) = 1, and r >= 0 (else M is a fraction).
    `c_is` names c in the refusal (a caller that passes |c| says so)."""
    for v, what in ((ell, "ell"), (r, "r"), (N, "N"), (c, "c")):
        _int(v, what)
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} must be prime")
    if gcd(ell, N) != 1:
        raise ValueError(f"gcd(ell, N) = gcd({ell}, {N}) != 1")
    if gcd(c, 6 * ell * N) != 1 or c <= 1:
        raise ValueError(f"need {c_is} > 1 coprime to 6*ell*N = {6 * ell * N}")
    if r < 0:
        raise ValueError(f"level exponent r = {r} must be >= 0")
    return ell ** r * N


def _e0(M: int, c: int, x: int) -> int:
    """The leading exponent of the unit at (x, *), in q^{1/M} units, from the
    triple product (module docstring); it must be an integer.  x must be an
    int (a float or a bool raises TypeError)."""
    x = _coord(x, M)
    e, rem = divmod(M * (c * c - 1), 12)
    if rem:
        raise ValueError(
            f"M(c^2 - 1)/12 = {Fraction(M * (c * c - 1), 12)} at M = {M}, c = {c} "
            "is not an integer exponent"
        )
    k = -(c * x // M)
    return e + (c - c * c) // 2 * x - (k * c * x + M * k * (k - 1) // 2)


def _mul_factor(P: list, h: int, e: int, k: int, r: int) -> None:
    """Multiply P by (1 - w^r z^e)^k in place, for e > 0 and k = -1 or k >= 0.

    P[n] is the coefficient of z^n, n below the window W = len(P), in
    Z[w]/(w^h - 1): a bare int when h = 1, else a list of h ints (slot j the
    coefficient of w^j) or None for zero; w^r moves slot j to (j + r) mod h.

    k = -1 is the recurrence P[n] += w^r P[n - e], run in ascending n so
    that P[n - e] is already the new value.  For k > 0 each source P[m] adds
    its binomial terms (-1)^i C(k, i) w^{ir} P[m] into P[m + ie], in
    descending m, so every row is read as a source before anything is added
    into it.  Only the nonzero slots of a source are visited.
    """
    W = len(P)
    if k < 0:
        terms = [(e, 1, r % h)]
    else:
        terms, b = [], 1
        for i in range(1, min(k, (W - 1) // e) + 1):
            b = -b * (k - i + 1) // i  # (-1)^i C(k, i)
            terms.append((i * e, b, i * r % h))
    for m in (range(W - e) if k < 0 else range(W - e - 1, -1, -1)):
        src = P[m]
        if not src:
            continue
        if h == 1:
            for d, b, _ in terms:
                n = m + d
                if n >= W:
                    break
                P[n] += b * src
            continue
        src = [(j, a) for j, a in enumerate(src) if a]
        for d, b, s in terms:
            n = m + d
            if n >= W:
                break
            row = P[n]
            if row is None:
                row = P[n] = [0] * h
            for j, a in src:
                row[(j + s) % h] += b * a


# Products kept by `_plan`, one per (M, c, x, W, h).  The largest the CLI
# admits (M = 2, c = 49, x = 1, a window of 1000) holds 1000 ints in
# 0.32 MB, so a full cache holds at most 21 MB.  One `theta_sparse` pass
# meets 24 keys and `verify --suite all` 52 (h is 1 in a window below every
# factor), so neither evicts.
_PLANS = 64
# Constants Xi_c(zeta^y) kept by `_xi_c_at`, one per (M, y mod M, c).  The
# largest the CLI admits (M = 935, c = 49) holds 640 coordinates of up to
# 2399 bits in 0.23 MB, so a full cache holds at most 7.2 MB.  One
# `theta_sparse` pass meets 20 constants.
_XIS = 32


@lru_cache(maxsize=_PLANS)
def _plan(M: int, c: int, x: int, W: int, h: int) -> tuple:
    """step, inv, half, carry and the running product of `theta_series` at
    (x, *) with rows of h slots: W rows, each a bare int when h = 1, else a
    tuple of h ints or None.  `_mul_factor` reads r mod h, so the product
    depends on y only through h = g / gcd(g, y)."""
    # the unit below q^{e0} is one product of factors (1 - q^{e/M} zeta^v)^k:
    # (x, y, c^2) and (x', y', -1), each with its gtilde factors
    # (nM - u, -v, k) and (nM + u, v, k).  Every factor has valuation 0, and
    # one with e >= W is 1 modulo q^{W/M}, so only e < W are multiplied and
    # the product's window stays W.  A factor is kept as (e, a, k), its
    # monomial t^a q^b: (x', y') = c (x, y) - m (M, 0).  Multiplying in
    # descending e keeps the product sparse until the dense low-e factors.
    factors = []
    for u, a, k in ((x, 1, c * c), (c * x % M, c, -1)):
        factors.append((u, a, k))
        for n in range(1, W // M + 2):
            factors += [(n * M - u, -a, k), (n * M + u, a, k)]
    # slot j of row n is the coefficient of zeta^{s + (A_n + j step) y},
    # A_n = (n/g) inv, so t^a q^b moves slots by (a - (e/g) inv) / step
    g = gcd(x, M)  # M at x = 0
    step = M // g
    inv = pow(x // g, -1, step)
    # the scalar is -+zeta^s = (-zeta^y)^{(c-c^2)/2} (-1)^m zeta^{mcy},
    # m = floor(cx/M) the index-reduction carry, (c - c^2)/2 an integer (c odd);
    # its sign seeds the product and s is folded in by each call
    half, carry = (c - c * c) // 2, c * x // M
    sign = -1 if (half + carry) % 2 else 1
    P = [0] * W if h == 1 else [None] * W
    P[0] = sign if h == 1 else [sign] + [0] * (h - 1)
    for e, a, k in sorted(factors, reverse=True):
        if 0 < e < W:
            _mul_factor(P, h, e, k, (a - e // g * inv) // step % h)
    rows = tuple(P) if h == 1 else tuple(r and tuple(r) for r in P)
    return step, inv, half, carry, rows


def _short_window(trunc: int, e0: int, M: int) -> ValueError:
    """The refusal of a window `trunc` at or below the leading exponent e0,
    for `theta_series` and the `qexp` door to raise."""
    return ValueError(f"truncation {trunc} too small to represent the leading term q^{e0}/{M}")


def theta_series(M: int, c: int, point: tuple[int, int], trunc: int) -> PuiseuxSeries:
    """The smoothed theta unit's q-expansion at level M, window `trunc`
    (in q^{1/M} units)."""
    x, y = _check_theta_args(M, c, point)
    e0 = _e0(M, c, x)
    W = _int(trunc, "trunc") - e0
    if W <= 0:
        raise _short_window(trunc, e0, M)
    g = gcd(x, M)  # M at x = 0
    # every factor exponent is at least u or M - u, u = x, c x mod M (M at
    # x = 0): a window below them all holds the seed sign alone, at any h
    u = c * x % M
    h = g // gcd(g, y) if W > min(x or M, M - x, u or M, M - u) else 1
    step, inv, half, carry, P = _plan(M, c, x, W, h)
    s, rows, phi = y * half + carry * c * y, _xpow(M), euler_phi(M)
    terms = {}
    for n in range(0, W, g):
        if P[n]:
            num = [0] * phi
            lead = s + n // g * inv * y
            for j, a in enumerate((P[n],) if h == 1 else P[n]):
                if a:
                    for i, t in rows[(lead + j * step * y) % M]:
                        num[i] += a * t
            terms[e0 + n] = _make(M, num, 1)
    if x == 0:  # the e = 0 factors are Xi_c(zeta^y); every M-th term is stored
        xi = _xi_c_at(M, y, c)
        terms = {n: a * xi for n, a in terms.items()}
    return PuiseuxSeries(M, e0 + W, terms)


def theta_qexp(
    ell: int, r: int, N: int, c: int, point: tuple[int, int], trunc: int
) -> PuiseuxSeries:
    """theta_series at level M = ell^r * N of the (ell, N, c) family."""
    return theta_series(_level(ell, r, N, c), c, point, trunc)


def residue_elliptic_soule(ell: int, r: int, N: int, c: int, t: tuple[int, int]) -> Measure:
    """Residue measure at the cusp, from actual q-expansion valuations.

    For t != (0,0) in (Z/N)^2, the value at x in the rank-1 fiber over t[0] is

        (1/ell^r) * sum over y with (x, y) == t mod N of M * valuation(theta at (x, y)),

    each valuation read off an assembled series.  The series are built at
    window e0 + 1, e0 = `_e0`, so that each holds only its leading term, and
    M * valuation is the least stored exponent: the ell^r of them are summed
    as ints, with one Fraction per fiber point.
    """
    M = _level(ell, r, N, c)
    t = _point(t, N)
    if t == (0, 0):
        raise ValueError("residue measure needs t != (0, 0)")
    spec = TorsorSpec(ell, r, N, 1, "reduction", (t[0],))
    q = ell ** r
    values = {}
    for x in torsor_elements(spec):
        T = _e0(M, c, x[0]) + 1
        acc = 0
        for j in range(q):
            terms = theta_series(M, c, (x[0], t[1] + N * j), T).terms
            if not terms:
                raise ValueError("series is zero to its truncation order")
            acc += min(terms)
        values[x] = Fraction(acc, q)
    return Measure._make(spec, values)


def norm_check_theta(M: int, d: int, c: int, point: tuple[int, int], window: int) -> dict:
    """Check multiplication-by-d norm compatibility of the theta unit.

    The product of the level-dM expansions over the d^2 preimages
    (x + iM, y + jM) of `point` must equal the level-M expansion rescaled to
    q^{1/dM}, coefficient by coefficient, for all exponents below `window`
    (in q^{1/dM} units).  A window at or below the base's leading exponent
    d * e0 would compare no nonzero coefficient, and is refused.  Reports the
    window; on a coefficient mismatch, also the first mismatching exponent
    with both coefficients (`first_mismatch`: n, base, product).
    """
    x, y = _check_theta_args(M, c, point)
    d, window = _int(d, "d"), _int(window, "window")
    if window < 1:
        raise ValueError(f"window = {window} must be >= 1")
    if d < 1:
        raise ValueError(f"d = {d} must be >= 1")
    if gcd(d, c) != 1:
        raise ValueError(f"gcd(d, c) = gcd({d}, {c}) != 1")
    if window <= (lead := d * _e0(M, c, x)):
        raise ValueError(
            f"window = {window} must exceed the leading exponent {lead} "
            f"(in q^{{1/{d * M}}}): it would compare no coefficient"
        )
    if d == 1:
        return {"ok": True, "window": window, "level": M, "mismatches": []}
    # leading exponents of the preimage factors can be negative, so each factor's
    # window is sized so the product window reaches `window` and passes its valuation V
    lead = {
        (i, j): _e0(d * M, c, (x + i * M) % (d * M))
        for i in range(d)
        for j in range(d)
    }
    V = sum(lead.values())
    # exact windows: the product's is span, the rescaled base's d ceil(span/d)
    span = max(window, V + 1)
    base = theta_series(M, c, (x, y), ceil_div(span, d)).rescale(d * M)
    prod = None
    for i in range(d):
        for j in range(d):
            T_ij = span - (V - lead[i, j])
            f = theta_series(d * M, c, (x + i * M, y + j * M), T_ij)
            prod = f if prod is None else prod * f
    mism = [
        n for n in sorted(set(base.terms) | set(prod.terms))
        if n < window and base.coeff(n) != prod.coeff(n)
    ]
    out = {"ok": not mism, "window": window, "level": d * M, "mismatches": mism}
    if mism:
        n = mism[0]
        out["first_mismatch"] = {
            "n": n,
            "base": cyclo_to_json(base.coeff(n)),
            "product": cyclo_to_json(prod.coeff(n)),
        }
    return out


def eta_exponent(ell: int, r: int, N: int, c: int, x1: int) -> int:
    """Exponent (in q^{1/M} units) of the monomial normalizer at a point
    with first coordinate x1: the unit's leading exponent e0."""
    return _e0(_level(ell, r, N, c), c, x1)


def epsilon_series(
    ell: int, r: int, N: int, c: int, point: tuple[int, int], trunc: int
) -> PuiseuxSeries:
    """theta / eta at `point` to the window `trunc` >= 1: the valuation-0 unit."""
    M = _level(ell, r, N, c)
    n, trunc = _e0(M, c, _point(point, M)[0]), _int(trunc, "trunc")
    if trunc < 1:
        raise ValueError(f"trunc = {trunc} must be >= 1")
    return theta_series(M, c, point, trunc + n).shift(-n)


def cusp_value_closed(M: int, c: int, y: int) -> CycloElement:
    """(-beta)^{(c-c^2)/2} Xi_c(beta) for beta = zeta_M^y, where
    Xi_c(w) = (1-w)^{c^2} / (1-w^c).

    This is the constant term of the normalized unit at (0, y): the carry
    vanishes there, leaving the scalar (-beta)^{(c-c^2)/2} on the constant
    terms of the remaining factors.
    """
    _, y = _check_theta_args(M, c, (0, y), "beta = 1 is outside the cusp-value domain")
    # (-beta)^h = (-1)^h zeta^{yh}, h = (c - c^2)/2 an integer
    half = (c - c * c) // 2
    scalar = CycloElement.zeta_pow(M, y * half)
    if half % 2:
        scalar = -scalar
    return scalar * _xi_c_at(M, y, c)


def epsilon_cusp_eval(ell: int, r: int, N: int, c: int, y: int) -> CycloElement:
    """The cusp (q = 0) value of the normalized unit at (0, y): the constant
    term read off its expansion.  `cusp_value_closed` is its closed form."""
    return epsilon_series(ell, r, N, c, (0, y), 4).constant_term()


def cusp_square_check(M: int, c: int, y: int) -> bool:
    """(cusp value)^2 == Xi_c(beta) * Xi_c(beta^{-1}) in Q(zeta_M); the
    family is checked by `cusp_value_closed`."""
    v = cusp_value_closed(M, c, y)
    return v * v == _xi_c_at(M, y % M, c) * _xi_c_at(M, -y % M, c)


@lru_cache(maxsize=_XIS)
def _xi_c_at(M: int, y: int, c: int) -> CycloElement:
    """Xi_c(zeta_M^y) = (1 - zeta^y)^{c^2} / (1 - zeta^{cy}), for M and c
    checked by `_check_theta_args` and y reduced mod M, so that each
    constant is cached once."""
    num = CycloElement.one_minus_zeta_pow(M, y, c * c)
    return num * CycloElement.one_minus_zeta_inverse(M, c * y)
