"""q-expansions of the canonical smoothed theta unit and its cusp calculus.

At level M (with gcd(c, 6M) = 1, c > 1) and a torsion point (x, y) with
canonical representatives in [0, M), (x, y) != (0, 0), the unit's expansion
in q^{1/M} over Q(zeta_M) is

    q^{e0} * (-zeta^y)^{(c-c^2)/2} * (-1)^m zeta^{mcy}
           * (1 - q^x zeta^y)^{c^2} / (1 - q^{x'} zeta^{y'})
           * gtilde(x, y)^{c^2} / gtilde(x', y'),

where e0 = (M/2)(c^2 B_2({x/M}) - B_2({c x/M})) (an integer, in q^{1/M}
units), (x', y') = (c x mod M, c y mod M) with carry m = (c x - x')/M, and

    gtilde(u, v) = prod_{n >= 1} (1 - q^{nM+u} zeta^v)(1 - q^{nM-u} zeta^{-v}).

The scalar is forced by the reduction of the smoothed index into [0, M):
shifting the expansion index u -> u - 1 multiplies the product by
-zeta^{-y'}, and m such shifts bring c x down to x'.  With that carry factor
the expansions are exactly norm-compatible: the product over the d^2
preimages of a point under multiplication by d equals the base expansion.

`theta_series` assembles the expansion as one running product of the sparse
factors (1 - q^{e/M} zeta^v)^k behind it: (x, y, c^2), (x', y', -1), and
the gtilde factors (nM -+ u, -+v, k) of each.  The unit part (the
expansion over q^{e0}) is held as W lists of int coordinates in the reduced
power basis (W the window past q^{e0}; the denominator is 1, since every
factor lies in Z[zeta][[q]]).  It starts at the scalar -+zeta^s, and each
factor is multiplied in place: k = -1 is the recurrence P[n] += zeta^v P[n - e],
and k = c^2 adds the binomial terms (-1)^i C(k, i) zeta^{iv} P[n - ie], each
new P[n] reduced mod Phi_M once.  So no power is formed by squaring, no
series is inverted, and each coefficient becomes a `CycloElement` once, in
the one series a call builds.  A factor with e >= W is 1 to that window and
is left out; at x = 0 the two e = 0 factors are the constant Xi_c(zeta^y),
taken in closed form (`_xi_c_at`) onto the few stored coefficients.

Everything downstream is read off this expansion: the residue measure at the
cusp aggregates actual q-valuations over a fiber (with ramification factor
ell^r), and the cusp (q = 0) value of the valuation-normalized unit is an
exact cyclotomic number.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from .bernoulli import smoothed_b2
from .cyclotomic import CycloElement, _make, _reduce, euler_phi
from .measures import Measure, TorsorSpec, torsor_elements
from .numutil import _coord, _int, ceil_div, exact_rational, is_prime
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
    "CuspMismatchError",
    "cusp_square_check",
    "RatFun",
    "xi",
    "xi_c",
    "norm_under_power",
]


def _check_theta_args(M: int, c: int, point: tuple[int, int]) -> tuple[int, int]:
    M, c = _int(M, "level"), _int(c, "c")
    if M < 2:
        raise ValueError("level must be >= 2")
    if c <= 1 or gcd(c, 6 * M) != 1:
        raise ValueError(f"need c > 1 with gcd(c, 6M) = gcd({c}, {6 * M}) = 1")
    x, y = _coord(point[0], M), _coord(point[1], M)
    if (x, y) == (0, 0):
        raise ValueError("the unit has no expansion at the origin")
    return x, y


def _level(ell: int, r: int, N: int, c: int) -> int:
    """M = ell^r * N, after the family check: ell prime, gcd(ell, N) = 1,
    c > 1 with gcd(c, 6 ell N) = 1, and r >= 0 (else M is a fraction)."""
    for v, what in ((ell, "ell"), (r, "r"), (N, "N"), (c, "c")):
        _int(v, what)
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} must be prime")
    if gcd(ell, N) != 1:
        raise ValueError(f"gcd(ell, N) = gcd({ell}, {N}) != 1")
    if gcd(c, 6 * ell * N) != 1 or c <= 1:
        raise ValueError(f"need c > 1 coprime to 6*ell*N = {6 * ell * N}")
    if r < 0:
        raise ValueError(f"level exponent r = {r} must be >= 0")
    return ell ** r * N


def _e0(M: int, c: int, x: int) -> int:
    """The leading exponent smoothed_b2(M, c, x) of the unit at (x, *), in
    q^{1/M} units; it must be an integer."""
    v = smoothed_b2(M, c, x)
    if v.denominator != 1:
        raise ValueError(f"smoothed B_2 value {v} at x = {x} is not an integer exponent")
    return v.numerator


def _apply_factor(P: list, M: int, e: int, v: int, k: int) -> None:
    """Multiply the unit part P (P[n] the reduced int coordinates of the
    coefficient of q^{n/M}, or None for zero, for n below the window
    W = len(P)) by (1 - q^{e/M} zeta^v)^k in place, for e > 0 and k = -1 or
    k >= 0.

    k = -1 is the recurrence P[n] += zeta^v P[n - e], run in ascending n so
    that P[n - e] is already the new value.  For k > 0 every source P[m] is
    read before any P[n] is written: each binomial term
    (-1)^i C(k, i) zeta^{iv} q^{ie/M} adds P[m]'s nonzero coordinates into
    the unreduced P[m + ie].  A new P[n] is summed modulo x^M - 1, at index
    (j + iv) mod M for coordinate j, and reduced mod Phi_M once.
    """
    W, phi = len(P), euler_phi(M)
    pad = [0] * (M - phi)

    def at(s):  # coordinate j of zeta^s * src lands at (j + s) mod M
        return [(j + s) % M for j in range(phi)]

    if k < 0:
        idx = at(v)
        for n in range(e, W):
            src = P[n - e]
            if src is not None:
                old = P[n]
                acc = old + pad if old is not None else [0] * M
                for t, a in zip(idx, src):
                    if a:
                        acc[t] += a
                P[n] = _reduce(M, phi, acc)
        return
    terms = []
    b = 1
    for i in range(1, min(k, (W - 1) // e) + 1):
        b = -b * (k - i + 1) // i  # (-1)^i C(k, i)
        terms.append((i * e, b, at(i * v)))
    accs = {}
    for m in range(W - e):
        src = P[m]
        if src is None:
            continue
        src = [(j, a) for j, a in enumerate(src) if a]
        for d, b, idx in terms:
            n = m + d
            if n >= W:
                break
            acc = accs.get(n)
            if acc is None:
                old = P[n]
                acc = accs[n] = old + pad if old is not None else [0] * M
            for j, a in src:
                acc[idx[j]] += b * a
    for n, acc in accs.items():
        P[n] = _reduce(M, phi, acc)


def theta_series(M: int, c: int, point: tuple[int, int], trunc: int) -> PuiseuxSeries:
    """The smoothed theta unit's q-expansion at level M, window `trunc`
    (in q^{1/M} units)."""
    x, y = _check_theta_args(M, c, point)
    e0 = _e0(M, c, x)
    W = _int(trunc, "trunc") - e0
    if W <= 0:
        raise ValueError(
            f"truncation {trunc} too small to represent the leading term q^{e0}/{M}"
        )
    # the unit below q^{e0} is one product of factors (1 - q^{e/M} zeta^v)^k:
    # (x, y, c^2) and (x', y', -1), each with its gtilde factors
    # (nM - u, -v, k) and (nM + u, v, k).  Every factor has valuation 0, and
    # one with e >= W is 1 modulo q^{W/M}, so only e < W are multiplied and
    # the product's window stays W.  Multiplying in descending e keeps the
    # running product sparse until the dense low-e factors come last.
    factors = []
    for u, v, k in ((x, y, c * c), (c * x % M, c * y % M, -1)):
        factors.append((u, v, k))
        for n in range(1, W // M + 2):
            factors += [(n * M - u, -v, k), (n * M + u, v, k)]
    # P starts at the scalar -+zeta^s = (-zeta^y)^{(c-c^2)/2} (-1)^m zeta^{mcy},
    # m = floor(cx/M) the index-reduction carry, (c - c^2)/2 an integer (c odd);
    # it and every factor lie in Z[zeta][[q]], so P has denominator 1
    half, carry = (c - c * c) // 2, c * x // M
    sign = -1 if (half + carry) % 2 else 1
    P = [None] * W
    P[0] = [sign * a for a in CycloElement.zeta_pow(M, y * half + carry * c * y).num]
    for e, v, k in sorted(factors, reverse=True):
        if 0 < e < W:
            _apply_factor(P, M, e, v, k)
    terms = {e0 + n: _make(M, num, 1) for n, num in enumerate(P) if num is not None}
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

    each valuation read off an assembled series (never the closed formula).
    """
    M = _level(ell, r, N, c)
    t = (_coord(t[0], N), _coord(t[1], N))
    if t == (0, 0):
        raise ValueError("residue measure needs t != (0, 0)")
    spec = TorsorSpec(ell, r, N, 1, "reduction", (t[0],))
    q = ell ** r
    values = {}
    for x in torsor_elements(spec):
        # window just past the expected leading exponent; the valuation is
        # then read from the actual series
        T = _e0(M, c, x[0]) + 4
        acc = Fraction(0)
        for j in range(q):
            series = theta_series(M, c, (x[0], t[1] + N * j), T)
            acc += M * series.valuation()
        values[x] = acc / q
    return Measure(spec, values)


def norm_check_theta(M: int, d: int, c: int, point: tuple[int, int], window: int) -> dict:
    """Check multiplication-by-d norm compatibility of the theta unit.

    The product of the level-dM expansions over the d^2 preimages
    (x + iM, y + jM) of `point` must equal the level-M expansion rescaled to
    q^{1/dM}, coefficient by coefficient, for all exponents below `window`
    (in q^{1/dM} units).  Reports the sound comparison window actually used;
    on a coefficient mismatch, also the first mismatching exponent with both
    coefficients (`first_mismatch`: n, base, product).
    """
    x, y = _check_theta_args(M, c, point)
    d, window = _int(d, "d"), _int(window, "window")
    if window < 1:
        raise ValueError(f"window = {window} must be >= 1")
    if d < 1:
        raise ValueError(f"d = {d} must be >= 1")
    if gcd(d, c) != 1:
        raise ValueError(f"gcd(d, c) = gcd({d}, {c}) != 1")
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
    span = max(window, V + 1)
    margin = 3  # extra window on every factor
    base_rescaled = theta_series(M, c, (x, y), ceil_div(span, d) + margin).rescale(d * M)
    prod = None
    for i in range(d):
        for j in range(d):
            T_ij = span + margin - (V - lead[i, j])
            f = theta_series(d * M, c, (x + i * M, y + j * M), T_ij)
            prod = f if prod is None else prod * f
    W = min(window, base_rescaled.T, prod.T)
    if W < window:
        return {
            "ok": False,
            "window": W,
            "level": d * M,
            "mismatches": ["insufficient truncation"],
        }
    mism = []
    f, g = base_rescaled, prod
    for n in sorted(set(f.terms) | set(g.terms)):
        if n < W and f.coeff(n) != g.coeff(n):
            mism.append(n)
    out = {"ok": not mism, "window": W, "level": d * M, "mismatches": mism}
    if mism:
        n = mism[0]
        out["first_mismatch"] = {
            "n": n,
            "base": cyclo_to_json(f.coeff(n)),
            "product": cyclo_to_json(g.coeff(n)),
        }
    return out


def eta_exponent(ell: int, r: int, N: int, c: int, x1: int) -> int:
    """Exponent (in q^{1/M} units) of the monomial normalizer at a point
    with first coordinate x1: the smoothed-B_2 value itself."""
    return _e0(_level(ell, r, N, c), c, x1)


def epsilon_series(
    ell: int, r: int, N: int, c: int, point: tuple[int, int], trunc: int
) -> PuiseuxSeries:
    """theta / eta at `point` to the window `trunc` >= 1: the valuation-0 unit."""
    M = _level(ell, r, N, c)
    n, trunc = _e0(M, c, _coord(point[0], M)), _int(trunc, "trunc")
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
    y = _coord(y, _int(M, "level"))
    if y == 0:
        raise ValueError("beta = 1 is outside the cusp-value domain")
    c = _int(c, "c")
    # (-beta)^h = (-1)^h zeta^{yh}, h = (c - c^2)/2 an integer
    half = (c - c * c) // 2
    scalar = CycloElement.zeta_pow(M, y * half)
    if half % 2:
        scalar = -scalar
    return scalar * _xi_c_at(M, y, c)


class CuspMismatchError(AssertionError):
    """The normalized unit's constant term at a cusp differs from the closed
    form; carries both values."""

    def __init__(self, constant_term: CycloElement, closed: CycloElement):
        super().__init__(
            f"cusp constant term {constant_term!r} differs from closed form {closed!r}"
        )
        self.constant_term = constant_term
        self.closed = closed


def epsilon_cusp_eval(ell: int, r: int, N: int, c: int, y: int) -> CycloElement:
    """Constant term of the normalized unit at (0, y), checked equal to the
    closed cyclotomic formula (CuspMismatchError otherwise); returns the
    common value."""
    M = _level(ell, r, N, c)
    n = _e0(M, c, 0)
    eps = theta_series(M, c, (0, y), n + 4).shift(-n)  # only the constant term is read
    if eps.terms and min(eps.terms) < 0:
        raise AssertionError("normalized unit has negative valuation")
    ct = eps.constant_term()
    closed = cusp_value_closed(M, c, y)
    if ct != closed:
        raise CuspMismatchError(ct, closed)
    return closed


def cusp_square_check(M: int, c: int, y: int) -> bool:
    """(cusp value)^2 == Xi_c(beta) * Xi_c(beta^{-1}) in Q(zeta_M)."""
    y = _coord(y, M)
    v = cusp_value_closed(M, c, y)
    return v * v == _xi_c_at(M, y, c) * _xi_c_at(M, -y, c)


def _xi_c_at(M: int, y: int, c: int) -> CycloElement:
    """Xi_c(zeta_M^y) = (1 - zeta^y)^{c^2} / (1 - zeta^{cy})."""
    num = CycloElement.one_minus_zeta_pow(M, y, c * c)
    return num * CycloElement.one_minus_zeta_inverse(M, c * y)


# ---------------------------------------------------------------------------
# rational functions in one variable over Q, and the norm under the
# substitution w -> zeta_d^j w
# ---------------------------------------------------------------------------


def _ptrim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _pmul(a: list, b: list) -> list:
    """Product of ascending coefficient lists over Q or over Q(zeta_d)."""
    out = [0] * (len(a) + len(b) - 1 if a and b else 0)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
    return _ptrim(out)


class RatFun:
    """A ratio of polynomials in w with rational coefficients.

    Polynomials are ascending lists of `Fraction`s; equality is tested by
    cross-multiplication, so no normal form is needed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num = _ptrim([exact_rational(c) for c in num])
        den = _ptrim([exact_rational(c) for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        return _pmul(self.num, other.den) == _pmul(other.num, self.den)

    def __hash__(self):
        raise TypeError("RatFun is unhashable (no normal form)")

    def __repr__(self):
        return f"RatFun(num={self.num}, den={self.den})"


def xi() -> RatFun:
    """Xi(w) = 1 - w over Q."""
    return RatFun([1, -1], [1])


def xi_c(c: int) -> RatFun:
    """Xi_c(w) = (1 - w)^{c^2} / (1 - w^c) over Q."""
    num = [(-1) ** i * comb(c * c, i) for i in range(c * c + 1)]
    return RatFun(num, [1] + [0] * (c - 1) + [-1])


def norm_under_power(f: RatFun, d: int) -> RatFun:
    """prod_{j=0}^{d-1} f(zeta_d^j w), re-expressed in z = w^d over Q.

    Requires nonzero constant terms; the product must only involve exponents
    divisible by d with rational coefficients (checked), else the input was
    not norm-equivariant.
    """
    if not (f.num and f.num[0] and f.den[0]):
        raise ValueError("nonzero constant terms are required")

    def norm(p):
        big = [CycloElement.rational(d, 1)]
        for j in range(d):
            # p(zeta_d^j w): coefficient i picks up zeta_d^{ji}
            big = _pmul(big, [CycloElement.zeta_pow(d, j * i) * c for i, c in enumerate(p)])
        out = []
        for i, c in enumerate(big):
            if i % d:
                if c:
                    raise ValueError(f"norm product has exponent {i} not divisible by {d}")
            elif c and not c.is_rational():
                raise ValueError("norm product has irrational coefficients")
            else:
                out.append(c.rational_value() if c else 0)
        return out

    return RatFun(norm(f.num), norm(f.den))
