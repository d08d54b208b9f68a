"""Self-verification suites: every structural law and closed formula in the
package, cross-checked by independent routes and reported as deterministic
pass/fail case lists.

Each suite body is a generator of rows whose parameters are the `verify`
flags it reads, under their names and with no defaults of their own (an
omitted flag takes `run_suites`' default); `_suite` makes it a function
that returns the plain dict

    {"suite": name, "cases": [...], "summary": {...}, "all_pass": bool}

whose cases carry only strings/ints/bools (rationals as "num/den"), so
serialized reports are byte-stable for a fixed seed and parameter set.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, wraps
from math import comb, factorial, gcd
from random import Random

from .bernoulli import bernoulli_measure, bernoulli_moment_closed, smoothed_b2
from .cyclotomic import CycloElement
from .formal import (
    ResiduePreconditionError,
    WeightFunction,
    cyc_symmetrize,
    dir_closed,
    dir_via_me,
    eis_of_psi,
    eis_residue_closed,
    psi_residue,
    random_residue_zero_psi,
    residue,
    residue_soule_closed,
    rewrite_soule,
    soule_elliptic,
)
from .measures import (
    GroupSpec,
    Measure,
    TorsorSpec,
    convolve,
    dirac,
    integrate,
    pushforward,
    reduce_mod,
    torsor_elements,
    trace,
)
from .moments import (
    check_functoriality,
    check_trace_compat,
    modified_moment,
    moment,
    moment_torsor,
    redeclare,
    tsym_reduce,
)
from .numutil import is_prime, mod_inverse_reduce, rat_str, vp
from .serialize import cyclo_to_json, psi_to_json
from .tsym import TSym, divided_power, exponent_tuples, sym_to_tsym, tsym_map
from .units import (
    _level,
    cusp_square_check,
    cusp_value_closed,
    epsilon_cusp_eval,
    epsilon_series,
    eta_exponent,
    norm_check_theta,
    residue_elliptic_soule,
    theta_qexp,
)

__all__ = [
    "suite_tsym",
    "suite_measures",
    "suite_moments",
    "suite_bernoulli",
    "suite_units",
    "suite_residues",
    "suite_dir",
    "run_suites",
    "SUITE_NAMES",
    "FLAGS",
]

def _row(case: str, ok: bool, **fields) -> dict:
    out = {"case": case}
    out.update(fields)
    out["pass"] = bool(ok)
    return out


# suite name -> the `verify` flags it takes, in report order (definition order)
_PARAMS: dict[str, tuple[str, ...]] = {}


def _suite(name: str):
    """Make a generator of rows a suite that returns their report.  The
    generator's parameters are the `verify` flags it reads; a flag not given
    takes its `run_suites` default (`FLAGS`), and an argument the generator
    does not take raises TypeError before any row.

    One rule for a failing row: right after its case it carries all of the
    suite's flags, as given, so that they repeat it; a passing row is kept as
    yielded.  One failure policy: any exception ends the suite with one
    failing row, `<name>_raised`, after the rows already yielded, which
    carries the flags, then the exception text (`error`) and the last case
    yielded (`after`, else None).  `run_suites` refuses bad input before any
    suite runs."""

    def wrap(gen):
        names = _PARAMS[name] = gen.__code__.co_varnames[: gen.__code__.co_argcount]

        @wraps(gen)
        def run(*args, **kwargs):
            kwargs = {n: FLAGS[n] for n in names[len(args):]} | kwargs
            cases, rows = gen(*args, **kwargs), []  # binds, or raises TypeError
            flags = dict(zip(names, args)) | kwargs  # all of names, in order
            try:
                for row in cases:
                    rows.append(row if row["pass"] else {"case": row["case"], **flags, **row})
            except Exception as e:  # a library fault is a failing row, not a crash
                rows.append(
                    _row(
                        f"{name}_raised",
                        False,
                        **flags,
                        error=f"{type(e).__name__}: {e}",
                        after=rows[-1]["case"] if rows else None,
                    )
                )
            passed = sum(1 for r in rows if r["pass"])
            return {
                "suite": name,
                "cases": rows,
                "summary": {"total": len(rows), "passed": passed, "failed": len(rows) - passed},
                "all_pass": passed == len(rows),
            }

        return run

    return wrap


# ---------------------------------------------------------------------------
# symmetric-tensor suite
# ---------------------------------------------------------------------------


@_suite("tsym")
def suite_tsym(seed: int, kmax: int):
    """Divided-power laws up to degree max(kmax, 6)."""
    kmax = max(kmax, 6)
    rng = Random(f"tsym:{seed}")

    # the addition law (g+h)^{[k]} = sum_{m+n=k} g^{[m]} h^{[n]}
    for i in range(15):
        d = rng.choice([1, 2])
        g = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
        h = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
        k = rng.randint(0, kmax)
        lhs = divided_power(tuple(a + b for a, b in zip(g, h)), k)
        rhs = TSym.zero(d, "Q")
        for m in range(k + 1):
            rhs = rhs + divided_power(g, m) * divided_power(h, k - m)
        yield _row(f"addition_law_{i}", lhs == rhs, d=d, k=k)

    # the basis product rule through explicit binomials
    for i in range(10):
        d = rng.choice([1, 2])
        ka = rng.randint(0, 3)
        kb = rng.randint(0, min(3, kmax - ka))
        a = rng.choice(exponent_tuples(d, ka))
        b = rng.choice(exponent_tuples(d, kb))
        w = 1
        for x, y in zip(a, b):
            w *= comb(x + y, x)
        lhs = TSym.basis(d, a) * TSym.basis(d, b)
        rhs = TSym.basis(d, tuple(x + y for x, y in zip(a, b)), coeff=w)
        yield _row(f"product_rule_{i}", lhs == rhs, a=list(a), b=list(b))

    # the map from the symmetric algebra is a ring homomorphism
    for i in range(10):
        d = rng.choice([1, 2])
        ka = rng.randint(0, 3)
        kb = rng.randint(0, min(3, kmax - ka))
        a = rng.choice(exponent_tuples(d, ka))
        b = rng.choice(exponent_tuples(d, kb))
        lhs = sym_to_tsym(a) * sym_to_tsym(b)
        rhs = sym_to_tsym(tuple(x + y for x, y in zip(a, b)))
        yield _row(f"sym_hom_{i}", lhs == rhs, a=list(a), b=list(b))

    # rank-2 degree-k component has dimension k + 1
    for k in range(kmax + 1):
        yield _row(f"dimension_k{k}", len(exponent_tuples(2, k)) == k + 1, k=k)

    # functoriality: composite matrices act as composed maps
    for i in range(10):
        phi = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        psi = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        comp = [
            [sum(phi[r][m] * psi[m][s] for m in range(2)) for s in range(2)]
            for r in range(2)
        ]
        a = TSym.zero(2, "Q")
        for _ in range(3):
            n = tuple(rng.randint(0, 2) for _ in range(2))
            a = a + TSym.basis(2, n, coeff=rng.randint(-5, 5))
        lhs = tsym_map(comp, a)
        rhs = tsym_map(phi, tsym_map(psi, a))
        yield _row(f"functor_composition_{i}", lhs == rhs)

    # a scalar acts as the scalar matrix
    for i in range(5):
        c = rng.randint(-4, 4)
        a = TSym.basis(2, (rng.randint(0, 2), rng.randint(0, 2)), coeff=rng.randint(-5, 5))
        yield _row(
            f"scalar_matrix_{i}",
            tsym_map(c, a) == tsym_map([[c, 0], [0, c]], a),
            c=c,
        )

    # reduction mod m commutes with the product
    for i in range(5):
        m = rng.choice([4, 5, 8, 9])
        d = rng.choice([1, 2])
        a = TSym.basis(d, tuple(rng.randint(0, 2) for _ in range(d)), "Z", rng.randint(-9, 9))
        b = TSym.basis(d, tuple(rng.randint(0, 2) for _ in range(d)), "Z", rng.randint(-9, 9))
        lhs = (a * b).base_change(f"Z/{m}")
        rhs = a.base_change(f"Z/{m}") * b.base_change(f"Z/{m}")
        yield _row(f"reduction_commutes_{i}", lhs == rhs, m=m)

    spot = TSym.basis(1, (2,)) * TSym.basis(1, (3,))
    yield _row("spot_e2_e3", spot == TSym.basis(1, (5,), coeff=10), expected="10*e^[5]")


# ---------------------------------------------------------------------------
# measure-algebra suite
# ---------------------------------------------------------------------------


@_suite("measures")
def suite_measures(seed: int):
    rng = Random(f"measures:{seed}")

    z6 = GroupSpec(6)
    yield _row(
        "spot_dirac_convolution",
        convolve(dirac(z6, 1), dirac(z6, 2)) == dirac(z6, 3),
    )

    z8 = GroupSpec(8)
    step = dirac(z8, 1) - dirac(z8, 0)
    expect = dirac(z8, 2) - dirac(z8, 1).scale(2) + dirac(z8, 0)
    yield _row("spot_convolution_square", convolve(step, step) == expect)

    fib = torsor_elements(TorsorSpec(2, 1, 3, 1, "reduction", (1,)))
    yield _row("spot_fiber_elements", fib == [(1,), (4,)], fiber=[list(x) for x in fib])
    same = torsor_elements(TorsorSpec(2, 1, 3, 1, "multiplication", (1,))) == fib
    yield _row("flavors_share_fibers", same)

    for i in range(5):
        ell = rng.choice([2, 3, 5])
        r = rng.randint(0, 2)
        N = rng.choice([n for n in (3, 4, 5) if gcd(n, ell) == 1])
        d = rng.choice([1, 2])
        t = tuple(rng.randrange(N) for _ in range(d))
        spec = TorsorSpec(ell, r, N, d, "reduction", t)
        yield _row(
            f"fiber_cardinality_{i}",
            len(torsor_elements(spec)) == ell ** (r * d),
            ell=ell,
            r=r,
            N=N,
            d=d,
        )

    # base points add under convolution
    for i in range(3):
        spec1 = TorsorSpec(2, 1, 5, 1, "reduction", (rng.randrange(5),))
        spec2 = spec1.with_t((rng.randrange(5),))
        mu = dirac(spec1, spec1.t[0] + 5 * rng.randrange(2))
        nu = dirac(spec2, spec2.t[0] + 5 * rng.randrange(2))
        out = convolve(mu, nu)
        yield _row(
            f"torsor_convolution_{i}",
            out.spec.t == ((spec1.t[0] + spec2.t[0]) % 5,),
        )

    # pushforward composition laws
    for i in range(5):
        spec = TorsorSpec(3, 1, 4, 1, "reduction", (rng.randrange(4),))
        mu = Measure(
            spec,
            {x: rng.randint(-9, 9) for x in torsor_elements(spec)},
        )
        double_neg = pushforward("neg", pushforward("neg", mu)) == mu
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        mult_comp = pushforward(("mult", a), pushforward(("mult", b), mu)) == pushforward(
            ("mult", a * b), mu
        )
        yield _row(f"pushforward_composition_{i}", double_neg and mult_comp)

    # total mass is preserved by pushforwards and traces
    for i in range(5):
        spec = TorsorSpec(2, 2, 3, 1, "reduction", (rng.randrange(3),))
        mu = Measure(spec, {x: rng.randint(-9, 9) for x in torsor_elements(spec)})
        ok = (
            pushforward("neg", mu).total_mass() == mu.total_mass()
            and trace(mu).total_mass() == mu.total_mass()
        )
        yield _row(f"mass_invariance_{i}", ok)

    # one level of trace sends the smoothed measure to the one below
    for ell, N, c in ((2, 3, 5), (3, 4, 5), (2, 5, 7)):
        for r in (1, 2):
            hi = bernoulli_measure(ell, r, N, c, 1)
            lo = bernoulli_measure(ell, r - 1, N, c, 1)
            yield _row(
                f"trace_tower_ell{ell}_N{N}_c{c}_r{r}",
                trace(hi) == lo,
                ell=ell,
                N=N,
                c=c,
                r=r,
            )

    spot = integrate(bernoulli_measure(5, 1, 3, 7, 1), lambda x: x)
    yield _row(
        "spot_first_moment",
        spot == Fraction(-181),
        value=rat_str(spot),
        expected="-181",
    )

    mu = Measure(GroupSpec(4), {1: Fraction(14, 5)})
    red = reduce_mod(mu, 4, ell=2)
    yield _row("reduce_invertible_denominator", red == {(1,): 2}, expected="2")
    try:
        reduce_mod(Measure(GroupSpec(4), {1: Fraction(1, 2)}), 2, ell=2)
        ok = False
    except ArithmeticError:
        ok = True
    yield _row("reduce_rejects_ell_denominator", ok)


# ---------------------------------------------------------------------------
# moment-map suite
# ---------------------------------------------------------------------------


def _random_torsor(rng: Random, d: int | None = None, rmin: int = 1) -> TorsorSpec:
    ell = rng.choice([2, 3, 5])
    r = rng.randint(rmin, 2)
    N = rng.choice([n for n in (3, 4, 5, 7) if gcd(n, ell) == 1])
    if d is None:
        d = rng.choice([1, 2])
    t = tuple(rng.randrange(N) for _ in range(d))
    flavor = rng.choice(["reduction", "multiplication"])
    return TorsorSpec(ell, r, N, d, flavor, t)


def _random_measure(spec, rng: Random, npts: int = 3) -> Measure:
    elems = torsor_elements(spec)
    pts = rng.sample(elems, min(npts, len(elems)))
    return Measure(spec, {p: rng.randint(-9, 9) for p in pts})


@_suite("moments")
def suite_moments(seed: int, kmax: int):
    rng = Random(f"moments:{seed}")

    # point masses: the moment is the divided power of the coordinates
    for i in range(15):
        spec = _random_torsor(rng)
        x = rng.choice(torsor_elements(spec))
        k = rng.randint(0, kmax)
        q = spec.ell ** spec.r
        lhs = moment_torsor(dirac(spec, x), k)
        rhs = divided_power(tuple(xi % q for xi in x), k)
        yield _row(f"dirac_exact_{i}", lhs == rhs, k=k)
    for i in range(5):
        spec = GroupSpec(rng.choice([5, 6, 8]), rng.choice([1, 2]))
        x = tuple(rng.randrange(spec.m) for _ in range(spec.d))
        k = rng.randint(0, kmax)
        lhs = moment(dirac(spec, x), k)
        yield _row(f"dirac_group_{i}", lhs == divided_power(x, k), k=k)

    # convolution: moments multiply degreewise, as a congruence at level r
    for i in range(20):
        spec = _random_torsor(rng)
        mu = _random_measure(spec, rng)
        nu = _random_measure(spec.with_t(tuple(rng.randrange(spec.N) for _ in range(spec.d))), rng)
        k = rng.randint(0, kmax)
        q = spec.ell ** spec.r
        lhs = tsym_reduce(moment_torsor(convolve(mu, nu), k), q)
        acc = TSym.zero(spec.d, "Q")
        for m in range(k + 1):
            acc = acc + moment_torsor(mu, m) * moment_torsor(nu, k - m)
        yield _row(f"convolution_{i}", lhs == tsym_reduce(acc, q), k=k)
    for i in range(10):
        spec = GroupSpec(rng.choice([5, 6, 8, 9]), rng.choice([1, 2]))
        mu = _random_measure(spec, rng)
        nu = _random_measure(spec, rng)
        k = rng.randint(0, kmax)
        lhs = tsym_reduce(moment(convolve(mu, nu), k), spec.m)
        acc = TSym.zero(spec.d, "Q")
        for m in range(k + 1):
            acc = acc + moment(mu, m) * moment(nu, k - m)
        yield _row(f"convolution_group_{i}", lhs == tsym_reduce(acc, spec.m), k=k)

    # inversion, scaling, projection: functoriality of the moment map
    for i in range(10):
        spec = _random_torsor(rng)
        mu = _random_measure(spec, rng)
        k = rng.randint(0, kmax)
        yield _row(f"negation_{i}", check_functoriality("neg", mu, k), k=k)
    for i in range(10):
        spec = _random_torsor(rng)
        mu = _random_measure(spec, rng)
        k = rng.randint(0, kmax)
        a = rng.randint(0, 10)
        yield _row(f"multiplication_{i}", check_functoriality(("mult", a), mu, k), a=a, k=k)
    for i in range(5):
        spec = _random_torsor(rng, d=2)
        mu = _random_measure(spec, rng)
        k = rng.randint(0, kmax)
        j = rng.choice([0, 1])
        yield _row(f"projection_{i}", check_functoriality(("proj", j), mu, k), j=j, k=k)

    # level reduction: traces match moments mod ell^r
    for i in range(10):
        spec = _random_torsor(rng, rmin=2)
        mu = _random_measure(spec, rng, npts=4)
        k = rng.randint(0, kmax)
        q = spec.ell ** (spec.r - 1)
        lhs = tsym_reduce(moment_torsor(trace(mu), k), q)
        rhs = tsym_reduce(moment_torsor(mu, k), q)
        yield _row(f"trace_congruence_{i}", lhs == rhs, k=k)

    # full towers of smoothed measures are trace-compatible at every level
    for ell, N, c in ((2, 3, 5), (3, 4, 5), (5, 3, 7)):
        tower = [bernoulli_measure(ell, r, N, c, 1) for r in range(3)]
        for k in (1, 2):
            res = check_trace_compat(tower, k)
            yield _row(
                f"tower_compat_ell{ell}_N{N}_k{k}",
                res["ok"],
                ell=ell,
                N=N,
                c=c,
                k=k,
                **({} if res["ok"] else {"failed_level": res["failed_level"]}),
            )

    # declaring the same datum at level m*N multiplies moments by m^k
    for i in range(10):
        spec = _random_torsor(rng, d=1)
        mu = _random_measure(spec, rng)
        k = rng.randint(0, kmax)
        m = rng.choice([x for x in (2, 3, 4) if gcd(x, spec.ell) == 1])
        q = spec.ell ** spec.r
        lhs = tsym_reduce(moment_torsor(redeclare(mu, m), k), q)
        rhs = tsym_reduce(tsym_map(m, moment_torsor(mu, k)), q)
        yield _row(f"redeclare_{i}", lhs == rhs, m=m, k=k)

    # ... and the weighted moments agree mod ell^{r - v_ell(k!)}; the sides
    # may have ell in their denominators, so closeness is measured by the
    # ell-adic valuation of the difference rather than by residue classes
    for i in range(8):
        spec = _random_torsor(rng, d=1)
        mu = _random_measure(spec, rng)
        k = rng.randint(1, kmax)
        m = rng.choice([x for x in (2, 3, 4) if gcd(x, spec.ell) == 1])
        drop = vp(factorial(k), spec.ell)
        power = spec.r - drop
        if power <= 0:
            yield _row(f"weighted_redeclare_{i}", True, skipped="trivial modulus")
            continue
        diff = modified_moment(redeclare(mu, m), k) - modified_moment(mu, k)
        ok = diff == 0 or (
            vp(diff.numerator, spec.ell) - vp(diff.denominator, spec.ell) >= power
        )
        yield _row(f"weighted_redeclare_{i}", ok, m=m, k=k, required_valuation=power)

    # frozen spot values
    spot = moment(dirac(GroupSpec(8, 2), (1, 2)), 2)
    want = (
        TSym.basis(2, (2, 0))
        + TSym.basis(2, (1, 1), coeff=2)
        + TSym.basis(2, (0, 2), coeff=4)
    )
    yield _row("spot_dirac_12", spot == want)

    mu181 = bernoulli_measure(5, 1, 3, 7, 1)
    raw1 = integrate(mu181, lambda x: Fraction(x))
    tor1 = moment_torsor(mu181, 1).coeff((1,))
    closed = bernoulli_moment_closed(1, 3, 7, 1)
    yield _row(
        "spot_first_moment_congruence",
        raw1 == -181
        and mod_inverse_reduce(tor1, 5, 5) == 4
        and mod_inverse_reduce(raw1, 5, 5) == 4
        and mod_inverse_reduce(closed, 5, 5) == 4,
        finite=rat_str(raw1),
        torsor=rat_str(tor1),
        closed=rat_str(closed),
    )
    mu62 = bernoulli_measure(2, 2, 3, 5, 1)
    raw2 = integrate(mu62, lambda x: Fraction(x))
    tor2 = moment_torsor(mu62, 1).coeff((1,))
    yield _row(
        "spot_level2_congruence",
        raw2 == -62
        and mod_inverse_reduce(tor2, 4, 2) == 2
        and mod_inverse_reduce(raw2, 4, 2) == 2,
        finite=rat_str(raw2),
        torsor=rat_str(tor2),
    )
    wt_raw = raw1 / Fraction(3)
    wt_mod = modified_moment(mu181, 1)
    wt_closed = closed / 3
    yield _row(
        "spot_weighted_moment",
        wt_raw == Fraction(-181, 3)
        and wt_closed == Fraction(38, 21)
        and mod_inverse_reduce(wt_raw - wt_mod, 5, 5) == 0
        and mod_inverse_reduce(wt_raw - wt_closed, 5, 5) == 0,
        weighted=rat_str(wt_raw),
        modified=rat_str(wt_mod),
        closed=rat_str(wt_closed),
    )


# ---------------------------------------------------------------------------
# smoothed-measure congruence suite
# ---------------------------------------------------------------------------


def _family(name: str, ell: int, N: int, c: int) -> None:
    """Refuse (ValueError: suite `name` has no cases) an (ell, N, c) outside
    the bernoulli, units and residues suites' family: N >= 2 and
    `units._level`'s check.  bernoulli alone checks |c|, so its c = +-1,
    where every row would pass vacuously (both sides are 0), is refused and
    its c < -1 is not.  A non-prime ell is refused as such, for every suite."""
    if not is_prime(ell):
        raise ValueError(f"ell = {ell} must be prime")
    no_cases = f"suite {name!r} has no cases for ell = {ell}, N = {N}, c = {c}: "
    if N < 2:
        raise ValueError(no_cases + f"N = {N} must be at least 2")
    try:
        if name == "bernoulli":
            _level(ell, 0, N, abs(c), "|c|")
        else:
            _level(ell, 0, N, c)
    except ValueError as e:
        raise ValueError(no_cases + str(e)) from None


@_suite("bernoulli")
def suite_bernoulli(ell: int, N: int, c: int, rmax: int, kmax: int):
    """Finite moments against the closed form mod ell^r, r = 1 .. rmax, for
    (ell, N, +-c) in the family."""
    _family("bernoulli", ell, N, c)
    for r in range(1, rmax + 1):
        q = ell ** r
        for t in range(N):
            mu = bernoulli_measure(ell, r, N, c, t)
            for k in range(kmax + 1):
                finite = integrate(mu, lambda x: Fraction(x) ** k)
                closed = bernoulli_moment_closed(k, N, c, t)
                try:
                    congruent = mod_inverse_reduce(finite - closed, q, ell) == 0
                except ArithmeticError:
                    congruent = False
                yield _row(
                    f"congruence_ell{ell}_r{r}_N{N}_c{c}_t{t}_k{k}",
                    congruent,
                    ell=ell,
                    r=r,
                    N=N,
                    c=c,
                    t=t,
                    k=k,
                    finite_sum=rat_str(finite),
                    closed_value=rat_str(closed),
                    congruent=congruent,
                )


# ---------------------------------------------------------------------------
# q-expansion suite
# ---------------------------------------------------------------------------


@_suite("units")
def suite_units(ell: int, N: int, c: int, trunc: int):
    M = ell * N  # level at r = 1

    f = theta_qexp(ell, 1, N, c, (1, 0), trunc)
    yield _row(
        "theta_valuation_spot",
        f.valuation() == Fraction(smoothed_b2(M, c, 1), M) and f.T == trunc,
        valuation=rat_str(f.valuation()),
        window=f.T,
    )

    # valuations across the whole level agree with the exponent formula; a
    # failing row names the first point that differs, with both valuations
    miss = {}
    for x in range(M):
        for y in range(M):
            if (x, y) == (0, 0):
                continue
            e0 = smoothed_b2(M, c, x)
            v = theta_qexp(ell, 1, N, c, (x, y), int(e0) + 3).valuation()
            if v != Fraction(e0, M) and not miss:
                miss = {
                    "point": [x, y],
                    "valuation": rat_str(v),
                    "smoothed_b2": rat_str(Fraction(e0, M)),
                }
    yield _row(f"theta_valuations_level{M}", not miss, level=M, **miss)

    got = residue_elliptic_soule(ell, 1, N, c, (1, 1))
    want = bernoulli_measure(ell, 1, N, c, 1)
    yield _row("residue_matches_smoothed_measure", got == want, **_first_difference(got, want))

    # x = 1 keeps its windows 12 and 24 where they pass the base's leading
    # exponent 2 e0 (in q^{1/2 base}), and else runs that far past it.  At
    # x = 0 the base leads at q^e, e = (c^2 - 1)/12, and each window reaches
    # its q^e, q^{e+1} and q^{e+2} coefficients.  d = 2, 3 is prime to c, as
    # the family takes c prime to 6
    norms = []
    for r, w in ((0, 12), (1, 24)):
        lead = 2 * eta_exponent(ell, r, N, c, 1)
        norms.append(("norm_compatibility", 2, ell ** r * N, (1, 1), w if w > lead else lead + w))
    e = (c * c - 1) // 12
    norms += [("norm_x0", d, b, (0, 1), d * b * (e + 3)) for d in (2, 3) for b in (N, M)]
    for kind, d, base, pt, window in norms:
        rep = norm_check_theta(base, d, c, pt, window)
        yield _row(
            f"{kind}_{base}_to_{d * base}",
            rep["ok"] and rep["window"] >= window,
            level=rep["level"],
            window=rep["window"],
            mismatches=rep["mismatches"],
            **{k: v for k, v in rep.items() if k == "first_mismatch"},
        )

    eps = epsilon_series(ell, 1, N, c, (1, 0), 6)
    yield _row(
        "normalized_unit_valuation",
        eps.valuation() == 0,
        valuation=rat_str(eps.valuation()),
    )

    # both cusp routes take the same cached Xi_c, so each constant term is
    # also checked division-free, by a route that shares no code with it:
    # ct (1 - zeta^{cy}) == (-zeta^y)^h (1 - zeta^y)^{c^2}, h = (c - c^2)/2
    h = (c - c * c) // 2
    sign = -1 if h % 2 else 1
    for r in (1, 2):
        Mr = ell ** r * N
        one = CycloElement.rational(Mr, 1)
        for y in range(1, Mr):
            ct = epsilon_cusp_eval(ell, r, N, c, y)
            closed = cusp_value_closed(Mr, c, y)
            miss = {} if ct == closed else {
                "constant_term": cyclo_to_json(ct),
                "closed": cyclo_to_json(closed),
            }
            power = (one - CycloElement.zeta_pow(Mr, y)) ** (c * c)
            rhs = power * CycloElement.zeta_pow(Mr, h * y) * sign
            division_free = ct * (one - CycloElement.zeta_pow(Mr, c * y)) == rhs
            yield _row(
                f"cusp_value_r{r}_y{y}",
                not miss and division_free and cusp_square_check(Mr, c, y),
                r=r,
                y=y,
                **miss,
            )

    spot = cusp_value_closed(6, 5, 3)
    yield _row(
        "cusp_spot_power_of_two",
        spot == CycloElement.rational(6, 2 ** 24),
        expected="2^24",
    )


# ---------------------------------------------------------------------------
# residue suite: series valuations against the smoothed measure
# ---------------------------------------------------------------------------


def _first_difference(got: Measure, want: Measure) -> dict:
    """{} if the two measures are equal; else the first fiber point where
    their values differ, with the residue route's value and the Bernoulli
    measure's."""
    for x in sorted(got.values.keys() | want.values.keys()):
        a, b = got.values.get(x, 0), want.values.get(x, 0)
        if a != b:
            return {"fiber_point": list(x), "residue_value": rat_str(a), "bernoulli_value": rat_str(b)}
    return {}


@_suite("residues")
def suite_residues(ell: int, N: int, c: int, rmax: int):
    """The residue route against the Bernoulli measure at every t != (0, 0),
    for r = 1 .. rmax and then the degenerate r = 0."""
    for r in (*range(1, rmax + 1), 0):
        for t1 in range(N):
            for t2 in range(N):
                if (t1, t2) == (0, 0):
                    continue
                got = residue_elliptic_soule(ell, r, N, c, (t1, t2))
                want = bernoulli_measure(ell, r, N, c, t1)
                yield _row(
                    f"residue_ell{ell}_r{r}_N{N}_c{c}_t{t1}_{t2}",
                    got == want,
                    ell=ell,
                    r=r,
                    N=N,
                    c=c,
                    t=[t1, t2],
                    **_first_difference(got, want),
                )


# ---------------------------------------------------------------------------
# boundary-formula suite: two routes to the cusp
# ---------------------------------------------------------------------------

DIR_GRID = ((3, (7, 13)), (4, (5, 13)), (5, (11, 31)))
DIR_COUNT = 50  # seeded residue-zero weight functions per (N, k) of DIR_GRID


def _first_miss(psis: list, check) -> dict:
    """{} if check(i, psis[i]) holds for every i; else the index of the first
    failing psi and that psi, which with the suite's seed reproduce the row.
    A check that raises fails too, and the row also carries the exception
    text."""
    for i, p in enumerate(psis):
        try:
            if check(i, p):
                continue
            error = {}
        except Exception as e:  # a raising route is a failing row, not a crash
            error = {"error": f"{type(e).__name__}: {e}"}
        return {"index": i, "psi": psi_to_json(p), **error}
    return {}


def _first_soule_miss(k: int, N: int, c: int) -> dict:
    """{} if the closed residue of the smoothed symbol at every t = (a, b) !=
    (0, 0) mod N equals the residue of its expansion; else the first t that
    differs, with both values.  The closed value reads a only: it is computed
    once per a, at a nonzero point."""
    for a in range(N):
        closed = residue_soule_closed(k, N, c, (a, 0) if a else (0, 1))
        for b in range(N):
            if (a, b) == (0, 0):
                continue
            expansion = residue(soule_elliptic(k, N, c, (a, b)))
            if expansion != closed:
                return {"t": [a, b], "closed": rat_str(closed), "expansion": rat_str(expansion)}
    return {}


@_suite("dir")
def suite_dir(seed: int, kmax: int):
    # closed residues of smoothed symbols match their expansions
    for N in (2, 3, 4, 5):
        for k in range(1, 7):
            for c in (5, 7, 11, 13):
                if gcd(c, N) != 1:
                    continue
                miss = _first_soule_miss(k, N, c)
                yield _row(f"soule_residue_closed_N{N}_k{k}_c{c}", not miss, **miss)

    spot = eis_residue_closed(2, 3, (1, 0))
    yield _row(
        "spot_residue_value",
        spot == Fraction(-13, 720),
        value=rat_str(spot),
        expected="-13/720",
    )

    for N, cpair in DIR_GRID:
        for k in range(1, kmax + 1):
            rng = Random(f"dir:{seed}:{N}:{k}")
            psis = [random_residue_zero_psi(N, k, rng) for _ in range(DIR_COUNT)]
            # the symbol route, independent of the functional the generator solves with
            miss = _first_miss(psis, lambda i, p: residue(eis_of_psi(p)) == 0)
            yield _row(f"residue_zero_N{N}_k{k}", not miss, count=DIR_COUNT, **miss)
            closed = cache(lambda i: dir_closed(psis[i]))  # shared by both c
            for c in cpair:
                miss = _first_miss(psis, lambda i, p: closed(i) == dir_via_me(p, c))
                yield _row(
                    f"two_route_N{N}_k{k}_c{c}",
                    not miss,
                    N=N,
                    k=k,
                    c=c,
                    count=DIR_COUNT,
                    **miss,
                )
            raw = [
                random_residue_zero_psi(N, k, rng, parity=False) for _ in range(5)
            ]
            miss = _first_miss(
                raw, lambda i, p: cyc_symmetrize(dir_closed(p), k) == dir_via_me(p, cpair[0])
            )
            yield _row(f"raw_symmetrized_N{N}_k{k}", not miss, c=cpair[0], count=5, **miss)

    # the precondition is enforced on both routes
    bad = WeightFunction(2, 3, {(1, 0): 1})
    caught = 0
    for route in (dir_closed, lambda p: dir_via_me(p, 7)):
        try:
            route(bad)
        except ResiduePreconditionError as e:
            caught += e.residue == psi_residue(bad)
    yield _row("nonzero_residue_rejected", caught == 2)

    # the worked example: residue cancels, boundary has equal coefficients
    psi = WeightFunction(2, 3, {(0, 1): 13, (0, 2): 13, (1, 0): 27, (2, 0): 27})
    ok = psi_residue(psi) == 0
    out = dir_closed(psi)
    coeffs = sorted(rat_str(v) for v in out.coeffs.values())
    ok = ok and coeffs == ["-13/6", "-13/6"]
    ok = ok and dir_via_me(psi, 7) == out and dir_via_me(psi, 13) == out
    yield _row("worked_example", ok, coefficients=coeffs)

    # smoothing expansion spot: the rewritten symbol at c = 5
    fc = rewrite_soule(soule_elliptic(2, 3, 5, (1, 0)))
    want = Fraction(-3) * (Fraction(25) - Fraction(1, 25))
    got = sum(fc.coeffs.values(), Fraction(0))
    yield _row(
        "spot_smoothing_expansion",
        got == want,
        coefficient_sum=rat_str(got),
        expected=rat_str(want),
    )


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


SUITE_NAMES = tuple(_PARAMS)


def _check_suites(
    names, ell: int, N: int, c: int, rmax: int, kmax: int, trunc: int, seed: int
) -> None:
    """`run_suites`' refusals, each a ValueError: rmax or kmax below 1, an
    unknown suite, an (ell, N, c) outside `_family`, or a units --trunc not
    past the leading exponent of its spot expansion.  It takes every `verify`
    flag, as `run_suites` does; any seed is admitted."""
    for flag, value in (("rmax", rmax), ("kmax", kmax)):
        if value < 1:
            raise ValueError(f"--{flag} must be at least 1, got {value}")
    for name in names:
        if name not in _PARAMS:
            raise ValueError(f"unknown suite {name!r}")
    if family := [n for n in names if "c" in _PARAMS[n]]:
        # units and residues take c as given, bernoulli |c|: check the strictest
        _family(next((n for n in family if n != "bernoulli"), family[0]), ell, N, c)
    if "units" in names and trunc <= (e0 := eta_exponent(ell, 1, N, c, 1)):
        raise ValueError(f"--trunc = {trunc} must exceed the leading exponent {e0}")


def run_suites(
    names,
    ell: int = 2,
    N: int = 3,
    c: int = 5,
    rmax: int = 2,
    kmax: int = 4,
    trunc: int = 40,
    seed: int = 0,
) -> dict:
    """Run the named suites with the `verify` flags as parameters: each
    suite is called with the flags it takes, under their names.  This
    signature is the one declaration of the flags and their defaults
    (`FLAGS`).

    The dir suite keeps its own admissible grid (its smoothing factors must
    be 1 mod N); the suites that take c restrict to the requested (ell, N, c)
    family.  Every refusal (`_check_suites`) is a ValueError raised before
    any suite runs.
    """
    params = dict(ell=ell, N=N, c=c, rmax=rmax, kmax=kmax, trunc=trunc, seed=seed)
    _check_suites(names, **params)
    # looked up at call time, so a rebinding of `suite_<name>` is the one run
    reports = [globals()[f"suite_{n}"](**{p: params[p] for p in _PARAMS[n]}) for n in names]
    if len(reports) == 1:
        return reports[0]
    total = sum(r["summary"]["total"] for r in reports)
    passed = sum(r["summary"]["passed"] for r in reports)
    return {
        "suite": "all",
        "suites": reports,
        "summary": {"total": total, "passed": passed, "failed": total - passed},
        "all_pass": passed == total,
    }


# the `verify` flags -> their defaults, read off `run_suites`' signature, the
# one place they are written: a suite not given a flag, and the `verify`
# command's parser, take it from here
FLAGS = dict(zip(run_suites.__code__.co_varnames[1:], run_suites.__defaults__))
