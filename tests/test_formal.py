"""Formal class calculus: symbols, rewriting, residues, boundary values."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from ellsoule.formal import (
    CycSym,
    EisSym,
    FormalClass,
    ResiduePreconditionError,
    SouleSym,
    WeightFunction,
    cyc_symmetrize,
    dir_closed,
    dir_via_me,
    eis,
    eis_of_psi,
    eis_residue_closed,
    parity_project,
    psi_residue,
    random_residue_zero_psi,
    residue,
    residue_soule_closed,
    residue_table,
    rewrite_soule,
    soule_elliptic,
)


def test_symbols_reject_origin():
    with pytest.raises(ValueError):
        EisSym(2, 3, (0, 0))
    with pytest.raises(ValueError):
        EisSym(2, 3, (3, 6))  # reduces to the origin mod 3
    with pytest.raises(ValueError):
        CycSym(2, 3, 0)


def test_canonicalization_uses_parity():
    # Eis^k(-t) = (-1)^k Eis^k(t): both spellings canonicalize identically
    a = eis(2, 5, (4, 3))
    b = eis(2, 5, (1, 2)).scale(1)
    assert a == b
    c = eis(3, 5, (4, 3))
    assert c == eis(3, 5, (1, 2)).scale(-1)


def test_odd_weight_two_torsion_vanishes():
    # t = -t and odd k force the symbol to zero
    assert eis(3, 2, (1, 0)) == FormalClass({})
    assert eis(3, 4, (2, 2)) == FormalClass({})
    # even weight keeps it
    assert eis(2, 2, (1, 0)) != FormalClass({})


@given(st.integers(1, 5), st.integers(0, 4), st.integers(0, 4))
def test_class_algebra_is_linear(k, a, b):
    if (a % 5, b % 5) == (0, 0):
        return
    x = eis(k, 5, (a, b))
    assert x - x == FormalClass({})
    assert x.scale(3) == x + x + x
    assert (-x).scale(-1) == x


def test_rewrite_soule_expansion():
    # _ce_k(t) = -N(c^2 Eis^k(t) - c^{-k} Eis^k(ct))
    got = rewrite_soule(soule_elliptic(2, 3, 5, (1, 0)))
    want = eis(2, 3, (1, 0)).scale(-3 * 25) + eis(2, 3, (2, 0)).scale(
        3 * Fraction(1, 25)
    )
    assert got == want


def test_rewrite_leaves_eis_alone():
    x = eis(2, 3, (1, 1))
    assert rewrite_soule(x) == x


def test_eis_residue_spots():
    assert eis_residue_closed(2, 3, (1, 0)) == Fraction(-13, 720)
    assert eis_residue_closed(2, 3, (0, 1)) == Fraction(3, 80)


def test_residue_table_shape():
    rows = residue_table(3, 2)
    assert len(rows) == 8
    assert rows[0] == (0, 1, Fraction(3, 80))
    assert rows[2] == (1, 0, Fraction(-13, 720))


def test_residue_of_soule_spot():
    # -3(25 - 1/25) * (-13/720) + parity bookkeeping, frozen end to end
    val = residue(soule_elliptic(2, 3, 5, (1, 0)))
    assert val == Fraction(-1872, 25) * Fraction(-13, 720)


def test_residue_soule_closed_consistency():
    for k in (1, 2, 3):
        for t in ((1, 0), (1, 1), (2, 1)):
            via_expansion = residue(soule_elliptic(k, 3, 7, t))
            assert via_expansion == residue_soule_closed(k, 3, 7, t)


def test_residue_soule_closed_spot():
    assert residue_soule_closed(2, 3, 7, (1, 0)) == Fraction(130, 49)


def test_residue_rejects_cyclotomic_span():
    x = FormalClass({CycSym(2, 3, 1): Fraction(1)})
    with pytest.raises(ValueError):
        residue(x)


def test_weight_function_basics():
    psi = WeightFunction(2, 3, {(1, 0): 5, (0, 1): -5})
    assert psi((1, 0)) == 5
    assert psi((4, 3)) == 5  # reduced mod 3
    assert psi((2, 2)) == 0
    with pytest.raises(ValueError):
        WeightFunction(2, 3, {(0, 0): 1})


@given(st.integers(1, 4))
def test_parity_projection_is_idempotent_and_residue_safe(k):
    rng = Random(f"parity:{k}")
    psi = random_residue_zero_psi(4, k, rng, parity=False)
    proj = parity_project(psi)
    assert parity_project(proj) == proj
    assert psi_residue(proj) == psi_residue(psi) == 0


def test_random_residue_zero_psi_is_seeded():
    a = random_residue_zero_psi(3, 2, Random("fixed"))
    b = random_residue_zero_psi(3, 2, Random("fixed"))
    assert a == b
    assert psi_residue(a) == 0


def test_dir_two_routes_agree():
    for N, c in ((3, 7), (4, 5), (5, 11)):
        for k in (1, 2, 3):
            rng = Random(f"routes:{N}:{k}")
            for _ in range(5):
                psi = random_residue_zero_psi(N, k, rng)
                assert dir_closed(psi) == dir_via_me(psi, c)


def test_dir_worked_example():
    # vertical values 13 cancel the horizontal 27s in the residue exactly
    psi = WeightFunction(2, 3, {(0, 1): 13, (0, 2): 13, (1, 0): 27, (2, 0): 27})
    assert psi_residue(psi) == 0
    out = dir_closed(psi)
    coeffs = {sym.b: v for sym, v in out.coeffs.items()}
    assert coeffs == {1: Fraction(-13, 6), 2: Fraction(-13, 6)}
    assert out == dir_via_me(psi, 7)
    assert out == dir_via_me(psi, 13)


def test_dir_rejects_nonzero_residue():
    psi = WeightFunction(2, 3, {t: 1 for t in [(0, 1), (1, 0), (1, 1)]})
    res = psi_residue(psi)
    assert res != 0
    with pytest.raises(ResiduePreconditionError) as e1:
        dir_closed(psi)
    with pytest.raises(ResiduePreconditionError) as e2:
        dir_via_me(psi, 7)
    assert e1.value.residue == e2.value.residue == res


def test_dir_via_me_validates_smoothing():
    psi = random_residue_zero_psi(3, 2, Random("args"))
    with pytest.raises(ValueError):
        dir_via_me(psi, 5)  # 5 is not 1 mod 3
    with pytest.raises(ValueError):
        dir_via_me(psi, 1)  # needs c > 1


def test_cyc_symmetrize_matches_parity_projection():
    # symmetrizing the raw boundary value equals projecting psi first
    rng = Random("sym")
    psi = random_residue_zero_psi(4, 2, rng, parity=False)
    raw = dir_closed(psi)
    proj = dir_closed(parity_project(psi))
    assert cyc_symmetrize(raw, 2) == proj


def test_cyc_symmetrize_rejects_eis_span():
    with pytest.raises(ValueError):
        cyc_symmetrize(eis(2, 3, (1, 0)), 2)


# -- the direct residue functional and the b-fiber read, against the symbol route


@st.composite
def weight_functions(draw):
    N = draw(st.integers(2, 6))
    k = draw(st.integers(0, 5))
    points = [(a, b) for a in range(N) for b in range(N) if (a, b) != (0, 0)]
    values = draw(
        st.dictionaries(
            st.sampled_from(points),
            st.fractions(min_value=-50, max_value=50, max_denominator=12),
        )
    )
    return WeightFunction(k, N, values)


@given(weight_functions())
@example(WeightFunction(2, 3, {(1, 0): 1}))  # nonzero residue -13/720
@example(WeightFunction(3, 4, {(2, 2): 1, (2, 0): 5, (0, 2): -2, (1, 3): 7}))
@example(WeightFunction(3, 2, {(1, 0): 1, (1, 1): 2, (0, 1): 3}))  # only 2-torsion
def test_psi_residue_matches_symbol_route(psi):
    assert psi_residue(psi) == residue(eis_of_psi(psi))


DIR_CASES = [(3, 7), (3, 13), (4, 5), (5, 11), (6, 7)]


@given(
    st.integers(0, 10**6),
    st.sampled_from(DIR_CASES),
    st.integers(1, 5),
    st.booleans(),
)
def test_dir_via_me_reads_the_parity_projection(seed, case, k, parity):
    N, c = case
    psi = random_residue_zero_psi(N, k, Random(seed), parity=parity)
    assert dir_via_me(psi, c) == dir_via_me(parity_project(psi), c)


def _pivot_by_symbol_sum(N, k, rng, parity=True, span=20):
    """random_residue_zero_psi with its pivot solved as sum v * eis_residue_closed."""
    points = [(a, b) for a in range(N) for b in range(N) if (a, b) != (0, 0)]
    t_star = next(t for t in points if t[0] != 0 and eis_residue_closed(k, N, t))
    vals = {t: Fraction(rng.randint(-span, span)) for t in points if t != t_star}
    partial = sum(
        (v * eis_residue_closed(k, N, t) for t, v in vals.items()), Fraction(0)
    )
    vals[t_star] = -partial / eis_residue_closed(k, N, t_star)
    psi = WeightFunction(k, N, vals)
    return parity_project(psi) if parity else psi


@pytest.mark.parametrize("N", [3, 4, 5, 6])
@pytest.mark.parametrize("parity", [True, False])
def test_random_residue_zero_psi_keeps_its_draws(N, parity):
    for k in range(1, 6):
        for seed in range(3):
            tag = f"pivot:{N}:{k}:{seed}"
            got = random_residue_zero_psi(N, k, Random(tag), parity=parity)
            assert got == _pivot_by_symbol_sum(N, k, Random(tag), parity=parity)


inexact = st.floats() | st.booleans()


@given(inexact)
@example(0.1)  # used to become 3602879701896397/36028797018963968
@example(True)  # used to become 1
def test_inexact_values_are_rejected(x):
    with pytest.raises(TypeError):
        WeightFunction(2, 3, {(1, 0): x})
    with pytest.raises(TypeError):
        FormalClass({CycSym(2, 3, 1): x})
    with pytest.raises(TypeError):
        eis(2, 3, (1, 0)).scale(x)
