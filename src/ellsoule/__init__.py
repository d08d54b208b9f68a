"""Exact arithmetic of smoothed elliptic theta units at the cusp: measure
algebras on torsion fibers, divided-power moment maps, smoothed Bernoulli
congruences, q-expansions over cyclotomic fields, and the formal calculus
relating the classes' residues and boundary values."""

from .bernoulli import (
    bern_eval,
    bernoulli_measure,
    bernoulli_moment_closed,
    bernoulli_poly,
    smoothed_b2,
)
from .cyclotomic import CycloElement, cyclo_poly, euler_phi
from .formal import (
    CycSym,
    EisSym,
    FormalClass,
    ResiduePreconditionError,
    SouleSym,
    WeightFunction,
    cyc_symmetrize,
    dir_closed,
    dir_via_me,
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
from .puiseux import PuiseuxSeries
from .tsym import TSym, divided_power, exponent_tuples, sym_to_tsym, tsym_map
from .units import (
    cusp_square_check,
    cusp_value_closed,
    epsilon_cusp_eval,
    epsilon_series,
    norm_check_theta,
    residue_elliptic_soule,
    theta_qexp,
    theta_series,
)

__version__ = "0.1.0"
