"""Cylinder-state-space toolkit: classical simulation of qubit lattices built
from diagonal two-qubit gates, with analytic growth factors, LP-based
separable decompositions, a dense quantum oracle, and threshold analysis."""

__version__ = "0.1.0"

from .bloch import (
    BlochVector,
    DiagonalGate,
    MeasurementSpec,
    measure_prob,
    radius,
)
from .growth import (
    LAMBDA_CZ,
    PowerLawSpec,
    cz_feasible,
    lambda_phi,
    lemma1_feasible,
    longrange_growth,
    telescoping_family,
    theta_max,
)
from .decompose import Decomposition
from .experiment import ExperimentSpec, NodeInput, radius_ledger
from .sampler import empirical_tv, run_branches
from .oracle import exact_distribution
from .matter import (
    MatterBounds,
    coarse_grain_threshold_1d,
    comb_construction,
    fixed_points,
    iterate_recursion,
    matter_bounds,
    steer_max,
)
from .statespace import (
    SymmetricStateSpace,
    b_space,
    cylinder,
    lemma8_audit,
    max_input_radius_bspace,
    min_output_radius,
    r_star,
    symmetrize,
)
