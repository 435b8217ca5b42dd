"""driftsolve: constraint-system solvers on flat periodic tori.

The package constructs positive solutions of a scalar semilinear equation with
gradient nonlinearities coupled to a divergence-form vector (momentum) equation,
using a monotone subsolution/supersolution sweep for the scalar part, a spectral
Lame solve for the vector part, and a Picard loop between the two.  It also
certifies linear stability of the constructed solution, maps physical
free data onto the abstract coefficient set, reconstructs initial data, and
verifies the constraint residuals of the result.
"""

from .errors import (
    ConditionViolated,
    ConfigError,
    ContractionViolated,
    DivergenceDetected,
    NoSubsolution,
    NoSupersolutionFound,
    NonConvergence,
    NonPositiveField,
    NotASupersolution,
    NotCoercive,
    SignIndefiniteEigenfunction,
    SingularOperator,
    SolverError,
    UnderResolved,
)
from .grid import GridSpec, ScalarField, SymTensorField, VectorField
from .coupled import SystemCoefficients, check_hypotheses, fixed_point_solve
from .momentum import MomentumProblem, solve_lame
from .physical import (
    PhysicalParameters,
    constraint_residuals,
    map_parameters,
    reconstruct_data,
    solve_drift_momentum,
)
from .scalar import LichCoefficients, find_supersolution, linearize, monotone_iterate
from .stability import coercivity_eigenvalue, smallest_eigenvalue

__all__ = [
    "LichCoefficients",
    "MomentumProblem",
    "PhysicalParameters",
    "SystemCoefficients",
    "check_hypotheses",
    "coercivity_eigenvalue",
    "constraint_residuals",
    "find_supersolution",
    "fixed_point_solve",
    "linearize",
    "map_parameters",
    "monotone_iterate",
    "reconstruct_data",
    "smallest_eigenvalue",
    "solve_drift_momentum",
    "solve_lame",
    "ConditionViolated",
    "ConfigError",
    "ContractionViolated",
    "DivergenceDetected",
    "GridSpec",
    "NoSubsolution",
    "NoSupersolutionFound",
    "NonConvergence",
    "NonPositiveField",
    "NotASupersolution",
    "NotCoercive",
    "ScalarField",
    "SignIndefiniteEigenfunction",
    "SingularOperator",
    "SolverError",
    "SymTensorField",
    "UnderResolved",
    "VectorField",
]

__version__ = "0.1.0"
