"""Stability of periodic solutions of fractional-order differential equations.

The package assembles the truncated fractional Hill matrix of a linear
time-periodic system, locates the roots of its determinant (the Floquet
exponents), reconstructs the associated quasi-periodic solutions, and
cross-validates them against direct time integration with infinite-history
forcing.
"""

__version__ = "0.1.0"

from .errors import (
    AccuracyError,
    DomainError,
    FracHillError,
    IterationError,
    NonFiniteStateError,
    NotDiagonalizableError,
    NumericalError,
    PoleError,
    QuadratureError,
    SchemaError,
    SingularForcingError,
    UnboundedHistoryError,
)
from .history import (
    Constant,
    ExpGrowth,
    FloquetForm,
    ForcingEvaluator,
    HistoryFunction,
    PiecewiseConstantRamp,
    Sampled,
    TruncatedSinusoid,
    forcing_bound_constant,
    forcing_grid,
    parse_history,
)
from .hill import (
    HillMatrix,
    assemble,
    evaluate_grid,
    sigma_min_and_nullvector,
    sigma_min_grid,
)
from .integrator import (
    IvpProblem,
    Trajectory,
    solve_caputo,
    solve_liouville_weyl,
    voc_solution_scalar,
)
from .specfun import (
    gamma,
    mittag_leffler,
    ml_matrix,
    reciprocal_gamma,
    upper_incomplete_gamma,
)
from .spectral import (
    INVALID_NEGATIVE_RE,
    VALID_FLOQUET,
    Eigenpair,
    GershgorinRegion,
    LtiClassification,
    LtiEigenvalue,
    classify_lti,
    find_eigenvalues,
    floquet_real_combination,
    gershgorin,
    reconstruct_floquet,
    verify_floquet,
)
from .system import (
    FourierCoefficients,
    FractionalOrder,
    SystemSpec,
    eval_J,
    make_system,
    parse_system,
    principal_power,
)

__all__ = [
    "__version__",
    "AccuracyError",
    "DomainError",
    "FracHillError",
    "IterationError",
    "NonFiniteStateError",
    "NotDiagonalizableError",
    "NumericalError",
    "PoleError",
    "QuadratureError",
    "SchemaError",
    "SingularForcingError",
    "UnboundedHistoryError",
    "Constant",
    "ExpGrowth",
    "FloquetForm",
    "ForcingEvaluator",
    "HistoryFunction",
    "PiecewiseConstantRamp",
    "Sampled",
    "TruncatedSinusoid",
    "forcing_bound_constant",
    "forcing_grid",
    "parse_history",
    "HillMatrix",
    "assemble",
    "evaluate_grid",
    "sigma_min_and_nullvector",
    "sigma_min_grid",
    "IvpProblem",
    "Trajectory",
    "solve_caputo",
    "solve_liouville_weyl",
    "voc_solution_scalar",
    "gamma",
    "mittag_leffler",
    "ml_matrix",
    "reciprocal_gamma",
    "upper_incomplete_gamma",
    "INVALID_NEGATIVE_RE",
    "VALID_FLOQUET",
    "Eigenpair",
    "GershgorinRegion",
    "LtiClassification",
    "LtiEigenvalue",
    "classify_lti",
    "find_eigenvalues",
    "floquet_real_combination",
    "gershgorin",
    "reconstruct_floquet",
    "verify_floquet",
    "FourierCoefficients",
    "FractionalOrder",
    "SystemSpec",
    "eval_J",
    "make_system",
    "parse_system",
    "principal_power",
]
