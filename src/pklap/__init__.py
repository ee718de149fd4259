"""Periodic solutions of anisotropic discrete p(k)-Laplacian systems.

The package finds m-periodic critical points of the discrete action

    J(u) = sum_k |du(k)|^p(k) / p(k)  +  lambda * (- sum_k F(k, u(k+1), u(k)))

and checks, on samples, the hypotheses that guarantee such points exist.
"""

from .analysis import (
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    BoundProfile,
    CheckReport,
    GrowthProfile,
    LambdaStarEstimate,
    Thresholds,
    anticoercivity_probe,
    check_b2_b3,
    check_bounds,
    check_c1,
    check_c2,
    check_c3,
    check_growth,
    lambda_star_estimate,
    rng_for,
    thresholds,
    xi_constant,
)
from .core import (
    EvaluationError,
    ExponentFunction,
    Nonlinearity,
    PeriodicSequence,
    Problem,
    SolutionRecord,
    euclidean_norm,
    in_Y,
    wrap_index,
)
from .functional import (
    SpectralSummary,
    action,
    gradient,
    gradient_fd,
    hessian_fd,
    morse_summary,
    mu,
    potential,
)
from .nonlinearities import (
    BUILTIN_NAMES,
    BuiltinSpec,
    make_builtin,
    make_example1,
    make_example2,
    make_example3,
    make_power,
)
from .operators import phi_p, residual_values
from .solvers import (
    SolutionSet,
    SolverConfig,
    SweepResult,
    find_multiple,
    lambda_sweep,
    mountain_pass,
    subspace_basis,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "BoundProfile",
    "BuiltinSpec",
    "CheckReport",
    "EvaluationError",
    "ExponentFunction",
    "GrowthProfile",
    "HOLDS",
    "INCONCLUSIVE",
    "LambdaStarEstimate",
    "Nonlinearity",
    "PeriodicSequence",
    "Problem",
    "SolutionRecord",
    "SolutionSet",
    "SolverConfig",
    "SpectralSummary",
    "SweepResult",
    "Thresholds",
    "VIOLATED",
    "action",
    "anticoercivity_probe",
    "check_b2_b3",
    "check_bounds",
    "check_c1",
    "check_c2",
    "check_c3",
    "check_growth",
    "euclidean_norm",
    "find_multiple",
    "gradient",
    "gradient_fd",
    "hessian_fd",
    "in_Y",
    "lambda_star_estimate",
    "lambda_sweep",
    "make_builtin",
    "make_example1",
    "make_example2",
    "make_example3",
    "make_power",
    "morse_summary",
    "mountain_pass",
    "mu",
    "phi_p",
    "potential",
    "residual_values",
    "rng_for",
    "subspace_basis",
    "thresholds",
    "wrap_index",
    "xi_constant",
]
