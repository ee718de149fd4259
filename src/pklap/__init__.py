"""Periodic solutions of anisotropic discrete p(k)-Laplacian systems.

The package finds m-periodic critical points of the discrete action

    J(u) = sum_k |du(k)|^p(k) / p(k)  +  lambda * (- sum_k F(k, u(k+1), u(k)))

and checks, on samples, the hypotheses that guarantee such points exist.

The solver names (SolutionSet, SweepResult, find_multiple, lambda_sweep,
mountain_pass, subspace_basis) and the `solvers` submodule are resolved on
first access, so `import pklap` and the analysis layer do not load
pklap.solvers; `from pklap import find_multiple` works as before.
"""

import importlib

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
    SolverConfig,
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

# Names of pklap.solvers that __getattr__ imports it for.
_SOLVER_NAMES = frozenset(
    ("SolutionSet", "SweepResult", "find_multiple", "lambda_sweep", "mountain_pass", "subspace_basis")
)


def __getattr__(name):
    # importlib, not `from . import solvers`, which would look the name up
    # on this module again and recurse
    if name == "solvers" or name in _SOLVER_NAMES:
        solvers = importlib.import_module(".solvers", __name__)
        return solvers if name == "solvers" else getattr(solvers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
