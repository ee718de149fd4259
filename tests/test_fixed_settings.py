"""The analysis that `pklap check` runs and the classification that `solve`
runs take one setting each.

xi's descent runs from 32 starts at seed 0, to a gradient tolerance of
1e-10 or 5000 steps, with no choice between the closed form and the
descent; the probe's 32 random rays, radii and drop, B.2's 44 directions
of 45 sample pairs and its reach past the level set, the 4000 samples of
A.4, A.5 and A.7 - A.9 (125 random t per A.6 shell), A.7's box, the
sampled C.1 - C.3 count and C.1 - C.3's slack are module constants of
`analysis`; the Hessian step 1e-5 * max(1, |u|) and the Morse zero
tolerance of `functional`, and the zero-mean tolerance of `core.in_Y`,
are too.  The signatures below are those of the functions that took them
as arguments, so a setting that comes back as an argument fails here.
"""

import ast
import inspect
import pathlib

import pytest

from pklap import analysis, core, functional, solvers

SIGNATURES = {
    "xi_constant": "(m: 'int', n: 'int' = 1, p_plus: 'float' = 2.0) -> 'float'",
    "_xi_search": "(m: 'int', n: 'int' = 1, p_plus: 'float' = 2.0) -> 'tuple[float, bool]'",
    "_xi_minimum": "(m: 'int', n: 'int', p_plus: 'float') -> 'tuple[float, bool]'",
    "anticoercivity_probe": "(prob: 'Problem', seed: 'int' = 0) -> 'CheckReport'",
    "check_b2_b3": "(prob: 'Problem', r: 'float', seed: 'int' = 0) -> 'tuple[CheckReport, CheckReport]'",
    "check_bounds": "(nl: 'Nonlinearity', b: 'BoundProfile', seed: 'int' = 0) -> 'list[CheckReport]'",
    "check_growth": "(nl: 'Nonlinearity', g: 'GrowthProfile', seed: 'int' = 0) -> 'list[CheckReport]'",
    "check_c1": "(u: 'PeriodicSequence', s: 'float') -> 'CheckReport'",
    "check_c2": "(u: 'PeriodicSequence', s: 'float') -> 'CheckReport'",
    "check_c3": "(u: 'PeriodicSequence', p: 'ExponentFunction') -> 'CheckReport'",
    "lambda_star_estimate": (
        "(prob: 'Problem', r_grid: 'Sequence[float]', samples_per_r: 'int' = 200, seed: 'int' = 0)"
        " -> 'LambdaStarEstimate'"
    ),
    "_sampled_c_reports": "(prob: 'Problem', seed: 'int') -> 'list[CheckReport]'",
    "hessian_fd": "(u: 'PeriodicSequence', prob: 'Problem') -> 'np.ndarray'",
    "morse_summary": "(u: 'PeriodicSequence', prob: 'Problem') -> 'SpectralSummary'",
    "_morse_summaries": "(x: 'np.ndarray', prob: 'Problem') -> 'list[SpectralSummary]'",
    "in_Y": "(u: 'PeriodicSequence') -> 'bool'",
}

# the parameters that only tests set, before they became module constants
REMOVED = {"sample_budget", "directions", "zero_tol", "slack"}
# the one verdict rule, which production calls at three slacks: SAMPLE_SLACK
# (A.4, A.5, A.7 - A.9), INEQUALITY_SLACK (sampled C.1 - C.3) and 0
# (A.6, B.2, B.3)
KEPT = {"_worst_report slack"}


def _function(name):
    module = next(m for m in (analysis, functional, core) if name in vars(m))
    return getattr(module, name)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature_is_pinned(name):
    assert str(inspect.signature(_function(name))) == SIGNATURES[name]


def test_analysis_takes_no_method_argument():
    """No function of the analysis module takes a `method`, so nothing
    chooses between a closed form and a search but the input."""
    tree = ast.parse(inspect.getsource(analysis))
    takers = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and "method" in {a.arg for a in fn.args.args + fn.args.kwonlyargs}
    ]
    assert takers == []


def test_no_function_takes_a_removed_setting():
    """No function of the package takes a sample budget, a direction
    count, a zero tolerance or a slack, but the shared verdict rule: each
    check runs at its module constant."""
    takers = []
    for path in sorted(pathlib.Path(analysis.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                name = getattr(fn, "name", "lambda")
                takers += [f"{name} {a.arg}" for a in args if a.arg in REMOVED]
    assert sorted(takers) == sorted(KEPT)


@pytest.mark.parametrize("name", ["g", "to_full", "to_reduced"])
def test_system_has_no_one_row_twin(name):
    """The residual system evaluates rows only: rows, to_full_rows and
    to_reduced_rows, whose row b is bitwise the one-row products."""
    assert not hasattr(solvers._System, name)
