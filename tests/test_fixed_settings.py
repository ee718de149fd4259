"""The analysis searches that `pklap check` runs take one setting each.

xi's descent runs from 32 starts at seed 0, to a gradient tolerance of
1e-10 or 5000 steps, with no choice between the closed form and the
descent; the probe's radii and drop, B.2's reach past the level set, A.7's
box and the sampled C.1 - C.3 count are module constants.  The signatures
below are those of the functions that took them as arguments, so a setting
that comes back as an argument fails here.
"""

import ast
import inspect

import pytest

from pklap import analysis

SIGNATURES = {
    "xi_constant": "(m: 'int', n: 'int' = 1, p_plus: 'float' = 2.0) -> 'float'",
    "_xi_search": "(m: 'int', n: 'int' = 1, p_plus: 'float' = 2.0) -> 'tuple[float, bool]'",
    "_xi_minimum": "(m: 'int', n: 'int', p_plus: 'float') -> 'tuple[float, bool]'",
    "anticoercivity_probe": "(prob: 'Problem', directions: 'int' = 32, seed: 'int' = 0) -> 'CheckReport'",
    "check_b2_b3": (
        "(prob: 'Problem', r: 'float', sample_budget: 'int' = 2000, seed: 'int' = 0)"
        " -> 'tuple[CheckReport, CheckReport]'"
    ),
    "check_bounds": (
        "(nl: 'Nonlinearity', b: 'BoundProfile', sample_budget: 'int' = 4000, seed: 'int' = 0)"
        " -> 'list[CheckReport]'"
    ),
    "_sampled_c_reports": "(prob: 'Problem', seed: 'int') -> 'list[CheckReport]'",
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature_is_pinned(name):
    assert str(inspect.signature(getattr(analysis, name))) == SIGNATURES[name]


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
