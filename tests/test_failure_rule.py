"""One failure rule for every stacked evaluation of mu, the potential and
the residual.

A stack raises EvaluationError at its first row, in stack order, where a
required term is not finite; within that row the first failing term, in
the order mu, potential, residual, names the error.  A row whose input is
not finite raises "<term> evaluated at a non-finite sequence", any other
row the term's own message.  The table below pins, for each raising site,
the message and the row that raises on stacks whose rows fail at mu, at
the potential, at both, and in the input.  The source checks pin that the
messages are spelled in operators alone.
"""

import ast
import math
import pathlib

import numpy as np
import pytest

from pklap.core import EvaluationError, ExponentFunction, Problem
from pklap.functional import _action_values, _gradient_fd_rows, _hessian_rows, action, mu, potential
from pklap.nonlinearities import make_power
from pklap.operators import residual_values

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pklap"

MU = "mu evaluated to a non-finite value"
POTENTIAL = "potential evaluated to a non-finite value"
RESIDUAL = "residual evaluation produced non-finite entries"

# m = 2, n = 1, p = 1100 and F = |u1|^400 + |u2|^400: mu overflows where
# |Delta u| = 6 and the potential where |u| = 1e3, and the residual fails
# wherever one of them does
ROWS = {
    "ok": [0.3, -0.2],
    "mu": [3.0, -3.0],
    "potential": [1e3, 1e3],
    "both": [1e3, -1e3],
    "input": [math.nan, 0.0],
}


def _prob():
    nl, _ = make_power(2, a=1.0, b=1.0, s=400.0, r=400.0)
    return Problem(m=2, n=1, exponent=ExponentFunction.constant(1100.0, 2), nonlinearity=nl, lam=1.0)


def _flat(kinds):
    return np.array([ROWS[kind] for kind in kinds])


_STACKED = {
    "_action_values": _action_values,
    "_gradient_fd_rows": _gradient_fd_rows,
    "_hessian_rows": lambda x, prob: _hessian_rows(x, prob, np.full(len(x), 1e-5)),
}

# (site, rows of the stack, the message); the first failing row raises
_STACKED_CASES = [
    ("_action_values", ("ok", "mu", "potential"), MU),
    ("_action_values", ("ok", "potential", "mu"), POTENTIAL),
    ("_action_values", ("ok", "both", "potential"), MU),
    ("_action_values", ("ok", "potential", "both"), POTENTIAL),
    ("_action_values", ("ok", "input", "potential"), "mu evaluated at a non-finite sequence"),
    ("_action_values", ("ok", "potential", "input"), POTENTIAL),
    ("_gradient_fd_rows", ("ok", "mu", "potential"), MU),
    ("_gradient_fd_rows", ("ok", "potential", "mu"), POTENTIAL),
    ("_gradient_fd_rows", ("ok", "both", "potential"), MU),
    ("_gradient_fd_rows", ("ok", "input", "mu"), "mu evaluated at a non-finite sequence"),
    ("_gradient_fd_rows", ("ok", "potential", "input"), POTENTIAL),
    ("_hessian_rows", ("ok", "mu", "potential"), RESIDUAL),
    ("_hessian_rows", ("ok", "potential", "mu"), RESIDUAL),
    ("_hessian_rows", ("ok", "both"), RESIDUAL),
]


@pytest.mark.parametrize(
    "site,kinds,message", _STACKED_CASES, ids=["-".join((s,) + k) for s, k, _ in _STACKED_CASES]
)
def test_stacked_sites_raise_at_their_first_failing_row(site, kinds, message):
    prob = _prob()
    with pytest.raises(EvaluationError) as raised:
        _STACKED[site](_flat(kinds), prob)
    assert str(raised.value) == message


@pytest.mark.parametrize("site", sorted(_STACKED))
def test_stacked_sites_pass_finite_rows(site):
    out = _STACKED[site](_flat(("ok", "ok")), _prob())
    assert np.isfinite(out).all()


_ONE_ROW = {
    "action": action,
    "mu": mu,
    "potential": potential,
    "residual_values": residual_values,
}

# the message of each one-row site at each row, None where it returns
_ONE_ROW_CASES = {
    "action": {
        "mu": MU, "potential": POTENTIAL, "both": MU, "input": "mu evaluated at a non-finite sequence",
    },
    "mu": {"mu": MU, "potential": None, "both": MU, "input": "mu evaluated at a non-finite sequence"},
    "potential": {
        "mu": None, "potential": POTENTIAL, "both": POTENTIAL,
        "input": "potential evaluated at a non-finite sequence",
    },
    "residual_values": {
        "mu": RESIDUAL, "potential": RESIDUAL, "both": RESIDUAL,
        "input": "residual evaluated at a non-finite sequence",
    },
}


@pytest.mark.parametrize("site", sorted(_ONE_ROW))
@pytest.mark.parametrize("kind", ["ok", "mu", "potential", "both", "input"])
def test_one_row_sites(site, kind):
    prob = _prob()
    u = np.array(ROWS[kind])[:, None]
    message = _ONE_ROW_CASES[site].get(kind)
    if message is None:
        assert np.isfinite(_ONE_ROW[site](u, prob)).all()
    else:
        with pytest.raises(EvaluationError) as raised:
            _ONE_ROW[site](u, prob)
        assert str(raised.value) == message


def _string_constants(path):
    nodes = ast.walk(ast.parse(path.read_text()))
    return [node.value for node in nodes if isinstance(node, ast.Constant) and isinstance(node.value, str)]


@pytest.mark.parametrize("text", [MU, POTENTIAL, RESIDUAL, "evaluated at a non-finite sequence"])
def test_failure_messages_are_spelled_in_operators_only(text):
    spelled = sorted(
        path.name for path in SRC.glob("*.py") if any(text in s for s in _string_constants(path))
    )
    assert spelled == ["operators.py"]


def test_analysis_does_not_import_functional():
    tree = ast.parse((SRC / "analysis.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if name.split(".")[-1] == "functional"}
