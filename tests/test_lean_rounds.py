"""The solver's work, counted, so that leaner kernels provably run the same
iterations.

A Newton round is one Jacobian stack (`_System.jacobians`), a line-search
block one `evaluate` call of `core._block_search`, and every residual goes
through `operators._residual_rows`, under whichever module name calls it.
The counts depend only on the arithmetic, not on the host's load, and
Newton from random starts turns a last-bit change in an iterate into a
different path, which moves them.
"""

import pathlib
import warnings

import pklap.functional as functional
import pklap.operators as operators
import pklap.solvers as solvers
from pklap.cli import load_config

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _count_work(monkeypatch):
    """Spies on the three seams; returns the dict they fill."""
    seen = {"rounds": 0, "blocks": 0, "residual_calls": 0, "residual_rows": 0}
    real_jacobians, real_search, real_rows = (
        solvers._System.jacobians,
        solvers._block_search,
        operators._residual_rows,
    )

    def jacobians(self, y):
        seen["rounds"] += 1
        return real_jacobians(self, y)

    def search(step, blocks, trial, evaluate, take, **kwargs):
        def counted(*args):
            seen["blocks"] += 1
            return evaluate(*args)

        return real_search(step, blocks, trial, counted, take, **kwargs)

    def residual_rows(vals, prob):
        seen["residual_calls"] += 1
        seen["residual_rows"] += len(vals)
        return real_rows(vals, prob)

    monkeypatch.setattr(solvers._System, "jacobians", jacobians)
    monkeypatch.setattr(solvers, "_block_search", search)
    for module in (solvers, functional, operators):
        monkeypatch.setattr(module, "_residual_rows", residual_rows)
    return seen


def test_two_point_example3_sweep_work(monkeypatch):
    """The shipped example3_sweep config (on Y, 8 starts, seed 0) swept over
    the sweep benchmark's grid, lambda = 0.1 and 10."""
    loaded = load_config(str(CONFIGS / "example3_sweep.json"))
    seen = _count_work(monkeypatch)
    result = solvers.lambda_sweep(loaded.problem, (0.1, 10.0), loaded.solver, subspace=loaded.subspace)
    assert result.counts == (1, 54)
    assert seen == PINNED["example3_sweep"]


def test_example1_m4_solve_work(monkeypatch):
    loaded = load_config(str(CONFIGS / "example1_m4.json"))
    seen = _count_work(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sol = solvers.find_multiple(loaded.problem, loaded.solver, subspace=loaded.subspace)
    assert len(sol.records) == 43
    assert seen == PINNED["example1_m4"]


# Counted before the round kernels were made lean; the lean kernels keep them.
PINNED = {
    "example3_sweep": {"rounds": 178, "blocks": 296, "residual_calls": 533, "residual_rows": 8112},
    "example1_m4": {"rounds": 1200, "blocks": 3246, "residual_calls": 4478, "residual_rows": 156607},
}
