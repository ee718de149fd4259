"""The solver's work, counted, so that leaner kernels provably run the same
iterations.

A Newton round is one Jacobian stack (`_System.jacobians`), a line-search
block one `evaluate` call of `core._block_search`, and every residual goes
through one `operators._stack_pass` call that asks for it.
The counts depend only on the arithmetic, not on the host's load, and
Newton from random starts turns a last-bit change in an iterate into a
different path, which moves them.  The sweep benchmark's CSV is pinned by
its sha256 at two run seeds for the same reason.
"""

import functools
import hashlib
import importlib.util
import json
import pathlib
import sys
import warnings

import pytest

import pklap.cli as cli
import pklap.operators as operators
import pklap.solvers as solvers
from pklap.cli import load_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


@functools.lru_cache(maxsize=1)
def _workloads():
    """perfbench/workloads.py, loaded once under a private name, so that
    the benchmark's own imports of `workloads` are not affected."""
    spec = importlib.util.spec_from_file_location("_bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def _count_work(monkeypatch):
    """Spies on the three seams; returns the dict they fill."""
    seen = {"rounds": 0, "blocks": 0, "residual_calls": 0, "residual_rows": 0}
    real_jacobians, real_search, real_pass = (
        solvers._System.jacobians,
        solvers._block_search,
        operators._stack_pass,
    )

    def jacobians(self, y):
        seen["rounds"] += 1
        return real_jacobians(self, y)

    def search(base, direction, step, blocks, evaluate, take):
        def counted(*args):
            seen["blocks"] += 1
            return evaluate(*args)

        return real_search(base, direction, step, blocks, counted, take)

    def stack_pass(vals, prob, mu=False, potential=False, residual=False):
        if residual:
            seen["residual_calls"] += 1
            seen["residual_rows"] += len(vals)
        return real_pass(vals, prob, mu=mu, potential=potential, residual=residual)

    monkeypatch.setattr(solvers._System, "jacobians", jacobians)
    monkeypatch.setattr(solvers, "_block_search", search)
    monkeypatch.setattr(operators, "_stack_pass", stack_pass)
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


def test_power_m8_varp_solve_work(monkeypatch, tmp_path):
    """The check batch's seed-1 power config at m = 8 and p(k) in {2, 2.5,
    3}, the one solve of the output snapshot that takes the general flux
    (p is not 2 everywhere)."""
    path = tmp_path / "power_m8_varp.json"
    path.write_text(json.dumps(_workloads().check_configs(1)["power_m8_varp"]))
    loaded = load_config(str(path))
    assert not loaded.problem.exponent.all_two
    seen = _count_work(monkeypatch)
    sol = solvers.find_multiple(loaded.problem, loaded.solver, subspace=loaded.subspace)
    assert len(sol.records) == 19
    assert seen == PINNED["power_m8_varp"]


@pytest.mark.parametrize("seed", [1, 2])
def test_sweep_benchmark_instance_bytes(tmp_path, seed):
    """The CSV of the sweep benchmark's first instance at a run seed: the
    example3 sweep over lambda = 0.1, 10 at 8 starts on Y, whose counts and
    minimum actions move with any iterate of its Newton runs."""
    op = _workloads().sweep_bounded(seed, 1, str(tmp_path))[0]
    assert cli.main(list(op.argv)) == cli.EXIT_OK
    digest = hashlib.sha256(pathlib.Path(op.outputs[0]).read_bytes()).hexdigest()
    assert digest == PINNED_SWEEP_CSV[seed]


PINNED_SWEEP_CSV = {
    1: "242c93f5a5d639da2efb0db3284e1805d5071d5493c1077c78368224ceed50cb",
    2: "c534d444692ec45065ab776daa074263d3e9182b2a1b94fa68b9ac312321ce1e",
}

# Counted before the round kernels were made lean; the lean kernels keep them.
PINNED = {
    "example3_sweep": {"rounds": 178, "blocks": 296, "residual_calls": 533, "residual_rows": 8112},
    "example1_m4": {"rounds": 1200, "blocks": 3246, "residual_calls": 4478, "residual_rows": 156607},
    "power_m8_varp": {"rounds": 281, "blocks": 827, "residual_calls": 1128, "residual_rows": 55085},
}
