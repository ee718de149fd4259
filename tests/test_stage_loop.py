"""find_multiple's stages as one loop, and each stage's random starts
drawn once per process.

After the zero sequence, a stage is a method and a start key: "newton"
from the warm starts and the key-101 draws, then "deflated" rounds from
the key-(211 + r) draws.  A record's start_index is its start's position
in the "newton" pool, warm starts first, and its draw index in a round.
No output file shows it for warm-started records (solve has no warm
starts, and the sweep CSV holds counts), so it is pinned here.
"""

import ast
import collections
import inspect
import textwrap

import numpy as np

from pklap import solvers
from pklap.cli import load_config
from test_cli import CONFIGS

# (methods, start indices) of each record, in record order, of the shipped
# example3_sweep config swept over lambda = 0.1, 5.05, 10 ("n" newton, "d"
# deflated; None is the zero sequence of stage 0)
PINNED_LABELS = {
    0.1: ("n", [None]),
    5.05: (
        "ndndddddndddddddddddddddddddddddddddddddddddddddddddddddd",
        [None, 0, 2, 0, 1, 3, 5, 7, 3, 0, 3, 3, 3, 2, 6, 3, 0, 4, 2, 4, 6, 4, 0, 3, 4, 2, 1, 4, 7,
         2, 5, 3, 7, 4, 6, 0, 1, 7, 2, 6, 2, 7, 6, 5, 7, 7, 1, 6, 6, 5, 1, 4, 5, 1, 0, 7, 2],
    ),
    10.0: (
        "nnnnnnnnnnnnnnnnnnndnnnnnndnnnnnnnnnnnnnnddnndndnnnnnnnnddndnddndd",
        [1, 2, None, 5, 6, 3, 4, 9, 7, 8, 10, 11, 14, 15, 12, 13, 18, 16, 17, 4, 19, 20, 21, 22,
         23, 24, 5, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 4, 6, 39, 40, 0, 41, 4,
         42, 43, 44, 45, 46, 47, 48, 49, 1, 7, 50, 2, 52, 6, 4, 53, 4, 1],
    ),
}


def _three_point_sweep():
    loaded = load_config(str(CONFIGS / "example3_sweep.json"))
    grid = np.linspace(0.1, 10.0, 3)
    return loaded.solver, solvers.lambda_sweep(loaded.problem, grid, loaded.solver, subspace=loaded.subspace)


def test_start_indices_along_a_sweep_are_pinned():
    """At lambda = 5.05 the pool holds one warm start (the zero sequence),
    so the plain records 2 and 3 are draws 1 and 2; at lambda = 10 it holds
    the 57 records of 5.05, and every plain record comes from one of them.
    A deflated record's index is its draw's, below the 8 starts."""
    cfg, result = _three_point_sweep()
    labels = {
        lam: ("".join(r.method[0] for r in sol.records), [r.start_index for r in sol.records])
        for lam, sol in zip(result.lambda_grid, result.solution_sets)
    }
    assert labels == PINNED_LABELS
    plain = {lam: [i for m, i in zip(*labels[lam]) if m == "n" and i is not None] for lam in labels}
    assert [i - 1 for i in plain[5.05]] == [1, 2]
    assert max(plain[10.0]) < 57
    assert all(i < cfg.starts for methods, index in labels.values() for m, i in zip(methods, index) if m == "d")


def test_each_start_stream_is_drawn_once_along_a_sweep(monkeypatch, cold_caches):
    """Eight starts in each of the 11 stages: 88 streams, each drawn once
    over the three grid points (176 draws when each point drew its own)."""
    draws = collections.Counter()
    real = solvers.rng_for

    def spy(*keys):
        draws[keys] += 1
        return real(*keys)

    monkeypatch.setattr(solvers, "rng_for", spy)
    _, result = _three_point_sweep()
    assert result.counts == (1, 57, 66)
    assert len(draws) == 88 and set(draws.values()) == {1}
    assert {key for _, key, _ in draws} == {101, *range(211, 221)}


def test_find_multiple_has_one_batch_and_one_handle_stage_call():
    tree = ast.parse(textwrap.dedent(inspect.getsource(solvers.find_multiple)))
    called = collections.Counter(
        node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    )
    assert called["_newton_rows"] == 1 and called["handle_stage"] == 1
