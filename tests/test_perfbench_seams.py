"""The seams of the benchmark's traced pass resolve on the package.

`perfbench/tracer.py` wraps package functions and methods by name while a
traced pass runs, and `perfbench/layers.py` reports a seam that the package
no longer has as a null metric, so a rename in `src/pklap` turns a traced
run's metrics into nulls.  These tests import both files unchanged and
check that every name they reach for resolves.
"""

import importlib
import pathlib
import sys

import pytest

import pklap
import pklap.cli  # noqa: F401 -- with pklap.solvers, every module the seams name
import pklap.operators
import pklap.solvers  # noqa: F401 -- pklap.cli imports it only when solve or sweep runs

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's tracer and layers modules, imported from their files."""
    names = ("tracer", "layers", "workloads")
    assert not any(name in sys.modules for name in names)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracer"), importlib.import_module("layers")
    for name in names:
        sys.modules.pop(name, None)


def test_every_tracer_seam_is_found_and_undone(bench):
    tracer, _ = bench
    original = pklap.operators.residual_values
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tr.missing == set()
        assert pklap.operators.residual_values is not original
    finally:
        tr.uninstall()
    assert pklap.operators.residual_values is original


def test_ladder_rungs_find_their_calls(bench, monkeypatch):
    """Each rung runs its call once (a zero budget) and reports a time."""
    _, layers = bench
    monkeypatch.setattr(layers, "LADDER_M", (8,))
    monkeypatch.setattr(layers, "RUNG_BUDGET_S", 0.0)
    ladder = layers.ladders(pklap, 0)
    assert len(ladder) == 3
    assert all(entry["value"] is not None for entry in ladder.values())
