"""find_multiple keeps its solutions as flat arrays and builds records once.

Candidates are verified and deduplicated per stage on flat points, and only
the kept solutions are classified, by one _make_records call at the end
(plus one, unclassified, for the y-only points).  So the rows that
_morse_summaries classifies are exactly the records returned, and the
solution sets are bitwise those that were built from a record per candidate.
"""

import hashlib
import os
import warnings

import numpy as np
import pytest

from pklap import solvers
from pklap.cli import load_config
from pklap.core import ExponentFunction, PeriodicSequence, Problem
from pklap.nonlinearities import make_example3
from pklap.solvers import SUBSPACE_Y, SolverConfig, find_multiple, lambda_sweep

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


@pytest.fixture
def classified(monkeypatch):
    """The row count of every _morse_summaries call made through solvers."""
    rows = []
    real = solvers._morse_summaries

    def spy(x, prob, *args, **kwargs):
        rows.append(len(x))
        return real(x, prob, *args, **kwargs)

    monkeypatch.setattr(solvers, "_morse_summaries", spy)
    return rows


@pytest.mark.filterwarnings("ignore:finite-difference Hessian asymmetry:RuntimeWarning")
@pytest.mark.parametrize("name, records", [("example2_m3", 17), ("example1_m4", 43)])
def test_only_kept_solutions_are_classified(classified, name, records):
    """Building a record per converged candidate classified 165 rows for
    example2_m3 and 47 for example1_m4."""
    loaded = load_config(os.path.join(CONFIGS, f"{name}.json"))
    sol = find_multiple(loaded.problem, loaded.solver, subspace=loaded.subspace)
    assert len(sol.records) == records
    assert classified == [records]


def test_sweep_classifies_each_record_once(classified):
    """The 25-step example3_sweep sweep over [0.5, 10] on Y: 1858 records,
    once 2085 classified rows in 135 calls."""
    loaded = load_config(os.path.join(CONFIGS, "example3_sweep.json"))
    sweep = lambda_sweep(loaded.problem, np.linspace(0.5, 10.0, 25), loaded.solver, loaded.subspace)
    assert not sweep.failures
    counts = [len(sol.records) for sol in sweep.solution_sets]
    assert sum(counts) == 1858
    assert classified == [c for c in counts if c]


def _field_bytes(value) -> bytes:
    if isinstance(value, PeriodicSequence):
        return value.values.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return repr(value).encode()


def _digest(sol) -> str:
    """sha256 of every field of every record and y_discrepancy, in order."""
    h = hashlib.sha256()
    for group in (sol.records, sol.y_discrepancies):
        for rec in group:
            for name in rec._fields:
                h.update(name.encode() + b"=" + _field_bytes(getattr(rec, name)) + b";")
        h.update(b"#")
    h.update(repr(sol.symmetry_ok).encode())
    return h.hexdigest()


# (m, p, lambda, starts, seed): records, y_discrepancies and the digest that
# building a record per candidate before its dedupe gave
_PINNED = [
    (3, 3.0, 6.0, 32, 0, 5, 11,
     "19b4e1175c373f2f153692e77730716efc23385a9ab3d4c33d1a9680d323f208"),
    (3, 3.0, 6.0, 32, 1, 5, 19,
     "7955842d11dce4e557eb2cff6080d70d1e0bc8e8e55e00e78f03e86ace3bc963"),
    (4, 2.5, 8.0, 32, 0, 27, 114,
     "d990ed3bb8572f5d33b4b2dd77e632eb12475356334f6b52f2ec7b9f7d8c3462"),
    (4, 2.5, 8.0, 32, 1, 22, 68,
     "522be0cdc324d82fee7008c2da6c5e3053ca6d7fedb2fdce303c4600a85452a7"),
    (5, 2.0, 4.0, 16, 0, 3, 24,
     "444fa07551d9d4cdf846abb81bf203a03e4842ecc3277d633c317e7f5c1f99a2"),
    (5, 2.0, 4.0, 16, 1, 1, 18,
     "9a46d2bbbeb4915807aa7c12c1dcecefcf4fc1023d3c004e42fdcfb388c8630e"),
]


@pytest.mark.parametrize(
    "m, p, lam, starts, seed, records, y_only, digest", _PINNED, ids=[f"m{c[0]}-seed{c[4]}" for c in _PINNED]
)
def test_example3_y_sets_are_pinned(monkeypatch, m, p, lam, starts, seed, records, y_only, digest):
    """Bitwise solution sets with y-only points, from one _make_records call
    for the records and one for the y-only points."""
    calls = []
    real = solvers._make_records

    def spy(prob, xs, *args, **kwargs):
        calls.append(len(xs))
        return real(prob, xs, *args, **kwargs)

    monkeypatch.setattr(solvers, "_make_records", spy)
    nl, _ = make_example3(m)
    prob = Problem(m=m, n=1, exponent=ExponentFunction.constant(p, m), nonlinearity=nl, lam=lam)
    with warnings.catch_warnings():
        # the FD Hessians of some saddles warn about their asymmetry
        warnings.simplefilter("ignore", RuntimeWarning)
        sol = find_multiple(prob, SolverConfig(starts=starts, seed=seed), subspace=SUBSPACE_Y)
    assert (len(sol.records), len(sol.y_discrepancies)) == (records, y_only)
    assert _digest(sol) == digest
    assert all(r.classification == "unclassified" for r in sol.y_discrepancies)
    assert calls == [records, y_only]
