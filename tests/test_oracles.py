"""The solver against closed-form critical sets.

At m = 2, n = 1 and p = 2, example3 is solvable by hand.  Its weights are
|sin(k pi / 2)|, 1 at k = 1 and about 1e-16 at k = 2, so up to that
rounding the action is

    J(u1, u2) = (u1 - u2)^2 + lam * sin(u1^2 + u2^2).

Adding the two partial derivatives gives 2 lam cos(u1^2 + u2^2)(u1 + u2)
= 0, so every critical point is one of:

- on the zero-mean subspace Y, u = (t, -t) with J = 4t^2 + lam sin(2t^2)
  and dJ/dt = 4t(2 + lam cos 2t^2): t = 0, or cos(2t^2) = -2/lam, which
  has roots only for lam >= 2;
- the constants u1 = u2 = c with cos(2c^2) = 0 (for every lam > 0).

The solver's records must lie on these sets (precision), and on Y it must
find every root inside its start ball, of radius 3 in the reduced norm,
which is |u| = sqrt(2)|t| here (recall).
"""

import math

import numpy as np
import pytest

from pklap.core import ExponentFunction, Problem
from pklap.nonlinearities import make_example3
from pklap.solvers import SUBSPACE_FULL, SUBSPACE_Y, SolverConfig, find_multiple

START_RADIUS = 3.0
TOL = 1e-6


def _records(lam, seed, subspace):
    prob = Problem(m=2, n=1, exponent=ExponentFunction.constant(2.0, 2),
                   nonlinearity=make_example3(2)[0], lam=lam)
    sols = find_multiple(prob, SolverConfig(starts=8, seed=seed), subspace=subspace)
    return [rec.u.values[:, 0] for rec in sols.records]


def _y_roots_in_ball(lam):
    """The t of every nonzero Y-critical point with sqrt(2)|t| <= 3."""
    a = math.acos(-2.0 / lam)  # 2t^2 = +-a + 2 pi k
    s_max = START_RADIUS**2  # 2t^2 = |u|^2
    roots = []
    for k in range(int(s_max / (2.0 * math.pi)) + 1):
        for s in (a + 2.0 * math.pi * k, 2.0 * math.pi * (k + 1) - a):
            if s <= s_max:
                t = math.sqrt(s / 2.0)
                roots += [t, -t]
    return sorted(roots)


def _on_y_set(u, lam):
    t = 0.5 * (u[0] - u[1])
    return abs(u[0] + u[1]) <= TOL and (abs(t) <= TOL or abs(math.cos(2.0 * t * t) + 2.0 / lam) <= TOL)


def _on_constant_set(u):
    c = 0.5 * (u[0] + u[1])
    return abs(u[0] - u[1]) <= TOL and abs(math.cos(2.0 * c * c)) <= TOL


@pytest.mark.parametrize("lam", [0.5, 1.9])
def test_below_two_only_zero_is_critical_on_y(lam):
    records = _records(lam, 0, SUBSPACE_Y)
    assert len(records) == 1
    assert np.all(np.abs(records[0]) <= TOL)


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("lam", [2.5, 4.0, 10.0])
def test_y_records_are_the_closed_form_roots(lam, seed):
    records = _records(lam, seed, SUBSPACE_Y)
    nonzero = [u for u in records if np.max(np.abs(u)) > TOL]
    assert nonzero
    for u in nonzero:
        t = 0.5 * (u[0] - u[1])
        assert abs(u[0] + u[1]) <= TOL
        assert abs(math.cos(2.0 * t * t) + 2.0 / lam) <= TOL
    roots = _y_roots_in_ball(lam)
    assert len(roots) == 6
    found = [t for t in roots if any(abs(0.5 * (u[0] - u[1]) - t) <= TOL for u in nonzero)]
    assert found == roots


@pytest.mark.parametrize("lam", [1.0, 4.0])
def test_full_space_records_lie_on_the_closed_form_set(lam):
    records = _records(lam, 0, SUBSPACE_FULL)
    assert any(_on_constant_set(u) for u in records)
    for u in records:
        assert _on_y_set(u, lam) or _on_constant_set(u), u
