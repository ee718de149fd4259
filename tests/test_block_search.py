"""The one lock-step backtracking search and the block schedules of its callers.

`core._block_search` runs the line searches of the Newton solver, the
anticoercivity ascent and the xi descent.  Each row tries step * 2^-j in
order and takes its first accepted trial, while the trials of all rows still
searching are evaluated in blocks.  The property below pins it to the
one-row loop; the schedule tests pin that each caller's blocks hold its
whole trial sequence; the call-count spy pins the xi descent's energy calls
and rows, which depend only on the arithmetic, not on the host's load.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pklap.analysis as analysis
import pklap.solvers as solvers
from pklap.core import _block_search


def _loop_search(x, direction, step, trials, accept, floor, byte_rule):
    """One row alone: (j, point) of its first accepted trial, or None.  The
    search ends at the first trial byte-equal to x under byte_rule, else at
    the first step not above floor."""
    for j in range(trials):
        t = step * 2.0**-j
        if not byte_rule and not t > floor:
            return None
        point = x + t * direction
        if byte_rule and point.tobytes() == x.tobytes():
            return None
        if accept(point, t):
            return j, point
    return None


def _run_block_search(X, D, step, blocks, accept, floor, byte_rule):
    """_block_search on rows (X, D): (found, taken steps, taken points, calls)."""
    taken_t = np.full(len(X), np.nan)
    taken = np.full_like(X, np.nan)
    calls = []

    def trial(rows, t):
        return X[rows, None] + t[:, :, None] * D[rows, None]

    def evaluate(points, rows, t):
        calls.append(len(points))
        good = np.array([accept(p, s) for p, s in zip(points, t.tolist())], dtype=bool)
        return good, points

    def take(rows, t, points):
        taken_t[rows], taken[rows] = t, points

    if byte_rule:
        found = _block_search(step, blocks, trial, evaluate, take, base=X)
    else:
        found = _block_search(step, blocks, trial, evaluate, take, floor=floor)
    return found, taken_t, taken, calls


def _quadratic_armijo(point, t, target):
    # accept when the trial is closer to target than a fixed radius, shrinking with t
    return float(np.sum((point - target) ** 2)) < 0.5 + 0.1 * t


_ROW = st.tuples(
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    st.floats(1e-3, 1.0),
)


@settings(max_examples=60)
@given(
    st.lists(_ROW, min_size=1, max_size=6),
    st.sampled_from([(1,), (2, 4), (1, 2, 4, 8, 15), (2, 4, 8, 16, 32), (3, 3, 3)]),
    st.sampled_from([0.0, 1e-3, 0.3]),
    st.booleans(),
)
def test_rows_take_the_first_trial_their_loop_accepts(rows, blocks, floor, byte_rule):
    X = np.array([r[0] for r in rows])
    D = np.array([r[1] for r in rows])
    step = np.array([r[2] for r in rows])
    target = np.array([0.5, -0.25, 1.0])

    def accept(point, t):
        return _quadratic_armijo(point, t, target)

    found, taken_t, taken, calls = _run_block_search(X, D, step, blocks, accept, floor, byte_rule)
    assert len(calls) <= len(blocks)
    for i in range(len(X)):
        ref = _loop_search(X[i], D[i], step[i], sum(blocks), accept, floor, byte_rule)
        assert found[i] == (ref is not None)
        if ref is not None:
            j, point = ref
            assert taken_t[i] == step[i] * 2.0**-j
            assert taken[i].tobytes() == point.tobytes()


def test_byte_equal_trial_ends_the_row_unaccepted():
    """A zero direction gives the base at every step: no trial is live, so
    nothing is evaluated and the row is not accepted."""
    X, D = np.array([[1.0, 2.0]]), np.zeros((1, 2))
    found, _, _, calls = _run_block_search(
        X, D, np.ones(1), (1, 2, 4), lambda p, t: True, 0.0, byte_rule=True
    )
    assert not found[0] and calls == []


@pytest.mark.parametrize("byte_rule", [False, True])
def test_no_rows_make_no_calls(byte_rule):
    """A round whose every Newton step failed searches no rows."""
    X, D = np.empty((0, 3)), np.empty((0, 3))
    found, _, _, calls = _run_block_search(
        X, D, np.ones(0), (1, 2, 4), lambda p, t: True, 0.0, byte_rule
    )
    assert found.shape == (0,) and calls == []


def test_rows_leave_at_the_floor_without_evaluating_below_it():
    """Steps 1, 1/2, ... 1/8 lie above the floor 0.1: four trials, in the
    first block of 2 and the second of 4, then the row stops."""
    X, D = np.zeros((1, 1)), np.ones((1, 1))
    found, _, _, calls = _run_block_search(
        X, D, np.ones(1), (2, 4, 8), lambda p, t: False, 0.1, byte_rule=False
    )
    assert not found[0] and calls == [2, 2]


def _trials_above(floor):
    """How many steps 2^-j, j = 0, 1, ..., lie above floor: the longest
    search of a caller whose step never exceeds 1."""
    return int(np.sum(np.ldexp(1.0, -np.arange(1100)) > floor))


def test_newton_blocks_hold_its_thirty_trials():
    """The Newton line search tries exactly 2^-j for j = 0..29."""
    assert sum(solvers._SEARCH_BLOCKS) == 30


@pytest.mark.parametrize(
    "blocks,floor,trials",
    [("_ASCENT_BLOCKS", 1e-16, 54), ("_XI_BLOCKS", 1e-18, 60)],
)
def test_floor_searches_reach_their_floor_inside_the_blocks(blocks, floor, trials):
    """A step of at most 1 has this many trials above the floor, and the
    blocks hold them all, so every unaccepted row leaves at the floor as
    its sequential loop does, not when the blocks run out."""
    assert _trials_above(floor) == trials
    assert sum(getattr(analysis, blocks)) >= trials


@pytest.mark.parametrize(
    "m,p,calls,rows",
    [(8, 3.0, 282, 12902), (12, 3.0, 748, 34551)],
)
def test_xi_descent_energy_calls_and_rows(monkeypatch, m, p, calls, rows):
    """The descent of _xi_search (32 starts, n = 1) makes this many
    _difference_energy calls over this many rows.  The one-trial-per-call
    search it replaced made 1473 calls over 9254 rows at m = 8 and 2795
    calls over 24121 rows at m = 12: blocks of 2 trials evaluate a second
    trial that most accepted steps do not need, and save the single-halving
    calls of every start that descends to the step floor."""
    seen = {"calls": 0, "rows": 0}
    real = analysis._difference_energy

    def spy(u, p_plus):
        seen["calls"] += 1
        seen["rows"] += len(u)
        return real(u, p_plus)

    monkeypatch.setattr(analysis, "_difference_energy", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, converged = analysis._xi_search(m, 1, p)
    assert converged
    assert seen == {"calls": calls, "rows": rows}
