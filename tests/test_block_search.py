"""The one lock-step backtracking search and the block schedules of its callers.

`core._block_search` runs the line searches of the Newton solver and the
xi descent.  Each row tries step * 2^-j in
order and takes its first accepted trial, while the trials of all rows still
searching are evaluated in blocks.  The property below pins it to the
one-row loop, and so do the cases of all-live and partly live blocks, in
the floor and the byte-equality modes; the schedule tests pin that each
caller's blocks hold its whole trial sequence; the call-count spies pin
the Newton search's deflated-residual calls and the xi descent's energy
calls, with their rows, which depend only on the arithmetic, not on the
host's load.
"""

import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pklap.analysis as analysis
import pklap.solvers as solvers
from pklap.cli import load_config
from pklap.core import _block_search

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


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
    st.sampled_from([(1,), (2, 4), (2, 8, 20), (1, 2, 4, 8, 15), (2, 4, 8, 16, 32), (3, 3, 3)]),
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


@pytest.mark.parametrize("byte_rule", [False, True])
@pytest.mark.parametrize("partly_live", [False, True])
def test_all_live_and_partly_live_blocks_match_the_loop(byte_rule, partly_live):
    """Three rows in blocks (2, 4): the first accepts its second trial,
    the second its fifth and the third none.  With every trial live, each
    block evaluates all trials of its rows, 3 * 2 and then 2 * 4.  Partly
    live, the third row's live trials end inside the second block, at the
    floor 0.1 (t = 1/4, 1/8 live) or where 1 + t 2^-50 rounds to 1 (t = 1/4
    live), and only the live ones are evaluated."""
    X = np.array([[10.0], [-10.0], [1.0]])
    D = np.array([[1.0], [1.0], [2.0**-50 if partly_live and byte_rule else 1.0]])
    step = np.array([8.0, 8.0, 1.0])
    floor = 0.1 if partly_live else 0.0

    def accept(point, t):
        return (point[0] > 5.0 and t <= 4.0) or (point[0] < -5.0 and t <= 0.5)

    found, taken_t, taken, calls = _run_block_search(X, D, step, (2, 4), accept, floor, byte_rule)
    second = 4 + ((1 if byte_rule else 2) if partly_live else 4)
    assert calls == [6, second]
    assert found.tolist() == [True, True, False]
    for i in range(len(X)):
        ref = _loop_search(X[i], D[i], step[i], 6, accept, floor, byte_rule)
        assert found[i] == (ref is not None)
        if ref is not None:
            assert taken_t[i] == step[i] * 2.0 ** -ref[0]
            assert taken[i].tobytes() == ref[1].tobytes()


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


def _trials_above(floor, cap=1.0):
    """How many steps cap * 2^-j, j = 0, 1, ..., lie above floor: the
    longest search of a caller whose step never exceeds cap."""
    return int(np.sum(cap * np.ldexp(1.0, -np.arange(1100)) > floor))


def test_newton_blocks_hold_its_thirty_trials():
    """The Newton line search tries exactly 2^-j for j = 0..29."""
    assert sum(solvers._SEARCH_BLOCKS) == 30


@pytest.mark.parametrize(
    "blocks,floor,cap,trials",
    [("_XI_BLOCKS", 1e-18, analysis._XI_STEP_CAP, 80)],
)
def test_floor_searches_reach_their_floor_inside_the_blocks(blocks, floor, cap, trials):
    """A step of at most cap (_XI_STEP_CAP for the xi descent) has this
    many trials above the floor, and the blocks hold them all, so every
    unaccepted row leaves at the floor as its sequential loop does, not when
    the blocks run out."""
    assert _trials_above(floor, cap) == trials
    assert sum(getattr(analysis, blocks)) >= trials


@pytest.mark.parametrize(
    "m,p,calls,rows",
    [(8, 3.0, 74, 4514), (12, 3.0, 104, 5951), (32, 3.0, 171, 8730)],
)
def test_xi_descent_energy_calls_and_rows(monkeypatch, cold_caches, m, p, calls, rows):
    """The descent of _xi_search (32 starts, n = 1) makes this many
    _difference_energy calls over this many rows.  Along the plain
    projected gradient, in blocks of (2, 4, 8, 16, 32), it made 282 calls
    over 12902 rows at m = 8 and 748 calls over 34551 rows at m = 12, and
    at m = 32 only 2 of its 32 starts converged in 5000 rounds."""
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


def test_xi_descent_converges_on_every_start_at_m32():
    """The preconditioned direction's rounds do not grow like m^2: at
    (m, n, p) = (32, 1, 3) all 32 starts of _xi_search converge, to the
    same value within 1e-14 relative."""
    starts = analysis._unit_directions(analysis.rng_for(0, 32, 1), 32, (32, 1), zero_mean=True)
    vals, converged = analysis._xi_descent(starts, 3.0, 1e-10, 5000)
    assert converged.all()
    assert vals.max() <= vals.min() * (1.0 + 1e-14)


def _record_bytes(sol):
    return [
        (r.u.flat().tobytes(), r.residual_norm, r.action_value, r.morse_index, r.method, r.start_index)
        for r in sol.records
    ]


def test_newton_deflated_calls_and_rows(monkeypatch):
    """find_multiple on the shipped example3_sweep at lambda = 10 on Y (the
    sweep benchmark's last grid point, without its warm pool) makes this
    many _deflated_rows calls over this many rows, and its 54 records are
    bitwise those of a search that tries one trial per call.  Blocks of
    (1, 2, 4, 8, 15) trials made 361 calls over 2372 rows."""
    loaded = load_config(str(CONFIGS / "example3_sweep.json"))
    prob = loaded.problem.with_lambda(10.0)
    seen = {"calls": 0, "rows": 0}
    real = solvers._deflated_rows

    def spy(system, known, y):
        seen["calls"] += 1
        seen["rows"] += len(y)
        return real(system, known, y)

    monkeypatch.setattr(solvers, "_deflated_rows", spy)
    sol = solvers.find_multiple(prob, loaded.solver, subspace=loaded.subspace)
    assert seen == {"calls": 250, "rows": 3518}
    assert len(sol.records) == 54 and not sol.y_discrepancies

    monkeypatch.setattr(solvers, "_SEARCH_BLOCKS", (1,) * 30)
    one_by_one = solvers.find_multiple(prob, loaded.solver, subspace=loaded.subspace)
    assert _record_bytes(sol) == _record_bytes(one_by_one)
