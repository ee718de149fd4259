"""The anticoercivity probe's ascent, all directions in lock step.

`analysis._ascend_rows` ascends every row of an (S, dim) stack at once, with
one call of `analysis._action_residual_rows` per line-search block, which
gives the action and the residual of every trial; each row carries the
residual of the trial it takes into its next round.  Each row must follow
the iterates of the one-direction-at-a-time loop it replaced
(`test_stacked_checks._loop_ascend`) bit for bit and leave by the same
exit.
"""

import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pklap.analysis as analysis
import pklap.cli as cli
from pklap.analysis import (
    _action_or_limit_rows,
    _action_residual_rows,
    _ascend_rows,
    anticoercivity_probe,
)
from pklap.core import EvaluationError, ExponentFunction, Nonlinearity, Problem, _row_norms
from pklap.nonlinearities import make_power
from pklap.operators import _residual_rows
from test_lockstep import FAMILIES, _problem, _same_bits
from test_stacked_checks import _dumps, _loop_ascend, _loop_probe

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _power_problem(m, s, p):
    nl, _ = make_power(m, a=1.0, b=1.0, s=s, r=s)
    return Problem(m=m, n=1, exponent=ExponentFunction.constant(p, m), nonlinearity=nl, lam=1.0)


# drawn directions leave these ascents by the line search after 10 to 40 rounds
POWER2 = _power_problem(2, 2.0, 2.0)
POWER3 = _power_problem(3, 3.0, 2.5)


def _compare(D0, prob, t_last, max_iter=400):
    """Run _ascend_rows on D0, assert each row is bitwise the loop's, and
    return the rows and the loop's exits."""
    got = _ascend_rows(D0, prob, t_last)
    assert got.shape == D0.shape
    exits = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for row, d0 in zip(got, D0):
            ref, exit_ = _loop_ascend(d0, prob, t_last, max_iter)
            assert _same_bits(row, ref)
            exits.append(exit_)
    return got, exits


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_ascent_rows_match_the_point_loop(name):
    """The four built-ins, a per-point family and the n = 2 family, at the
    probe's terminal radius."""
    prob = _problem(FAMILIES[name])
    D0 = np.random.default_rng(5).normal(size=(4, prob.dim))
    _compare(D0, prob, 1000.0)


def test_each_row_leaves_by_its_own_exit(monkeypatch):
    """One stack whose rows leave by the line search, the iteration cap, the
    gradient test and a failed residual (a NaN direction); the failing row
    does not disturb the others, and each row alone gives the same bits."""
    monkeypatch.setattr(analysis, "_ASCENT_MAX_ITER", 15)
    D0 = np.vstack((np.random.default_rng(0).normal(size=(2, 2)), [[1.0, 1.0], [math.nan, math.nan]]))
    got, exits = _compare(D0, POWER2, 10.0, max_iter=15)
    assert exits == ["search", "cap", "gradient", "residual"]
    assert np.isnan(got[3]).all()
    for i in range(len(D0)):
        assert _same_bits(_ascend_rows(D0[i : i + 1], POWER2, 10.0), got[i : i + 1])


def _assert_fused_matches(x, prob):
    """_action_residual_rows on the flat points x is, row by row and bitwise,
    _action_or_limit_rows plus _residual_rows."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals, r, ok = _action_residual_rows(x, prob)
        ref_vals = _action_or_limit_rows(x, prob)
        ref_r, ref_ok = _residual_rows(x.reshape(-1, prob.m, prob.n), prob)
    assert _same_bits(vals, ref_vals)
    assert _same_bits(r, ref_r.reshape(len(x), prob.dim))
    assert ok.tolist() == ref_ok.tolist()
    return vals, ok


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_fused_pass_matches_action_and_residual(name):
    """Every family, on a stack that holds a zero row, a -0.0 entry, rows up
    to radius 1e200 (where the differences' norms overflow) and a NaN and
    an infinite row, and on an empty stack."""
    prob = _problem(FAMILIES[name])
    rng = np.random.default_rng(11)
    x = rng.normal(size=(10, prob.dim)) * np.array([1, 1, 0, 1, 10, 1e3, 1e5, 1e200, 1, 1])[:, None]
    x[3, 0] = -0.0
    x[8, 1] = math.nan
    x[9, 0] = math.inf
    _, ok = _assert_fused_matches(x, prob)
    assert not ok[7:].any()
    _assert_fused_matches(x[:0], prob)


def test_fused_pass_matches_on_overflowing_rows():
    """The power family at p = 60, where mu and the residual overflow past
    radius 1000 (action +inf), and at s = 60, p = 2, where only the potential
    overflows (action -inf)."""
    x = np.random.default_rng(12).normal(size=(6, 2))
    x /= _row_norms(x)[:, None]
    x *= np.array([1.0, 1e3, 1e3, 1e5, 1e7, 1e9])[:, None]
    vals, ok = _assert_fused_matches(x, _power_problem(2, 2.0, 60.0))
    assert math.inf in vals.tolist() and not ok.all() and ok[:3].all()
    vals, _ = _assert_fused_matches(x, _power_problem(2, 60.0, 2.0))
    assert -math.inf in vals.tolist()


def test_fused_pass_raises_a_malformed_potential_and_defers_a_malformed_coupling():
    """F returning two values raises the EvaluationError of the action; F2
    returning two components leaves the residual to _residual_rows (r and
    ok are None), with the action values unchanged."""
    x = np.array([[1.0, 2.0], [3.0, -1.0]])
    bad_f = Nonlinearity(
        m=2,
        F=lambda k, u1, u2: np.array([0.0, 0.0]) if u1[0] else 0.0,
        F2_prime=lambda k, u1, u2: np.array([0.0]),
        F3_prime=lambda k, u1, u2: np.array([0.0]),
    )
    prob = Problem(m=2, n=1, exponent=ExponentFunction.constant(2.0, 2), nonlinearity=bad_f, lam=1.0)
    with pytest.raises(EvaluationError) as fused:
        _action_residual_rows(x, prob)
    with pytest.raises(EvaluationError) as alone:
        _action_or_limit_rows(x, prob)
    assert str(fused.value) == str(alone.value)
    x = np.array([[1.0, 2.0, 0.5], [3.0, -1.0, 0.0]])
    prob = _malformed_problem(lambda u1: True)
    vals, r, ok = _action_residual_rows(x, prob)
    assert r is None and ok is None
    assert _same_bits(vals, _action_or_limit_rows(x, prob))
    with pytest.raises(EvaluationError):
        _residual_rows(x.reshape(-1, 3, 1), prob)


def _malformed_problem(bad, base=POWER3):
    """base's family through per-point callbacks whose F2 returns two
    components at n = 1 where bad(u1) holds."""
    nl = base.nonlinearity

    def F2(k, u1, u2):
        g = nl.F2_prime(k, u1, u2)
        return np.array([g[0], 0.0]) if bad(u1) else g

    return dataclasses.replace(
        base, nonlinearity=Nonlinearity(m=nl.m, F=nl.F, F2_prime=F2, F3_prime=nl.F3_prime)
    )


def _count_residual_calls(monkeypatch):
    calls = []
    real = analysis._residual_rows
    monkeypatch.setattr(analysis, "_residual_rows", lambda *a: calls.append(a) or real(*a))
    return calls


def test_rejected_trial_in_a_malformed_region_does_not_end_the_ascent(monkeypatch):
    """F2 is malformed only where |u1| > 0.9 at radius 1: a block of rejected
    trials reaches there, so that block has no residuals, and the next round
    evaluates the residuals of its rows with _residual_rows.  No accepted
    iterate reaches the region, so every row leaves by its line search, bit
    for bit as the loop's."""
    calls = _count_residual_calls(monkeypatch)
    prob = _malformed_problem(lambda u1: abs(u1[0]) > 0.9)
    _, exits = _compare(np.random.default_rng(1).normal(size=(4, 3)), prob, 1.0)
    assert exits == ["search"] * 4
    assert len(calls) == 1


def test_accepted_trial_in_a_malformed_region_ends_the_ascent_there(monkeypatch):
    """At |u1| > 0.8 some rows take a trial in the malformed region: the next
    round's _residual_rows raises and the row stops at that trial, as the
    loop's does; the rows that stay outside leave by their line search."""
    calls = _count_residual_calls(monkeypatch)
    prob = _malformed_problem(lambda u1: abs(u1[0]) > 0.8)
    D0 = np.random.default_rng(1).normal(size=(4, 3))
    exits = [_compare(D0[i : i + 1], prob, 1.0)[1][0] for i in range(4)]
    assert exits == ["residual", "search", "search", "residual"]
    assert len(calls) == 2


def test_malformed_callback_fails_every_row_as_alone():
    """F2 returns two components at n = 1: the residual raises
    EvaluationError, which ends each row's ascent at its start direction,
    as the loop's does, instead of leaving the probe."""
    nl = Nonlinearity(
        m=2,
        F=lambda k, u1, u2: u1[0] ** 2,
        F2_prime=lambda k, u1, u2: np.array([1.0, 2.0]),
        F3_prime=lambda k, u1, u2: np.array([0.0]),
    )
    prob = Problem(m=2, n=1, exponent=ExponentFunction.constant(2.0, 2), nonlinearity=nl, lam=1.0)
    _, exits = _compare(np.array([[1.0, 2.0], [3.0, -1.0]]), prob, 10.0)
    assert exits == ["residual", "residual"]


def test_cap_leaves_rows_where_the_loop_stops(monkeypatch):
    """A cap below every row's search length stops all rows after that many
    rounds, as the loop's max_iter does."""
    monkeypatch.setattr(analysis, "_ASCENT_MAX_ITER", 3)
    D0 = np.random.default_rng(1).normal(size=(4, 3))
    _, exits = _compare(D0, POWER3, 10.0, max_iter=3)
    assert exits == ["cap"] * 4


_DIRECTION = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda v: math.hypot(*v) > 1e-3
)


@settings(max_examples=25, deadline=None)
@given(st.lists(_DIRECTION, min_size=1, max_size=4), st.sampled_from([1.0, 10.0, 1000.0]))
def test_ascent_rows_match_on_drawn_directions(rows, t_last):
    _compare(np.array(rows), POWER3, t_last)


def test_overflowing_gradient_norm_still_moves_the_ascent():
    """At p = 60 and radius 1000 the gradient's entries are near 1e189, so
    its norm overflows.  Each row's gradient is scaled by its largest entry
    before the norm, so every row moves off its start and raises J, as the
    loop does, instead of stalling there."""
    prob = _power_problem(2, 2.0, 60.0)
    D0 = np.random.default_rng(3).normal(size=(4, 2))
    start = D0 / _row_norms(D0)[:, None]
    with np.errstate(over="ignore"):
        r, ok = _residual_rows((1000.0 * start).reshape(-1, 2, 1), prob)
        assert ok.all() and np.all(np.isinf(_row_norms(1000.0 * r.reshape(4, 2))))
    got, exits = _compare(D0, prob, 1000.0)
    assert not np.any(np.all(got == start, axis=1))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.all(
            _action_or_limit_rows(1000.0 * got, prob) > _action_or_limit_rows(1000.0 * start, prob)
        )


@pytest.mark.parametrize("directions", [1, 3])
def test_probe_with_fewer_than_four_directions_ascends_them_all(directions):
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _loop_probe(POWER2, directions=directions, seed=0, optimize_worst=True)
    got = anticoercivity_probe(POWER2, directions=directions, seed=0, optimize_worst=True)
    assert got.samples == 2 * directions
    assert _dumps(got) == _dumps(ref)


def test_probe_makes_few_stacked_calls(monkeypatch):
    """On the shipped example1_m4 the probe makes one action call for the
    table of the sampled rays, one for the ascended rays, and one fused
    action and residual call for the ascent's start values and per
    line-search block; the ascent carries each taken trial's residual, so
    it makes no residual call of its own (the one-direction loop made 227
    one-row residual calls and 561 action calls, and the ascent with one
    residual call per round made 88 residual calls over 227 rows).  Counts,
    not timings, so the host's load does not matter; the action rows pin
    that every block evaluates the same trials."""
    loaded = cli.load_config(str(CONFIGS / "example1_m4.json"))
    calls = {"residual": 0, "residual rows": 0, "action": 0, "action rows": 0}

    def counting(key, real):
        def wrapper(x, prob):
            calls[key] += 1
            calls[f"{key} rows"] += x.size // prob.dim
            return real(x, prob)

        return wrapper

    monkeypatch.setattr(analysis, "_residual_rows", counting("residual", analysis._residual_rows))
    for name in ("_action_or_limit_rows", "_action_residual_rows"):
        monkeypatch.setattr(analysis, name, counting("action", getattr(analysis, name)))
    anticoercivity_probe(loaded.problem, seed=loaded.solver.seed, optimize_worst=True)
    assert calls == {"residual": 0, "residual rows": 0, "action": 124, "action rows": 872}


@pytest.mark.parametrize(
    "cfg,ascends",
    [
        # the snapshot's power_p60 and power_p1100: a sampled ray is the witness
        ({"m": 2, "n": 1, "p": [60, 60], "lambda": 5.0, "seed": 3,
          "nonlinearity": {"builtin": "power", "params": {"a": 1.0, "b": 1.0, "s": 2.0, "r": 2.0}}},
         False),
        (dict(json.loads((CONFIGS / "power_borderline.json").read_text()), p=1100), False),
        # example2_m3: the witness is an ascended ray
        (json.loads((CONFIGS / "example2_m3.json").read_text()), True),
    ],
)
def test_probe_ascends_only_when_every_sampled_ray_passes(tmp_path, monkeypatch, cfg, ascends):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    loaded = cli.load_config(str(path))
    calls = []
    real = analysis._ascend_rows
    monkeypatch.setattr(analysis, "_ascend_rows", lambda *a: calls.append(a) or real(*a))
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _loop_probe(loaded.problem, seed=loaded.solver.seed, optimize_worst=True)
    got = anticoercivity_probe(loaded.problem, seed=loaded.solver.seed, optimize_worst=True)
    assert len(calls) == int(ascends)
    assert got.verdict == "violated" and got.witness["optimized"] == ascends
    assert got.samples == 36
    assert _dumps(got) == _dumps(ref)
