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
import hashlib
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
from pklap.nonlinearities import make_builtin, make_power
from pklap.operators import _residual_rows
from test_cli import _bench_check_configs
from test_lockstep import FAMILIES, _problem, _same_bits
from test_stacked_checks import _dumps, _loop_ascend, _loop_probe

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _power_problem(m, s, p):
    nl, _ = make_power(m, a=1.0, b=1.0, s=s, r=s)
    return Problem(m=m, n=1, exponent=ExponentFunction.constant(p, m), nonlinearity=nl, lam=1.0)


# drawn directions leave these ascents by the line search after 10 to 40 rounds
POWER2 = _power_problem(2, 2.0, 2.0)
POWER3 = _power_problem(3, 3.0, 2.5)


def _example1(m):
    """example1 at lambda 1: p = 2 at m = 4, as shipped, and the benchmark's
    p = 2, 2.5, 3, ... at m = 8."""
    p = [2.0] * m if m == 4 else [(2.0, 2.5, 3.0)[k % 3] for k in range(m)]
    nl = make_builtin("example1", m, {}).nonlinearity
    return Problem(m=m, n=1, exponent=ExponentFunction(np.array(p)), nonlinearity=nl, lam=1.0)


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


# sha256 of the final directions of the ascent that accepts any rise in J,
# on example1 from np.random.default_rng(m).normal(size=(4, m)) at radius
# 1000: its rows leave by the line search and the iteration cap
EXAMPLE1_DIGESTS = {
    4: "1ea722e8bc1fbf4b357838eddf5ccb1ca8169a44854a7b3c518f8f747ea3db73",
    8: "d0879a01c3e0617f5f9deb6b6d60ff961c64dfce81ca70d5948da22f7ac6e348",
}


@pytest.mark.parametrize("m", sorted(EXAMPLE1_DIGESTS))
def test_zero_rise_tolerance_keeps_every_rise(monkeypatch, m):
    """At a rise tolerance of 0 no rise stalls a row: the ascent keeps every
    rise, as it did before rows could stall."""
    monkeypatch.setattr(analysis, "_ASCENT_RISE_RTOL", 0.0)
    D0 = np.random.default_rng(m).normal(size=(4, m))
    got = _ascend_rows(D0, _example1(m), 1000.0)
    assert hashlib.sha256(got.tobytes()).hexdigest() == EXAMPLE1_DIGESTS[m]


def _final_values(D0, prob, t_last, monkeypatch, rtol):
    monkeypatch.setattr(analysis, "_ASCENT_RISE_RTOL", rtol)
    with np.errstate(over="ignore", invalid="ignore"):
        return _action_or_limit_rows(t_last * _ascend_rows(D0, prob, t_last), prob)


@pytest.mark.parametrize("name", sorted(set(FAMILIES) - {"example1"}))
def test_stalled_rows_keep_the_full_rise(monkeypatch, name):
    """Away from example1 each row's final J at the default rise tolerance
    is within 1e-9 max(1, |J|) of the ascent that keeps every rise (at most
    2.5e-10 over 40 drawn start stacks of example2, 3e-13 over 10 of the
    others)."""
    prob = _problem(FAMILIES[name])
    D0 = np.random.default_rng(5).normal(size=(4, prob.dim))
    stalled = _final_values(D0, prob, 1000.0, monkeypatch, analysis._ASCENT_RISE_RTOL)
    full = _final_values(D0, prob, 1000.0, monkeypatch, 0.0)
    assert np.all(np.abs(stalled - full) <= 1e-9 * np.maximum(1.0, np.abs(full)))


def test_example1_rows_stall_and_one_stalls_before_a_breakout(monkeypatch):
    """On example1 every row stalls, bit for bit where the loop does, long
    before the cap.  A stalled row holds an iterate of the full ascent, so
    its J is at most the full ascent's; but a stall is not a maximum: row 2
    creeps at rises of about 1e-14 |J| from round 12, where it stalls, and
    the full ascent later leaves that creep and raises J by a further 26 %.
    The probe reports only its worst ray, and on the benchmark's configs
    the stall moved no margin by more than 2.2e-11
    (test_stall_keeps_the_probe_reports)."""
    prob = _problem(FAMILIES["example1"])
    D0 = np.random.default_rng(5).normal(size=(4, prob.dim))
    _, exits = _compare(D0, prob, 1000.0)
    assert exits == ["stall"] * 4
    stalled = _final_values(D0, prob, 1000.0, monkeypatch, analysis._ASCENT_RISE_RTOL)
    full = _final_values(D0, prob, 1000.0, monkeypatch, 0.0)
    shortfall = (full - stalled) / np.abs(full)
    assert np.all(shortfall >= 0.0)
    assert shortfall[2] > 0.25 and np.all(np.delete(shortfall, 2) < 1e-4)


@pytest.mark.parametrize("m", sorted(EXAMPLE1_DIGESTS))
def test_example1_ascent_stalls_where_the_loop_does(m):
    _, exits = _compare(np.random.default_rng(m).normal(size=(4, m)), _example1(m), 1000.0)
    assert exits == ["stall"] * 4


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stall_keeps_the_probe_reports(tmp_path, monkeypatch, seed):
    """On the benchmark's check configs that run the ascent the probe's
    verdict is unchanged and its margin within 1e-9 of the full ascent's
    (at most 2.2e-11 over seeds 1 to 20)."""
    for name, cfg in _bench_check_configs(seed).items():
        if cfg["nonlinearity"]["builtin"] == "example3":
            continue  # a bounded family has no anticoercivity report
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        prob = cli.load_config(str(path)).problem
        reports = []
        for rtol in (analysis._ASCENT_RISE_RTOL, 0.0):
            monkeypatch.setattr(analysis, "_ASCENT_RISE_RTOL", rtol)
            reports.append(anticoercivity_probe(prob, seed=cfg["seed"], optimize_worst=True))
        stalled, full = reports
        assert stalled.verdict == full.verdict, name
        assert abs(stalled.margin - full.margin) <= 1e-9 * max(1.0, abs(full.margin)), name


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
    iterate reaches the region, so every row leaves by its line search or
    stalls, bit for bit as the loop's."""
    calls = _count_residual_calls(monkeypatch)
    prob = _malformed_problem(lambda u1: abs(u1[0]) > 0.9)
    _, exits = _compare(np.random.default_rng(1).normal(size=(4, 3)), prob, 1.0)
    assert exits == ["stall", "stall", "search", "stall"]
    assert len(calls) == 1


def test_accepted_trial_in_a_malformed_region_ends_the_ascent_there(monkeypatch):
    """At |u1| > 0.8 some rows take a trial in the malformed region: the next
    round's _residual_rows raises and the row stops at that trial, as the
    loop's does; the rows that stay outside stall or leave by their line
    search."""
    calls = _count_residual_calls(monkeypatch)
    prob = _malformed_problem(lambda u1: abs(u1[0]) > 0.8)
    D0 = np.random.default_rng(1).normal(size=(4, 3))
    exits = [_compare(D0[i : i + 1], prob, 1.0)[1][0] for i in range(4)]
    assert exits == ["residual", "stall", "search", "residual"]
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
    residual call per round made 88 residual calls over 227 rows).  Rows
    stop once their rise in J is at the rounding of J; without that stall
    the same probe made 124 action calls over 872 rows.  Counts, not
    timings, so the host's load does not matter; the action rows pin that
    every block evaluates the same trials."""
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
    assert calls == {"residual": 0, "residual rows": 0, "action": 65, "action rows": 558}


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
