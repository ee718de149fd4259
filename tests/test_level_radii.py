"""The level radii of B.2/B.3 and lambda-star, found for all directions at once.

analysis._level_radii solves mu(t * v) = r for every row of a stack of
directions by Newton's method on log t, where log mu is convex and
increasing.  The oracles: each radius lies on the level set to 1e-12
relative in t (mu(t (1 - 1e-12) v) < r < mu(t (1 + 1e-12) v)), meets the
closed form at constant p, and is bit for bit the radius of its direction
alone; no mu pass is made.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pklap.analysis as analysis
from pklap.analysis import (
    _level_radii,
    _unit_directions,
    check_b2_b3,
    lambda_star_estimate,
    rng_for,
)
from pklap.core import EvaluationError, ExponentFunction, Problem
from pklap.functional import _action_rows
from pklap.nonlinearities import make_example3, make_power
from test_lockstep import _same_bits
from test_shared_loops import _well_nl2

EPS = np.finfo(float).eps


def _problem(m, p, n=1):
    """example3 at n = 1, an n = 2 family otherwise; mu needs no more."""
    nl = make_example3(m)[0] if n == 1 else _well_nl2(m)
    return Problem(m=m, n=n, exponent=ExponentFunction(np.broadcast_to(p, m).astype(float)),
                   nonlinearity=nl, lam=1.0)


def _directions(seed, count, m, n=1):
    rng = rng_for(seed, m, n)
    return _unit_directions(rng, count, (m, n), zero_mean=True)


def _mus(prob, V, t):
    return _action_rows(t[:, None, None] * V, prob)[0]


def _assert_on_the_level(prob, V, r, radii):
    """mu(t (1 - 1e-12) v) < r < mu(t (1 + 1e-12) v) on every row."""
    assert np.isfinite(radii).all() and (radii > 0.0).all()
    below = _mus(prob, V, radii * (1.0 - 1e-12))
    above = _mus(prob, V, radii * (1.0 + 1e-12))
    assert (below < r).all(), (below / r - 1.0).tolist()
    assert (r < above).all(), (above / r - 1.0).tolist()


def _assert_radii_match_the_loop(prob, V, r):
    """Each stacked radius is bit for bit its direction's radius alone."""
    radii = _level_radii(prob, V, r)
    assert radii.shape == (len(V),)
    for i, v in enumerate(V):
        assert _same_bits(radii[i], _level_radii(prob, v[None], r)[0]), i
    return radii


# ---------------------------------------------------------------------------
# Level radii
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "m,p,r",
    [
        (2, 2.0, 0.5),
        (4, 2.5, 1e-3),
        (4, 2.5, 50.0),
        (8, [2.0, 3.0, 2.5, 4.0, 2.0, 3.5, 2.2, 2.8], 0.3),
        (4, 1100.0, 4.0 / 1100.0 / 2.0),  # mu at twice the radius overflows
        (4, 1100.0, 1.7976931348623157e308),  # checked in test_stacked_checks
        (3, 2.0, 1e300),  # the radius is about 1e150
        (3, 1.5, 2.0),
    ],
)
def test_level_radii_match_the_one_direction_loop(m, p, r):
    prob = _problem(m, p)
    V = _directions(m, 60, m)
    radii = _assert_radii_match_the_loop(prob, V, r)
    if r < 1e308:
        _assert_on_the_level(prob, V, r, radii)


def test_level_radii_of_n2_directions():
    prob = Problem(m=3, n=2, exponent=ExponentFunction([2.0, 3.0, 2.5]), nonlinearity=_well_nl2(3),
                   lam=1.0)
    V = _directions(1, 40, 3, 2)
    _assert_on_the_level(prob, V, 0.7, _assert_radii_match_the_loop(prob, V, 0.7))


@pytest.mark.parametrize("m,n,p", [(2, 1, 2.0), (4, 1, 1.01), (8, 2, 3.5), (16, 1, 60.0), (4, 2, 1100.0)])
@pytest.mark.parametrize("r", [1e-20, 0.3, 7.0, 1e20])
def test_level_radii_meet_the_closed_form_at_constant_p(m, n, p, r):
    """At constant p, log mu is affine in log t and the first Newton step
    lands on t = (r p / sum |Delta v|^p)^(1/p), within a few ulps of log t."""
    prob = _problem(m, p, n)
    V = _directions(7, 20, m, n)
    d = np.roll(V, -1, axis=1) - V
    closed = (r * p / np.sum(np.linalg.norm(d, axis=2) ** p, axis=1)) ** (1.0 / p)
    radii = _level_radii(prob, V, r)
    ulps = np.abs(np.log(radii) - np.log(closed)) / (EPS * np.maximum(1.0, np.abs(np.log(closed))))
    assert (ulps <= 4.0).all(), ulps.tolist()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    m=st.integers(2, 12),
    n=st.sampled_from([1, 2]),
    p_plus=st.floats(1.01, 1100.0),
    variable=st.booleans(),
    log_r=st.floats(-30.0, 30.0),
    log_scale=st.floats(-30.0, 30.0),
)
def test_level_radii_bracket_the_level_set(seed, m, n, p_plus, variable, log_r, log_scale):
    rng = rng_for(seed, 29)
    p = rng.uniform(1.0, p_plus, m) if variable else np.full(m, p_plus)
    prob = _problem(m, p, n)
    V = 10.0**log_scale * _directions(seed, 6, m, n)
    _assert_on_the_level(prob, V, 10.0**log_r, _level_radii(prob, V, 10.0**log_r))


def test_level_radii_at_extreme_scales():
    """At p = 1100 and B.2's radius, a direction scaled by 1e300 and one
    scaled by 1e-20 get their radii (about 1e-300 and 1e20) on the level
    set like the unit directions beside them."""
    prob = _problem(4, 1100.0)
    V = _directions(5, 6, 4)
    V[1] *= 1e-20
    V[3] *= 1e300
    V[4] *= 1e-3
    r = 4.0 / 1100.0 / 2.0
    radii = _assert_radii_match_the_loop(prob, V, r)
    _assert_on_the_level(prob, V, r, radii)
    assert _mus(prob, V, radii) / r == pytest.approx(np.ones(6), rel=1e-12)
    assert 1e-301 < radii[3] < 1e-299 and 1e19 < radii[1] < 1e21 and 512.0 < radii[4] < 2048.0


def test_level_radii_rows_fail_alone():
    """At p = 1.01 and r = 1e10, a direction scaled by 1e-300 has log t of
    about 714: its radius overflows to inf, and the rows beside it keep
    their finite radii (about 1e10)."""
    prob = _problem(4, 1.01)
    V = _directions(5, 5, 4)
    V[2] *= 1e-300
    radii = _assert_radii_match_the_loop(prob, V, 1e10)
    assert radii[2] == math.inf
    keep = [0, 1, 3, 4]
    _assert_on_the_level(prob, V[keep], 1e10, radii[keep])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    p=st.floats(1.2, 40.0),
    log_r=st.floats(-6.0, 6.0),
    scale=st.sampled_from([1.0, 1e-3, 1e3]),
)
def test_level_radii_match_the_loop_on_random_problems(seed, p, log_r, scale):
    _assert_radii_match_the_loop(_problem(4, p), scale * _directions(seed, 12, 4), 10.0**log_r)


def test_level_radii_of_no_directions():
    radii = _level_radii(_problem(4, 2.0), np.zeros((0, 4, 1)), 1.0)
    assert radii.shape == (0,)


# ---------------------------------------------------------------------------
# Callers: stacked calls and the order of failures
# ---------------------------------------------------------------------------


def _count_stack_calls(monkeypatch):
    """The stacks analysis passes to _stack_pass; the terms passes of
    _stack_values go through functional._action_rows."""
    calls = []
    real = analysis._stack_pass

    def spy(vals, prob, **outputs):
        calls.append(len(vals))
        return real(vals, prob, **outputs)

    monkeypatch.setattr(analysis, "_stack_pass", spy)
    monkeypatch.setattr(analysis, "_action_rows", lambda vals, p_: calls.append(len(vals)) or _action_rows(vals, p_))
    return calls


@pytest.mark.parametrize("p", [2.0, 2.5, 1100.0])
def test_lambda_star_solves_its_radii_in_few_stacked_mu_calls(monkeypatch, p):
    """_level_radii evaluates no mu: each radius of the grid makes one
    stacked call, the terms pass over the points of its 200 samples."""
    prob = _problem(4, p)
    calls = _count_stack_calls(monkeypatch)
    r2 = float(np.sum((2.0 * 0.5) ** prob.exponent.values / prob.exponent.values))
    _level_radii(prob, _directions(3, 200, 4), r2 / 2.0)
    assert calls == []
    lambda_star_estimate(prob, [r2 / 4.0, r2 / 2.0, 0.75 * r2], seed=3)
    assert calls == [1 + 2 * 200] * 3


def test_b2_b3_raise_the_first_failing_direction_after_the_ones_before(monkeypatch, b2_samples):
    """At p = 1.01 and r = 1e10, the fourth and the tenth direction,
    scaled by 1e-300, have radii that overflow: the error names the fourth
    direction and r, and comes after the three directions before it are
    evaluated, in one stacked call of finite points; the fourth
    direction's points and the tenth are never evaluated."""
    prob = _problem(4, 1.01)
    real, drawn = analysis._unit_directions, []

    def scaled(*args, **kwargs):  # check_b2_b3 draws one direction per call
        drawn.append(real(*args, **kwargs))
        return drawn[-1] * 1e-300 if len(drawn) in (4, 10) else drawn[-1]

    monkeypatch.setattr(analysis, "_unit_directions", scaled)
    stacks = []
    monkeypatch.setattr(analysis, "_action_rows", lambda vals, p_: stacks.append(vals) or _action_rows(vals, p_))
    b2_samples(17, 17)
    with pytest.raises(EvaluationError) as raised:
        check_b2_b3(prob, 1e10, seed=7)
    assert str(raised.value) == (
        "level radius overflowed: no finite t has mu(t v) = r = 10000000000.0 for direction 4 of 17"
    )
    per_dir = 17
    assert len(stacks) == 1 and stacks[0].shape == (3 * (2 * per_dir + 1), 4, 1)
    assert np.isfinite(stacks[0]).all()
    V = np.concatenate(drawn[:3])
    assert _same_bits(stacks[0][:: 2 * per_dir + 1], _level_radii(prob, V, 1e10)[:, None, None] * V)


def _power_problem(m, p):
    nl = make_power(m, a=1.0, b=1.0, s=3.0, r=3.0)[0]
    return Problem(m=m, n=1, exponent=ExponentFunction.constant(p, m), nonlinearity=nl, lam=1.0)


_OVERFLOW_CALLERS = {
    "direction": lambda prob: check_b2_b3(prob, 1.0, seed=7),
    "sample": lambda prob: lambda_star_estimate(prob, [1.0], samples_per_r=17, seed=7),
}


@pytest.mark.parametrize("what", sorted(_OVERFLOW_CALLERS))
@pytest.mark.parametrize("overflowing_value", [False, True])
def test_level_radius_overflow_keeps_the_failure_order(monkeypatch, b2_samples, what, overflowing_value):
    """The fourth direction's level radius overflows.  Where the second
    direction's radius is 1e300, finite, its level point's potential
    overflows (F = |u|^3), and that error, the first in stack order, is
    raised; otherwise the fourth direction's overflow is.  B.2/B.3 run at
    17 directions, as lambda-star at 17 samples."""
    b2_samples(17, 17)
    real = analysis._level_radii

    def radii(prob, V, r):
        out = real(prob, V, r)
        out[3] = math.inf
        if overflowing_value:
            out[1] = 1e300
        return out

    monkeypatch.setattr(analysis, "_level_radii", radii)
    with pytest.raises(EvaluationError) as raised:
        _OVERFLOW_CALLERS[what](_power_problem(4, 2.0))
    if overflowing_value:
        assert str(raised.value) == "potential evaluated to a non-finite value"
    else:
        assert str(raised.value) == f"level radius overflowed: no finite t has mu(t v) = r = 1.0 for {what} 4 of 17"


def test_lambda_star_raises_a_failure_outside_mu_at_once(monkeypatch):
    """A radius of the grid that is not finite is a ValueError raised
    before any point is evaluated, whatever its place in the grid (NaN
    used to fail in mu, inf to fail to bracket)."""
    stacks = []
    monkeypatch.setattr(analysis, "_action_rows", lambda vals, p_: stacks.append(vals) or _action_rows(vals, p_))
    for grid in ([math.nan], [0.5, math.inf], [-math.inf, 0.5]):
        with pytest.raises(ValueError, match="positive finite radii"):
            lambda_star_estimate(_problem(4, 2.5), grid, samples_per_r=10, seed=0)
    assert stacks == []
