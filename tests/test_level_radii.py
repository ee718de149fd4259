"""The level radii of B.2/B.3 and lambda-star, found for all directions at once.

analysis._level_radii brackets and solves mu(t * v) = r for every row of
a stack of directions in lock step, with _brentq_rows, a port of scipy's
brentq that runs many brackets at once.  Each row must get bit for bit
the iterates and root that scipy.optimize.brentq gives it alone, and each
level radius must be bit for bit the one the one-direction loop below
(the implementation the stacked one replaced) finds, with the same
errors.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import pklap.analysis as analysis
from pklap.analysis import (
    _BRENT_MAXITER,
    _CONVERGED,
    _CONVERR,
    _NONFINITE,
    _SIGNERR,
    _brentq_rows,
    _level_radii,
    _unit_directions,
    check_b2_b3,
    lambda_star_estimate,
    rng_for,
)
from pklap.core import EvaluationError, ExponentFunction, Problem
from pklap.functional import _action_rows, mu
from pklap.nonlinearities import make_example3
from test_lockstep import _same_bits
from test_shared_loops import _well_nl2

# ---------------------------------------------------------------------------
# Brent's method on many brackets against scipy.optimize.brentq
# ---------------------------------------------------------------------------


def _poly(c, x, cut):
    """c0 + c1 x + c2 x^2 + c3 x^3 + c4 x^8 by +, - and * only, so a scalar
    and an array argument give the same bits; inf above cut."""
    x2 = x * x
    x8 = (x2 * x2) * (x2 * x2)
    val = c[0] + x * (c[1] + x * (c[2] + x * c[3])) + c[4] * x8
    return np.where(x > cut, math.inf, val)


def _scalar(c, cut, trace):
    """Function of one row as brentq calls it: records each point, and
    raises where the value is not finite, as mu does."""

    def f(x):
        trace.append(x)
        val = float(_poly(c, np.float64(x), cut))
        if not math.isfinite(val):
            raise EvaluationError("not finite")
        return val

    return f


def _rows(C, cuts, traces):
    """All rows as _brentq_rows calls them, recording each row's points."""

    def f(x, rows):
        for xi, i in zip(x.tolist(), rows.tolist()):
            traces[i].append(xi)
        return _poly(C[rows].T, x, cuts[rows])

    return f


def _scipy_outcome(c, cut, xa, xb, maxiter):
    """(status, root, points) of scipy's brentq on one row."""
    trace = []
    try:
        root, info = brentq(_scalar(c, cut, trace), xa, xb, xtol=1e-14, maxiter=maxiter,
                            full_output=True, disp=False)
    except EvaluationError:
        return _NONFINITE, math.nan, trace
    except ValueError:
        return _SIGNERR, 0.0, trace
    return (_CONVERGED if info.converged else _CONVERR), root, trace


def _assert_rows_match_scipy(C, cuts, xa, xb, maxiter=_BRENT_MAXITER):
    traces = [[] for _ in range(len(C))]
    roots, status = _brentq_rows(_rows(C, cuts, traces), xa, xb, maxiter=maxiter)
    for i in range(len(C)):
        ref_status, ref_root, ref_trace = _scipy_outcome(C[i], cuts[i], xa[i], xb[i], maxiter)
        assert status[i] == ref_status, i
        assert _same_bits(roots[i], ref_root), (i, roots[i], ref_root)
        # the same points in the same order; brentq stops at the first
        # failing point, where the stacked endpoints are evaluated together
        assert _same_bits(traces[i][: len(ref_trace)], ref_trace), i
    return roots, status


finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
row = st.tuples(
    st.lists(finite, min_size=4, max_size=4),
    st.sampled_from([0.0, 0.0, 1e-3, 1.0]),  # weight of the steep x^8 term
    finite,
    st.floats(1e-6, 10.0),
    st.sampled_from([math.inf, math.inf, math.inf, 0.5]),  # f is inf above this
)


@settings(max_examples=300)
@given(rows=st.lists(row, min_size=1, max_size=8), maxiter=st.sampled_from([100, 100, 100, 5]))
def test_brent_rows_match_scipy_brentq(rows, maxiter):
    C = np.array([cs + [w] for cs, w, _, _, _ in rows])
    xa = np.array([a for _, _, a, _, _ in rows])
    xb = xa + np.array([width for _, _, _, width, _ in rows])
    cuts = np.array([xa[i] + cut for i, (*_, cut) in enumerate(rows)])
    _assert_rows_match_scipy(C, cuts, xa, xb, maxiter)


def test_brent_rows_cover_the_endpoint_and_exact_roots():
    """Roots at either end, a secant step landing on the root (fcur == 0),
    a same-sign bracket, a non-finite value, and a steep function whose
    steps extrapolate, all in one stack."""
    C = np.array([
        [0.0, 1.0, 0.0, 0.0, 0.0],  # x: root at xa = 0
        [-1.0, 1.0, 0.0, 0.0, 0.0],  # x - 1: root at xb = 1
        [-0.25, 1.0, 0.0, 0.0, 0.0],  # x - 1/4: the first interpolation is exact
        [-2.0, 0.0, 0.0, 1.0, 0.0],  # x^3 - 2: inverse quadratic steps
        [-1e-3, 0.0, 0.0, 0.0, 1.0],  # x^8 - 1e-3, steep like mu at large p
        [1.0, 1.0, 0.0, 0.0, 0.0],  # 1 + x > 0 on [0, 1]: no sign change
        [-1.0, 0.0, 0.0, 0.0, 1.0],  # x^8 - 1, but inf above 0.9
    ])
    cuts = np.array([math.inf] * 6 + [0.9])
    xa = np.zeros(len(C))
    xb = np.array([1.0, 1.0, 1.0, 3.0, 5.0, 1.0, 2.0])
    roots, status = _assert_rows_match_scipy(C, cuts, xa, xb)
    assert status.tolist() == [_CONVERGED] * 5 + [_SIGNERR, _NONFINITE]
    assert roots[:3].tolist() == [0.0, 1.0, 0.25]
    assert roots[3] == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)


def test_brent_rows_report_no_convergence_as_brentq_does():
    C = np.array([[-2.0, 0.0, 0.0, 1.0, 0.0], [-0.25, 1.0, 0.0, 0.0, 0.0]])
    cuts = np.full(2, math.inf)
    _, status = _assert_rows_match_scipy(C, cuts, np.zeros(2), np.array([3.0, 1.0]), maxiter=2)
    assert status.tolist() == [_CONVERR, _CONVERGED]


def test_brent_rows_of_an_empty_stack():
    roots, status = _brentq_rows(lambda x, rows: pytest.fail("f called"), np.zeros(0), np.zeros(0))
    assert roots.shape == status.shape == (0,)


# ---------------------------------------------------------------------------
# Level radii against the one-direction loop
# ---------------------------------------------------------------------------


def _mu_or_inf(x, prob):
    try:
        return mu(x, prob)
    except EvaluationError:
        return math.inf


def _loop_level_radius(prob, v, r):
    """The level radius of one direction: a doubling bracket, its top
    bisected where mu overflows, then scipy's brentq."""
    t_lo, t_hi = 0.0, 1.0
    val = _mu_or_inf(t_hi * v, prob)
    while val < r:
        t_lo, t_hi = t_hi, 2.0 * t_hi
        if t_hi > 1e12:
            raise EvaluationError("could not bracket the sublevel radius")
        val = _mu_or_inf(t_hi * v, prob)
    while val == math.inf:
        mid = 0.5 * (t_lo + t_hi)
        if not t_lo < mid < t_hi:
            raise EvaluationError("mu overflows on every bracket of the sublevel radius")
        mid_val = _mu_or_inf(mid * v, prob)
        if mid_val < r:
            t_lo = mid
        else:
            t_hi, val = mid, mid_val
    if val == r:
        return t_hi
    return float(brentq(lambda t: mu(t * v, prob) - r, 0.0, t_hi, xtol=1e-14))


def _assert_radii_match_the_loop(prob, V, r):
    radii, errors = _level_radii(prob, V, r)
    for i, v in enumerate(V):
        try:
            ref = _loop_level_radius(prob, v, r)
        except EvaluationError as exc:
            assert type(errors.get(i)) is EvaluationError and str(errors[i]) == str(exc), i
            assert math.isnan(radii[i])
        else:
            assert i not in errors, (i, errors.get(i))
            assert _same_bits(radii[i], ref), (i, radii[i], ref)
    return radii, errors


def _example3(m, p):
    return Problem(m=m, n=1, exponent=ExponentFunction(np.broadcast_to(p, m).astype(float)),
                   nonlinearity=make_example3(m)[0], lam=1.0)


def _directions(seed, count, m, n=1):
    rng = rng_for(seed, m, n)
    return _unit_directions(rng, count, (m, n), zero_mean=True)


@pytest.mark.parametrize(
    "m,p,r",
    [
        (2, 2.0, 0.5),
        (4, 2.5, 1e-3),
        (4, 2.5, 50.0),
        (8, [2.0, 3.0, 2.5, 4.0, 2.0, 3.5, 2.2, 2.8], 0.3),
        (4, 1100.0, 4.0 / 1100.0 / 2.0),  # the doubled top overflows and is bisected
        (4, 1100.0, 1.7976931348623157e308),  # the bisected ends meet
        (3, 2.0, 1e300),  # the top passes 1e12
        (3, 1.5, 2.0),
    ],
)
def test_level_radii_match_the_one_direction_loop(m, p, r):
    _assert_radii_match_the_loop(_example3(m, p), _directions(m, 60, m), r)


def test_level_radii_of_n2_directions():
    prob = Problem(m=3, n=2, exponent=ExponentFunction([2.0, 3.0, 2.5]), nonlinearity=_well_nl2(3),
                   lam=1.0)
    _assert_radii_match_the_loop(prob, _directions(1, 40, 3, 2), 0.7)


def test_level_radii_rows_fail_alone():
    """A row that fails to bracket shares one stack with rows that double
    their top, bisect an overflowing top a few times, or bisect it about a
    thousand times; each row gets its own outcome."""
    prob = _example3(4, 1100.0)
    V = _directions(5, 6, 4)
    V[1] *= 1e-20  # mu stays below r up to t = 1e12
    V[3] *= 1e300  # mu overflows from t = 1 down to about t = 1e-300
    V[4] *= 1e-3  # the top doubles ten times before it overflows
    radii, errors = _assert_radii_match_the_loop(prob, V, 4.0 / 1100.0 / 2.0)
    assert list(errors) == [1]
    assert "could not bracket" in str(errors[1])
    # Brent's absolute xtol of 1e-14 ends row 3 at once, at an end of its
    # bracket [0, ~1e-300]
    assert 0.0 <= radii[3] < 1e-299 and 512.0 < radii[4] < 2048.0


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**16),
    p=st.floats(1.2, 40.0),
    log_r=st.floats(-6.0, 6.0),
    scale=st.sampled_from([1.0, 1e-3, 1e3]),
)
def test_level_radii_match_the_loop_on_random_problems(seed, p, log_r, scale):
    _assert_radii_match_the_loop(_example3(4, p), scale * _directions(seed, 12, 4), 10.0**log_r)


def test_level_radii_of_no_directions():
    radii, errors = _level_radii(_example3(4, 2.0), np.zeros((0, 4, 1)), 1.0)
    assert radii.shape == (0,) and errors == {}


# ---------------------------------------------------------------------------
# Callers: stacked mu calls and the order of failures
# ---------------------------------------------------------------------------


def _count_mu_calls(monkeypatch):
    """The stacks analysis passes to _stack_pass: _mu_rows's mu passes, as
    the terms passes of _stack_values go through functional._action_rows."""
    calls = []
    real = analysis._stack_pass

    def spy(vals, prob, **outputs):
        calls.append(len(vals))
        return real(vals, prob, **outputs)

    monkeypatch.setattr(analysis, "_stack_pass", spy)
    return calls


@pytest.mark.parametrize("p", [2.0, 2.5, 1100.0])
def test_lambda_star_solves_its_radii_in_few_stacked_mu_calls(monkeypatch, p):
    """At most 30 mu calls per radius, however many samples: the level radii
    of a radius's 200 directions are found in lock step (the loop they
    replace made about 10 one-row calls per direction)."""
    prob = _example3(4, p)
    calls = _count_mu_calls(monkeypatch)
    r2 = float(np.sum((2.0 * 0.5) ** prob.exponent.values / prob.exponent.values))
    for r in (r2 / 4.0, r2 / 2.0, 0.75 * r2):
        calls.clear()
        lambda_star_estimate(prob, [r], samples_per_r=200, seed=3)
        assert 0 < len(calls) <= 30
        assert max(calls) <= 2 * 200


def test_b2_b3_raise_the_first_failing_direction_after_the_ones_before(monkeypatch):
    prob = _example3(4, 2.5)
    real = analysis._level_radii

    def failing(prob_, V, r):
        radii, errors = real(prob_, V, r)
        errors[9] = RuntimeError("a later failure")
        errors[3] = EvaluationError("could not bracket the sublevel radius")
        return radii, errors

    monkeypatch.setattr(analysis, "_level_radii", failing)
    stacks = []
    monkeypatch.setattr(analysis, "_action_rows", lambda vals, p_: stacks.append(vals) or _action_rows(vals, p_))
    with pytest.raises(EvaluationError, match="could not bracket"):
        check_b2_b3(prob, 0.3, sample_budget=300, seed=7)
    assert len(stacks) == 3  # the directions before the failing one


def test_lambda_star_raises_a_failure_outside_mu_at_once(monkeypatch):
    """Brent's non-convergence is not an EvaluationError: it is raised
    before any point is evaluated, as brentq's RuntimeError was."""
    real = analysis._level_radii

    def failing(prob_, V, r):
        radii, errors = real(prob_, V, r)
        errors[2] = RuntimeError("Failed to converge after 100 iterations.")
        return radii, errors

    monkeypatch.setattr(analysis, "_level_radii", failing)
    stacks = []
    monkeypatch.setattr(analysis, "_action_rows", lambda vals, p_: stacks.append(vals) or _action_rows(vals, p_))
    with pytest.raises(RuntimeError, match="Failed to converge"):
        lambda_star_estimate(_example3(4, 2.5), [0.5], samples_per_r=10, seed=0)
    assert stacks == []
