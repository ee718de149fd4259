"""The vectorised deflation factor and dedupe's action-gap prefilter.

_deflation_terms once looped over the known solutions at one point; the
loop is kept here as the reference and the vectorised body, which takes a
(B, dim) stack of points, must reproduce it bit for bit on each row.  The prefilter must never reject a pair that the segment test merges,
and must reject a pair with a large action gap without a residual call.
"""

import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pklap import solvers
from pklap.cli import load_config
from pklap.core import ExponentFunction, Problem
from pklap.functional import action
from pklap.nonlinearities import make_example1
from pklap.solvers import (
    SolverConfig,
    _deflated_rows,
    _deflation_terms,
    _newton_iterate,
    _same_solution,
    _System,
    find_multiple,
)

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _loop_deflation_terms(y, known, power, shift):
    """The loop _deflation_terms carried before it was vectorised."""
    factor = 1.0
    log_grad = np.zeros_like(y)
    for yi in known:
        d = y - yi
        nd2 = float(np.dot(d, d))
        if nd2 == 0.0:
            return math.inf, log_grad
        mi = nd2 ** (-power / 2.0) + shift
        dmi = -power * nd2 ** (-power / 2.0 - 1.0) * d
        factor *= mi
        log_grad = log_grad + dmi / mi
    return factor, factor * log_grad


def _assert_same_terms(y, known, power, shift):
    # overflow warnings are expected at tiny distances; the values decide
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        factors, grads = _deflation_terms(y[None], known, power, shift)
        got_f, got_g = factors[0], grads[0]
        try:
            ref_f, ref_g = _loop_deflation_terms(y, known, power, shift)
        except OverflowError:
            ref_f = None
    if ref_f is None:
        # a squared distance so small that Python's ** overflows: the loop
        # raised, the vectorised form gives an infinite factor or gradient,
        # which the deflated residual reports as an EvaluationError
        assert not (math.isfinite(got_f) and np.all(np.isfinite(got_g)))
        return
    assert factors.shape == (1,) and factors.dtype == np.float64
    assert np.array([got_f]).tobytes() == np.array([ref_f]).tobytes()
    if any(float(np.dot(y - yi, y - yi)) == 0.0 for yi in known):
        # at a known solution (a zero squared distance) the loop returned a
        # partial gradient sum that no caller reads; only the factor matters
        assert got_f == math.inf
        return
    assert got_g.shape == ref_g.shape
    assert got_g.tobytes() == ref_g.tobytes()


_POWERS = st.sampled_from([1.0, 2.0, 3.0, 2.5])
_SHIFTS = st.sampled_from([0.0, 1.0])


@settings(max_examples=150)
@given(
    dim=st.integers(1, 8),
    k=st.integers(1, 130),
    power=_POWERS,
    shift=_SHIFTS,
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-4.0, 4.0),
    tie_frac=st.sampled_from([0.0, 0.3, 1.0]),
    zero_frac=st.sampled_from([0.0, 0.5]),
    hit=st.one_of(st.none(), st.integers(0, 129)),
)
def test_deflation_terms_match_loop(dim, k, power, shift, seed, log_scale, tie_frac, zero_frac, hit):
    """Random known sets up to K = 130, with components tied to y's, signed
    zeros in both, and optionally one known point equal to y."""
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    y = scale * rng.normal(size=dim)
    known = scale * rng.normal(size=(k, dim))
    known = np.where(rng.random((k, dim)) < tie_frac, y, known)
    y_zero = rng.random(dim) < zero_frac
    y[y_zero] = np.where(rng.random(dim) < 0.5, 0.0, -0.0)[y_zero]
    k_zero = rng.random((k, dim)) < zero_frac
    known[k_zero] = np.where(rng.random((k, dim)) < 0.5, 0.0, -0.0)[k_zero]
    if hit is not None:
        known[hit % k] = y
    _assert_same_terms(y, known, power, shift)
    # a list of vectors is accepted as well as a (K, dim) array
    _assert_same_terms(y, list(known), power, shift)


_ELEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-160, -1e-160]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300)
@given(data=st.data(), power=_POWERS, shift=_SHIFTS)
def test_deflation_terms_match_loop_on_drawn_values(data, power, shift):
    """Every component drawn by hypothesis, small K and dim."""
    dim = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 6))
    y = data.draw(hnp.arrays(np.float64, dim, elements=_ELEMENTS))
    known = data.draw(hnp.arrays(np.float64, (k, dim), elements=_ELEMENTS))
    _assert_same_terms(y, known, power, shift)


def test_deflation_terms_signed_zero_gradient():
    """A gradient component that sums to -0.0 comes out as +0.0."""
    y = np.array([0.0, 1.0])
    known = np.array([[0.0, 0.0], [0.0, 2.0]])
    factors, grads = _deflation_terms(y[None], known, 2.0, 1.0)
    got_f, got_g = factors[0], grads[0]
    ref_f, ref_g = _loop_deflation_terms(y, known, 2.0, 1.0)
    assert got_f == ref_f
    assert got_g.tobytes() == ref_g.tobytes()
    assert not np.signbit(got_g[0])


@pytest.mark.parametrize("power, finite_factor", [(2.0, False), (1.0, True)])
def test_deflated_residual_rejects_overflow_near_known_point(power, finite_factor, monkeypatch):
    """At a squared distance of about 1e-320 the loop's Python ** raised
    OverflowError.  Now the power overflows to inf (with numpy's warning):
    in the factor at power 2, only in the gradient at power 1.  Either way
    the deflated residual fails that row, as at a known point, without
    evaluating the residual there, and a Newton start there ends at once."""
    y = np.array([1e-160, 0.0, 0.0, 0.0])
    known = np.zeros((1, 4))
    with pytest.raises(OverflowError):
        _loop_deflation_terms(y, known, power, 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        factors, grads = _deflation_terms(y[None], known, power, 0.0)
        assert math.isfinite(factors[0]) == finite_factor
        assert not np.all(np.isfinite(grads[0]))
        monkeypatch.setattr(solvers, "_DEFLATION_POWER", power)
        monkeypatch.setattr(solvers, "_DEFLATION_SHIFT", 0.0)
        system = _System(_example1_problem())
        rows = []
        real_rows = system.rows
        monkeypatch.setattr(system, "rows", lambda pts: rows.append(len(pts)) or real_rows(pts))
        g, ok, _ = _deflated_rows(system, known, np.stack([y, np.ones(4)]))
        assert ok.tolist() == [False, True]
        assert rows == [1]
        assert not np.all(np.isfinite(g[0]))
        _, ng, converged, iters = _newton_iterate(system, y, SolverConfig(), known)
        assert (ng, converged, iters) == (math.inf, False, 0)
    assert any("overflow" in str(w.message) for w in caught)


def _example1_problem():
    nl, _ = make_example1(4)
    return Problem(m=4, n=1, exponent=ExponentFunction.constant(2.0, 4), nonlinearity=nl, lam=1.0)


def test_prefilter_keeps_every_segment_merge_of_example2_solve(monkeypatch):
    """Run the shipped example2 m = 3 solve and, at each stacked dedupe
    call, replay the pairwise loop over the known records with the segment
    test on every pair, as before the prefilter.  The prefilter gives the
    same verdict on each pair the loop visits: in particular it passes
    every pair that the segment test merges.  The stacked call's first
    match is the loop's."""
    loaded = load_config(os.path.join(CONFIGS, "example2_m3.json"))
    real_first = solvers._first_match
    real_flat = solvers._flat_connected
    flat_calls = []
    segment_merges, prefiltered, matches = [], [], []
    replaying = []

    def flat_spy(a, b, prob, bar):
        flat_calls.append(1)
        return real_flat(a, b, prob, bar)

    def first_spy(a, known, prob, cfg, actions=None):
        got = real_first(a, known, prob, cfg, actions)
        if replaying or actions is None:
            return got
        replaying.append(1)
        expect = None
        for i, b in enumerate(known):
            plain = _same_solution(a, b, prob, cfg)
            close = bool(solvers._close_rows(a, b[None], cfg.dedupe_tol)[0][0])
            before = len(flat_calls)
            pair_actions = (actions[0], float(actions[1][i]))
            assert _same_solution(a, b, prob, cfg, pair_actions) == plain, (a, b, pair_actions)
            if plain and not close:
                segment_merges.append(1)
            if not close and len(flat_calls) == before:
                prefiltered.append(1)
            if plain:
                expect = i
                break
        replaying.pop()
        assert got == expect
        matches.append(got)
        return got

    monkeypatch.setattr(solvers, "_flat_connected", flat_spy)
    monkeypatch.setattr(solvers, "_first_match", first_spy)
    sol = find_multiple(loaded.problem, loaded.solver, subspace=loaded.subspace)
    assert len(sol.records) == 17
    # neither side is vacuous: the segment test merged many pairs, and the
    # prefilter decided many others on its own
    assert len(segment_merges) >= 50
    assert len(prefiltered) >= 50
    # and the stacked calls both matched and appended records
    assert None in matches and any(i is not None for i in matches)


def test_large_action_gap_rejects_without_residual_calls(monkeypatch):
    prob = _example1_problem()
    cfg = SolverConfig()
    a = np.array([1.0, -0.5, 0.25, 2.0])
    b = np.array([-1.0, 0.5, 1.5, -2.0])
    j_a = action(a.reshape(4, 1), prob)
    j_b = action(b.reshape(4, 1), prob)
    assert abs(j_a - j_b) > 1.0
    calls = []
    real = solvers.residual_values

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "residual_values", counting)
    assert not _same_solution(a, b, prob, cfg, (j_a, j_b))
    assert calls == []
    # without the action values the segment test evaluates the residual
    assert not _same_solution(a, b, prob, cfg)
    assert len(calls) >= 1


def test_small_action_gap_falls_through_to_segment_test(monkeypatch):
    """Equal actions never decide a merge on their own."""
    prob = _example1_problem()
    cfg = SolverConfig()
    a = np.array([1.0, -0.5, 0.25, 2.0])
    b = np.array([-1.0, 0.5, 1.5, -2.0])
    calls = []
    real = solvers._flat_connected

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(solvers, "_flat_connected", spy)
    assert not _same_solution(a, b, prob, cfg, (3.0, 3.0))
    assert calls == [1]
