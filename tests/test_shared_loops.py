"""The shared central-difference helper and the shared random-start sampler.

Each finite-difference caller (the Newton Jacobian, gradient_fd,
hessian_fd) and both start stages of find_multiple once carried a loop of
their own.  The loops are kept here as the reference, and the callers must
reproduce them bit for bit.
"""

import warnings

import numpy as np
import pytest

from pklap import functional, operators, solvers
from pklap.analysis import rng_for
from pklap.core import ExponentFunction, Nonlinearity, PeriodicSequence, Problem, euclidean_norm
from pklap.functional import (
    NonsmoothExponentError,
    action,
    gradient,
    gradient_fd,
    hessian_fd,
    morse_summary,
)
from pklap.nonlinearities import make_example1, make_example3
from pklap.solvers import (
    SUBSPACE_FULL,
    SUBSPACE_Y,
    SolverConfig,
    _random_starts,
    _System,
    find_multiple,
    mountain_pass,
)


def _loop_reference(fn, x, step):
    """The coordinate loop each caller carried: a preallocated array filled
    entry by entry (scalar fn) or column by column (vector fn)."""
    out = None
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        col = (fn(xp) - fn(xm)) / (2.0 * step)
        if out is None:
            out = np.zeros(np.shape(col) + (x.size,))
        out[..., i] = col
    return out


def _loop_g(system, y):
    """The reduced residual q.T @ residual(q @ y) at one point y, as the
    one-row _System.g formed it: the bitwise reference of _System.rows."""
    gx = system.g_full(y if system.q is None else system.q @ y)
    return gx if system.q is None else system.q.T @ gx


def _inline_starts(cfg, dim, key):
    """The start loop that stages 1 and 2 of find_multiple carried inline."""
    out = []
    for i in range(cfg.starts):
        rng = rng_for(cfg.seed, key, i)
        v = rng.normal(size=dim)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            continue
        radius = 3.0 * rng.random() ** (1.0 / max(dim, 1))
        out.append((i, radius * v / nv))
    return out


def _well_nl2(m):
    """n = 2 family F = |u1|^2 - |u1|^4 / 4 + u1 . u2 / 10 in array form."""

    def F(K, U1, U2):
        q = np.sum(U1 * U1, axis=1)
        return q - 0.25 * q * q + 0.1 * np.sum(U1 * U2, axis=1)

    def dF(K, U1, U2):
        q = np.sum(U1 * U1, axis=1)
        return (2.0 - q)[:, None] * U1 + 0.1 * U2, 0.1 * U1

    return Nonlinearity(m, F, dF, n=2)


def _example1_problem(p=(2.0, 2.5, 3.0, 2.0)):
    nl, _ = make_example1(4)
    return Problem(m=4, n=1, exponent=ExponentFunction(np.array(p)), nonlinearity=nl, lam=1.0)


def _example3_problem(m=4, lam=10.0):
    nl, _ = make_example3(m)
    return Problem(
        m=m, n=1, exponent=ExponentFunction.constant(2.0, m), nonlinearity=nl, lam=lam
    )


def _n2_problem():
    return Problem(
        m=3,
        n=2,
        exponent=ExponentFunction(np.array([2.0, 2.5, 3.0])),
        nonlinearity=_well_nl2(3),
        lam=1.0,
    )


def _point(prob, seed):
    return PeriodicSequence(np.random.default_rng(seed).normal(size=(prob.m, prob.n)))


@pytest.mark.parametrize("make_prob", [_example1_problem, _n2_problem])
@pytest.mark.parametrize("subspace", [SUBSPACE_FULL, SUBSPACE_Y])
def test_system_jacobian_matches_loop(make_prob, subspace):
    prob = make_prob()
    system = _System(prob, subspace=subspace)
    for seed in range(3):
        y = system.to_reduced_rows(_point(prob, seed).flat()[None])[0]
        step = 1e-7 * max(1.0, float(np.linalg.norm(y)))
        jac = system.jacobian(y)
        assert jac.shape == (system.dim, system.dim)
        assert np.array_equal(jac, _loop_reference(lambda z: _loop_g(system, z), y, step))


@pytest.mark.parametrize("make_prob", [_example1_problem, _n2_problem])
def test_gradient_fd_matches_loop(make_prob):
    prob = make_prob()

    def act(x):
        return action(x.reshape(prob.m, prob.n), prob)

    for seed in range(3):
        u = _point(prob, seed)
        step = 1e-7 * max(1.0, euclidean_norm(u))
        expect = _loop_reference(act, u.flat(), step)
        assert np.array_equal(gradient_fd(u, prob).flat(), expect)
        assert np.array_equal(gradient_fd(u, prob, step=1e-4).flat(), _loop_reference(act, u.flat(), 1e-4))


@pytest.mark.parametrize("make_prob", [_example1_problem, _n2_problem])
def test_hessian_fd_matches_loop_over_gradient(make_prob):
    """Columns used to be differences of gradient() on a PeriodicSequence."""
    prob = make_prob()

    def grad(x):
        return gradient(PeriodicSequence.from_flat(x, prob.m, prob.n), prob).values.reshape(-1)

    for seed in range(3):
        u = _point(prob, seed)
        step = 1e-5 * max(1.0, euclidean_norm(u))
        h = _loop_reference(grad, u.flat(), step)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = hessian_fd(u, prob)
        assert np.array_equal(got, 0.5 * (h + h.T))


@pytest.mark.parametrize("dim", [1, 3, 8])
@pytest.mark.parametrize("key", [101, 211, 213])
def test_random_starts_match_inline_draws(dim, key):
    """The rows equal the inline draws bit for bit, with the same indices,
    and are read-only, since later calls return the same arrays."""
    cfg = SolverConfig(starts=12, seed=5)
    index, rows = _random_starts(cfg.seed, cfg.starts, dim, key)
    expect = _inline_starts(cfg, dim, key)
    assert index.tolist() == [i for i, _ in expect]
    assert rows.shape == (len(expect), dim)
    assert all(a.tobytes() == b.tobytes() for a, (_, b) in zip(rows, expect))
    for array in (index, rows):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_find_multiple_start_pools_match_inline_draws(monkeypatch):
    """Stage 1 runs the plain residual from the key-101 draws as one batch;
    deflation round r runs the deflated residual from the key-(211 + r)
    draws as one batch."""
    prob = _example3_problem(m=3, lam=10.0)
    cfg = SolverConfig(starts=4, seed=2)
    dim = _System(prob, subspace=SUBSPACE_Y).dim
    plain, deflated, batches = [], [], []
    real = solvers._newton_rows

    def spy(system, y0, cfg, known=None):
        (plain if known is None else deflated).extend(np.array(y0, copy=True))
        batches.append((known is None, len(y0)))
        return real(system, y0, cfg, known)

    monkeypatch.setattr(solvers, "_newton_rows", spy)
    find_multiple(prob, cfg, subspace=SUBSPACE_Y)
    rounds = len(deflated) // cfg.starts
    assert rounds >= 2
    assert batches == [(True, cfg.starts)] + [(False, cfg.starts)] * rounds
    expect_plain = [y for _, y in _inline_starts(cfg, dim, 101)]
    expect_deflated = [
        y for r in range(rounds) for _, y in _inline_starts(cfg, dim, 211 + r)
    ]
    assert len(plain) == len(expect_plain)
    assert len(deflated) == len(expect_deflated)
    assert all(np.array_equal(a, b) for a, b in zip(plain, expect_plain))
    assert all(np.array_equal(a, b) for a, b in zip(deflated, expect_deflated))


def test_mountain_pass_evaluates_each_path_once_per_sweep(monkeypatch):
    """The two lowest records of the shipped example1 m = 4 solve (seed 0).

    The search evaluates J on 11 paths of 21 points and finds no barrier.
    It evaluates J at both endpoints once and, since the endpoints never
    move, at the 19 interior points of each path once, each set with one
    _action_values call: 2 + 11 * 19 = 211 points (233 when each sweep
    evaluated the endpoints again, 423 when the interior was evaluated
    again after each sweep).  Each of the 10 relaxations before the last
    path evaluates the residual once at each interior point: 19 calls, the
    path maximum's serving both the stop test and its own step (20 when the
    maximum was evaluated twice)."""
    nl, _ = make_example1(4)
    prob = Problem(m=4, n=1, exponent=ExponentFunction.constant(2.0, 4), nonlinearity=nl, lam=1.0)
    a = PeriodicSequence(
        np.array([6.787248865406812, 5.153353455075127, -4.194778655199543, 2.041791330357071])
    )
    b = PeriodicSequence(
        np.array([2.7203398617688643, -4.678518570095734, 2.6806956265306336, -2.0600983250148])
    )
    rows, residuals = [], []

    def counting_actions(points, p):
        rows.append(len(points))
        return functional._action_values(points, p)

    def counting_residuals(u, p):
        residuals.append(1)
        return operators.residual_values(u, p)

    monkeypatch.setattr(solvers, "_action_values", counting_actions)
    monkeypatch.setattr(solvers, "residual_values", counting_residuals)
    assert mountain_pass(prob, a, b, SolverConfig()) is None
    assert rows == [2] + [19] * 11
    assert len(residuals) == 10 * 19


class TestNonsmoothExponent:
    """At p_minus = 1 the Dirichlet term has no derivative where a forward
    difference vanishes, so every derivative entry point refuses."""

    def _prob(self):
        return _example1_problem(p=(1.0, 2.0, 2.0, 2.0))

    def test_gradient_raises(self):
        prob = self._prob()
        with pytest.raises(NonsmoothExponentError, match="p_minus = 1.0"):
            gradient(_point(prob, 0), prob)

    def test_hessian_fd_warns_then_raises(self):
        prob = self._prob()
        with pytest.warns(RuntimeWarning, match="p_minus < 2"):
            with pytest.raises(NonsmoothExponentError, match="p_minus = 1.0"):
                hessian_fd(_point(prob, 0), prob)

    def test_morse_summary_raises(self):
        prob = self._prob()
        with pytest.warns(RuntimeWarning, match="p_minus < 2"):
            with pytest.raises(NonsmoothExponentError):
                morse_summary(_point(prob, 0), prob)

    @pytest.mark.parametrize("subspace", [SUBSPACE_FULL, SUBSPACE_Y])
    def test_find_multiple_raises_before_any_residual(self, monkeypatch, subspace):
        """Every record is classified by its Hessian, so find_multiple
        refuses before stage 0: no residual is evaluated, and a family
        that would keep no solution raises too."""
        calls = []

        def spy(vals, prob, mu=False, potential=False, residual=False):
            if residual:
                calls.append(len(vals))
                raise AssertionError("a residual was evaluated")
            return real(vals, prob, mu=mu, potential=potential, residual=residual)

        real = operators._stack_pass
        monkeypatch.setattr(operators, "_stack_pass", spy)
        with pytest.raises(NonsmoothExponentError, match="find_multiple requires every p"):
            find_multiple(self._prob(), SolverConfig(starts=4), subspace=subspace)
        assert calls == []
