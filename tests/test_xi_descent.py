"""The xi descent against its one-start-at-a-time reference.

`analysis._xi_descent` runs every start of a stack at once.  Each start must
follow the iterates of the descent run on it alone bit for bit: the same
trial steps, the same Armijo comparisons and the same exits, so its final
value and converged flag are those of its own sequential loop.
`_loop_xi_descent` below is that loop, one halving per line-search trial,
run on a one-start stack.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pklap.analysis import (
    _difference_energy,
    _difference_energy_grad,
    _projected_gradient,
    _unit_directions,
    _xi_descent,
    rng_for,
)
from pklap.core import _row_norms
from test_lockstep import _same_bits, edge_stack


def _loop_xi_descent(u0, p_plus, tol, max_iter):
    """The descent with one Armijo trial per line-search call, on a stack.

    Run one start at a time (a one-row u0), it is the sequential loop each
    row of _xi_descent must reproduce.  Returns (values, converged).
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = u0 - u0.mean(axis=1, keepdims=True)
        u = u / _row_norms(u)[:, None, None]
        val = _difference_energy(u, p_plus)
        step = np.full(len(u), 0.1)
        g = np.empty_like(u)
        gnorm_sq = np.empty(len(u))
        met_tol = np.zeros(len(u), dtype=bool)
        active = np.ones(len(u), dtype=bool)
        for _ in range(max_iter):
            if not active.any():
                break
            g[active] = _projected_gradient(u[active], p_plus)
            gnorm = _row_norms(g[active])
            met_tol[active] = gnorm <= tol
            gnorm_sq[active] = [x**2 for x in gnorm.tolist()]
            active &= ~met_tol
            searching = active.copy()
            while searching.any():
                ids = np.flatnonzero(searching)
                cand = u[ids] - step[ids, None, None] * g[ids]
                cand = cand - cand.mean(axis=1, keepdims=True)
                nc = _row_norms(cand)
                cand = cand / nc[:, None, None]
                cand_val = _difference_energy(cand, p_plus)
                accept = (nc > 1e-12) & (
                    cand_val < val[ids] - 1e-4 * step[ids] * gnorm_sq[ids]
                )
                took = ids[accept]
                u[took] = cand[accept]
                val[took] = cand_val[accept]
                step[took] = np.minimum(step[took] * 1.3, 1.0)
                missed = ids[~accept]
                step[missed] *= 0.5
                spent = missed[step[missed] <= 1e-18]
                active[spent] = False
                searching[took] = False
                searching[spent] = False
        converged = met_tol.copy()
        rest = ~met_tol
        gnorm = _row_norms(_projected_gradient(u[rest], p_plus))
        converged[rest] = gnorm <= np.maximum(tol, 1e-7 * np.maximum(1.0, np.abs(val[rest])))
    return val, converged


def _starts(m, n, count, seed=0):
    """The unit zero-mean starts _xi_search draws, first count of them."""
    rng = rng_for(seed, m, n)
    return _unit_directions(rng, count, (m, n), zero_mean=True)


def _compare(u0, p_plus, tol=1e-10, max_iter=5000):
    """Assert every row of _xi_descent(u0) is bitwise its loop run alone;
    return the stacked (values, converged)."""
    vals, converged = _xi_descent(u0, p_plus, tol, max_iter)
    for i in range(len(u0)):
        ref_val, ref_conv = _loop_xi_descent(u0[i : i + 1].copy(), p_plus, tol, max_iter)
        assert _same_bits(vals[i : i + 1], ref_val)
        assert converged[i] == ref_conv[0]
    return vals, converged


# the loop's time grows with the rounds each start runs, so the capped
# (p < 2) and slow cases take fewer starts or a lower cap
@pytest.mark.parametrize(
    "m,n,p,starts,max_iter",
    [
        (8, 1, 3.0, 32, 5000),
        (12, 1, 3.0, 4, 5000),
        (8, 2, 3.0, 4, 5000),
        (6, 1, 4.5, 6, 5000),
        (5, 1, 1.5, 3, 400),
        (16, 1, 3.0, 3, 5000),
        (4, 1, 1100.0, 8, 5000),
        (5, 2, 1.5, 3, 300),
    ],
)
def test_descent_rows_match_the_loop(m, n, p, starts, max_iter):
    _compare(_starts(m, n, starts), p, max_iter=max_iter)


@pytest.mark.parametrize("m,n,p", [(8, 1, 3.0), (8, 2, 3.0), (5, 1, 1.5)])
def test_one_iteration_matches_the_loop(m, n, p):
    """max_iter = 1: one step, then the closing gradient test."""
    _compare(_starts(m, n, 6), p, max_iter=1)


def test_tolerance_exit_matches_the_loop():
    """A loose tolerance lets starts leave by the gradient test at
    different rounds, while the others go on."""
    _, converged = _compare(_starts(8, 1, 6), 3.0, tol=1e-3)
    assert converged.all()


@settings(max_examples=20)
@given(
    st.integers(3, 8),
    st.integers(1, 2),
    st.sampled_from([1.5, 3.0, 4.5]),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_descent_rows_match_on_drawn_starts(m, n, p, count, seed):
    u0 = np.random.default_rng(seed).normal(size=(count, m, n))
    u0 = u0[_row_norms(u0 - u0.mean(axis=1, keepdims=True)) > 1e-6]
    if len(u0):
        _compare(u0, p, max_iter=200)


def test_unconverged_rows_keep_the_loops_value_at_the_cap():
    """p < 2 has no start meeting the tolerance: every row leaves by the
    cap or the step floor with the loop's value, and none converges."""
    vals, converged = _compare(_starts(6, 1, 3), 1.5, max_iter=300)
    assert not converged.any()
    assert np.all(np.isfinite(vals)) and math.isfinite(float(vals.min()))


def _roll_energy_and_grad(u, p):
    """The difference energy and its gradient written with np.roll and
    np.linalg.norm, the forms the kernels replaced."""
    d = np.roll(u, -1, axis=1) - u
    norms = np.linalg.norm(d, axis=2)
    mags = np.where(norms > 0.0, norms ** (p - 2.0), 0.0)
    a = mags[:, :, None] * d
    return np.sum(norms**p, axis=1), p * (np.roll(a, 1, axis=1) - a)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [1.5, 3.0, 1100.0])
def test_energies_are_their_roll_and_linalg_norm_forms(n, p):
    """Bitwise, also at zero, subnormal, overflowing and NaN entries."""
    for u in (edge_stack(n), _starts(6, n, 4)):
        with np.errstate(all="ignore"):
            energy, grad = _roll_energy_and_grad(u, p)
            assert _same_bits(_difference_energy(u, p), energy)
            assert _same_bits(_difference_energy_grad(u, p), grad)
