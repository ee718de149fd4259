"""The xi descent against its one-start-at-a-time reference.

`analysis._xi_descent` runs every start of a stack at once.  Each start must
follow the iterates of the descent run on it alone bit for bit: the same
trial steps, the same Armijo comparisons and the same exits, so its final
value and converged flag are those of its own sequential loop.
`_loop_xi_descent` below is that loop, one halving per line-search trial,
run on a one-start stack.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pklap.analysis import (
    _XI_STEP_CAP,
    _cycle_laplacian_pinv,
    _difference_energy,
    _difference_energy_grad,
    _projected_gradient,
    _sobolev_direction,
    _unit_directions,
    _xi_descent,
    _xi_search,
    rng_for,
)
from pklap.core import _SEARCH_BLOCKS, _row_norms
from test_lockstep import _same_bits, edge_stack


def _loop_xi_descent(u0, p_plus, tol, max_iter):
    """The descent with one Armijo trial per line-search call, on a stack.

    Run one start at a time (a one-row u0), it is the sequential loop each
    row of _xi_descent must reproduce.  A row's search stops unaccepted at
    its first trial that leaves u unmoved, byte for byte, or after the
    ladder's trials.  Returns (values, converged).
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = u0 - u0.mean(axis=1, keepdims=True)
        u = u / _row_norms(u)[:, None, None]
        val = _difference_energy(u, p_plus)
        step = np.full(len(u), 0.1)
        d = np.empty_like(u)
        slope = np.empty(len(u))
        met_tol = np.zeros(len(u), dtype=bool)
        active = np.ones(len(u), dtype=bool)
        for _ in range(max_iter):
            if not active.any():
                break
            g = _projected_gradient(u[active], p_plus)
            met_tol[active] = _row_norms(g) <= tol
            d[active] = _sobolev_direction(u[active], g)
            slope[active] = np.sum(g * d[active], axis=(1, 2))
            active &= ~met_tol
            searching = active.copy()
            tries = np.zeros(len(u), dtype=int)
            while searching.any():
                ids = np.flatnonzero(searching)
                cand = u[ids] - step[ids, None, None] * d[ids]
                unmoved = np.array([c.tobytes() == x.tobytes() for c, x in zip(cand, u[ids])], dtype=bool)
                active[ids[unmoved]] = searching[ids[unmoved]] = False
                ids, cand = ids[~unmoved], cand[~unmoved]
                if ids.size == 0:
                    break
                cand = cand - cand.mean(axis=1, keepdims=True)
                nc = _row_norms(cand)
                cand = cand / nc[:, None, None]
                cand_val = _difference_energy(cand, p_plus)
                accept = (nc > 1e-12) & (cand_val < val[ids] - 1e-4 * step[ids] * slope[ids])
                took = ids[accept]
                u[took] = cand[accept]
                val[took] = cand_val[accept]
                step[took] = np.minimum(step[took] * 1.3, _XI_STEP_CAP)
                missed = ids[~accept]
                step[missed] *= 0.5
                tries[missed] += 1
                spent = missed[tries[missed] == sum(_SEARCH_BLOCKS)]
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
        (12, 2, 6.0, 3, 5000),
        (32, 1, 3.0, 2, 5000),
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
    """At (m, n, p) = (8, 1, 1.5) no start meets the tolerance: every row
    leaves by the cap or an unaccepted search with the loop's value, and none
    converges.  (At m = 6 the preconditioned descent converges in 300
    rounds, so m = 6 no longer reaches this exit.)"""
    vals, converged = _compare(_starts(8, 1, 3), 1.5, max_iter=300)
    assert not converged.any()
    assert np.all(np.isfinite(vals)) and math.isfinite(float(vals.min()))


# (m, n, p_plus): xi's value as float.hex and its converged flag, as
# _xi_search returns them with its defaults (32 starts, seed 0)
PINNED_XI = {
    (8, 1, 3.0): ("0x1.677b718562155p-3", True),
    (12, 1, 3.0): ("0x1.716d84680ffa6p-5", True),
    (32, 1, 3.0): ("0x1.8cbc95c104700p-10", True),
    (8, 1, 1.5): ("0x1.04ead8e47d3dap+0", False),
    (5, 1, 2.5): ("0x1.110d9d08d83b4p+0", True),
    (8, 1, 60.0): ("0x1.d2d6c85382d6bp-53", True),
}


@pytest.mark.parametrize("m,n,p", list(PINNED_XI))
def test_xi_search_bits_are_pinned(m, n, p):
    """The descent's value bit for bit, and whether a start converged: a
    change to its trials, their blocks or its exits that moves an iterate
    shows here.  (8, 1, 1.5) converges on no start and warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        xi, converged = _xi_search(m, n, p)
    assert (xi.hex(), converged) == PINNED_XI[m, n, p]


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


@pytest.mark.parametrize("m", [2, 3, 8, 12, 33])
def test_cycle_laplacian_pinv_is_the_pseudo_inverse(m):
    """The closed form is numpy's pinv of 2I - S - S^T, read-only and made
    once per m."""
    eye = np.eye(m)
    laplacian = 2.0 * eye - np.roll(eye, 1, axis=0) - np.roll(eye, -1, axis=0)
    pinv = _cycle_laplacian_pinv(m)
    assert np.allclose(pinv, np.linalg.pinv(laplacian), rtol=0.0, atol=1e-13 * m)
    assert not pinv.flags.writeable
    assert _cycle_laplacian_pinv(m) is pinv


@pytest.mark.parametrize("m,n", [(8, 1), (12, 1), (5, 3), (32, 2)])
def test_pinv_product_on_a_stack_is_the_product_on_each_row(m, n):
    """Row i of pinv @ g is bitwise pinv @ g[i] alone, also for a strided
    view, so a start's direction does not depend on the other starts."""
    g = np.random.default_rng(m * n).normal(size=(40, m, n))
    pinv = _cycle_laplacian_pinv(m)
    for stack in (g, g[::3], g[5:6]):
        product = pinv @ stack
        for i in range(len(stack)):
            assert _same_bits(product[i], pinv @ stack[i].copy())


@pytest.mark.parametrize("m,n,p", [(8, 1, 3.0), (12, 2, 6.0), (5, 3, 1.5)])
def test_sobolev_direction_is_a_tangent_descent_direction(m, n, p):
    """d has zero mean over k, is orthogonal to u, and <g, d> > 0."""
    u = _starts(m, n, 8)
    g = _projected_gradient(u, p)
    d = _sobolev_direction(u, g)
    scale = _row_norms(d)
    assert np.all(np.abs(d.sum(axis=1)) <= 1e-12 * scale[:, None])
    assert np.all(np.abs(np.sum(d * u, axis=(1, 2))) <= 1e-12 * scale)
    assert np.all(np.sum(g * d, axis=(1, 2)) > 0.0)
