"""Difference operators and the residual of the periodic p(k)-Laplacian system.

The system solved throughout the package is

    (Delta phi_{p(k-1)}(Delta u(k-1)))  +  lam * f(k, u(k+1), u(k), u(k-1)) = 0

for an m-periodic sequence u, where Delta is the forward difference
(Delta u)(k) = u(k+1) - u(k) and phi_p(a) = |a|^(p-2) a.  The residual
below evaluates the left-hand side entrywise; u solves the system exactly
when the residual vanishes.

The stacked pass _stack_pass evaluates this residual and the two terms of
the action (see functional) on a (B, m, n) stack; every caller goes through
it, the one-row public functions too, so each formula is written here once.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    EvaluationError,
    PeriodicSequence,
    Problem,
    _entry_norms,
    _read_only,
    _shifted,
    _shifted_back,
    _stack_periods,
)


def phi_p(a, p: float):
    """The p-Laplacian nonlinearity |a|^(p-2) a with phi_p(0) = 0.

    a may be a scalar or a vector in R^n; |a| is the Euclidean norm.  The
    continuous extension at a = 0 is used for every p >= 1, including the
    singular range p < 2.
    """
    arr = np.atleast_1d(np.asarray(a, dtype=float))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = _phi_rows(arr, _entry_norms(arr), p)
    return float(out[0]) if np.ndim(a) == 0 else out


def _phi_rows(rows: np.ndarray, norms: np.ndarray, p_values) -> np.ndarray:
    """phi_p applied to each row (the last axis) of an array, given the rows'
    Euclidean norms (_entry_norms(rows)); phi_p(0) = 0 for every p >= 1.
    p_values is one exponent or one per row (p(k) on an (..., m, n) stack)."""
    # callers evaluate it with divide, over and invalid ignored: 0^(p-2) at
    # p < 2 divides by zero where the where() keeps 0, and an overflowing
    # |a|^(p-2) gives inf or NaN entries, which the residual reports through
    # its flags rather than as a numpy warning
    mags = np.where(norms > 0.0, norms ** (p_values - 2.0), 0.0)
    return mags[..., None] * rows


def sequence_values(
    u: PeriodicSequence | np.ndarray, prob: Problem, what: str = "residual"
) -> np.ndarray:
    """The (m, n) values of u, a PeriodicSequence or a raw array.

    A raw array is returned as a read-only view, so a callback cannot write
    into the caller's iterate.  Raises EvaluationError when a raw array has
    a non-finite entry and ValueError when the shape is not (prob.m, prob.n).
    """
    if isinstance(u, PeriodicSequence):
        vals = u.values
    else:
        vals = _read_only(u)
        if not np.all(np.isfinite(vals)):
            raise EvaluationError(f"{what} evaluated at a non-finite sequence")
    if vals.shape != (prob.m, prob.n):
        raise ValueError(f"sequence shape {vals.shape} does not match ({prob.m}, {prob.n})")
    return vals


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _stack_pass(vals, prob: Problem, mu=False, potential=False, residual=False) -> tuple:
    """mu, the potential and the residual of each sequence of a (B, m, n) stack, as asked.

    Returns (mus, pots, r), shaped (B,), (B,) and (B, m, n), each None
    unless its flag is set.  The shape is checked once; rows with a
    non-finite entry never reach the kernels and are NaN in every output
    (rows are tested one by one only when the stack's sum is not finite).
    The finite rows are shifted, differenced and normed once, for mu and
    phi alike; F (Nonlinearity._F_points) and then the coupling term
    (Nonlinearity._assembled, one call of the partials kernel dF) take the
    same pairs (k, u(k+1), u(k)), with the periods of _stack_periods, and
    each row's m values of F are subtracted in order k = 1..m, as a loop
    over F_at would; a kernel that computes each pair on its own, as the
    built-ins' and from_points' do, gives that loop's bits.  Each output
    row is bitwise that sequence evaluated alone.  Where every p(k) is 2
    (ExponentFunction.all_two) the flux is the differences themselves,
    which are _phi_rows' bits (1.0 a = a where |a| > 0 and 0 a = a where
    a = +-0), unless some nonzero entry's square underflows, where the norm
    can be 0; the norms are then taken only for mu or that case.  A finite
    row whose mu overflows on the way takes it from _scaled_mu.  Overflow
    gives non-finite values, not numpy warnings: the pass runs with
    divide, over and invalid ignored (a decorator, which numpy 2 makes
    reentrant at half a with block's cost).  Raises ValueError for a
    stack that is not (B, prob.m, prob.n) and EvaluationError for a
    malformed kernel value.
    """
    vals = _read_only(vals)
    if vals.ndim != 3 or vals.shape[1:] != (prob.m, prob.n):
        raise ValueError(f"sequence stack shape {vals.shape} does not match (B, {prob.m}, {prob.n})")
    m, p, nl = prob.m, prob.exponent.values, prob.nonlinearity
    out = [None, None, None]
    # vals.sum() without its method wrapper
    finite = None if math.isfinite(np.add.reduce(vals, axis=None)) else np.isfinite(vals).all(axis=(1, 2))
    x = vals if finite is None or finite.all() else _read_only(vals[finite])
    K = _stack_periods(m, len(x))
    flat = (K.size, prob.n)
    up = _shifted(x)  # row k-1 holds u(k+1)
    up.flags.writeable = False
    d = up - x  # row k-1 holds Delta u(k)
    norms = _entry_norms(d) if mu or not prob.exponent.all_two else None
    if mu:
        mus = np.add.reduce(norms**p / p, axis=1)
        big = ~np.isfinite(mus)
        if big.any():
            mus[big] = _scaled_mu(x[big], p)
        out[0] = mus
    if potential:
        F = nl._F_points(K, up.reshape(flat), x.reshape(flat)).reshape(len(x), m)
        out[1] = np.subtract.reduce(F, axis=1, initial=0.0)
    if residual:
        f = nl._assembled(K, up, x)
        if norms is None and np.count_nonzero(d * d) == np.count_nonzero(d):
            a = d  # _phi_rows at p = 2, with no entry whose square underflows
        else:
            a = _phi_rows(d, _entry_norms(d) if norms is None else norms, p)
        # row k-1 holds phi(Delta u(k))
        out[2] = a - _shifted_back(a) + prob.lam * f
    if x is not vals:
        for i, part in enumerate(out):
            if part is not None:
                out[i] = np.full((len(vals),) + part.shape[1:], np.nan)
                out[i][finite] = part
    return tuple(out)


def _scaled_mu(x: np.ndarray, p) -> np.ndarray:
    """mu of each finite, nonconstant row of a (B, m, n) stack by log-sum-exp
    of log(|Delta u(k)|^p / p) = p (log s + log |Delta (u / s)(k)|) - log p,
    s the row's largest |entry|: inf only where mu is not a double."""
    s = np.max(np.abs(x), axis=(1, 2))
    y = x / s[:, None, None]
    logs = p * (np.log(s)[:, None] + np.log(_entry_norms(_shifted(y) - y))) - np.log(p)
    top = np.max(logs, axis=1)
    return np.exp(top) * np.add.reduce(np.exp(logs - top[:, None]), axis=1)


def _residual_rows(vals: np.ndarray, prob: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of a (B, m, n) stack of sequences, one per row, and per-row flags.

    Returns (out, ok): out[b] is the (m, n) residual of row b, bitwise as
    row b alone, and ok[b] is False when row b's input or output has a
    non-finite entry.  The residual pass of _stack_pass, which says how
    non-finite rows, overflow and malformed callback values are handled.
    """
    out = _stack_pass(vals, prob, residual=True)[2]
    return out, np.isfinite(out).all(axis=(1, 2))


def residual_values(u: PeriodicSequence | np.ndarray, prob: Problem) -> np.ndarray:
    """Raw (m, n) residual array at u, a PeriodicSequence or an (m, n) array.

    The one-row case of _residual_rows.  phi_p is exact at every p > 1,
    unsmoothed at 0 for p < 2.  Raises EvaluationError when the input or the
    output has a non-finite entry, and ValueError when the shape is not
    (prob.m, prob.n).
    """
    vals = sequence_values(u, prob)
    out, ok = _residual_rows(vals[None], prob)
    if not ok[0]:
        raise EvaluationError("residual evaluation produced non-finite entries")
    return out[0]
