"""Difference operators and the residual of the periodic p(k)-Laplacian system.

The system solved throughout the package is

    (Delta phi_{p(k-1)}(Delta u(k-1)))  +  lam * f(k, u(k+1), u(k), u(k-1)) = 0

for an m-periodic sequence u, where Delta is the forward difference
(Delta u)(k) = u(k+1) - u(k) and phi_p(a) = |a|^(p-2) a.  The residual
below evaluates the left-hand side entrywise; u solves the system exactly
when the residual vanishes.
"""

from __future__ import annotations

import numpy as np

from .core import (
    EvaluationError,
    PeriodicSequence,
    Problem,
    _entry_norms,
    _read_only,
    _shifted,
    _shifted_back,
)


def phi_p(a, p: float):
    """The p-Laplacian nonlinearity |a|^(p-2) a with phi_p(0) = 0.

    a may be a scalar or a vector in R^n; |a| is the Euclidean norm.  The
    continuous extension at a = 0 is used for every p >= 1, including the
    singular range p < 2.
    """
    arr = np.atleast_1d(np.asarray(a, dtype=float))
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        out = np.zeros_like(arr)
    else:
        out = norm ** (p - 2.0) * arr
    if np.isscalar(a) or np.ndim(a) == 0:
        return float(out[0]) if out.size == 1 else out
    return out


def _phi_rows(rows: np.ndarray, p_values: np.ndarray) -> np.ndarray:
    """phi_{p(k)} applied to each row (the last axis) of a (..., m, n) array;
    phi_p(0) = 0 for every p > 1."""
    norms = _entry_norms(rows)
    # an overflowing |a|^(p-2) gives inf or NaN entries, which the residual
    # reports through its flags rather than as a numpy warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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


def _residual_rows(vals: np.ndarray, prob: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of a (B, m, n) stack of sequences, one per row, and per-row flags.

    Returns (out, ok): out[b] is the (m, n) residual of row b, and ok[b] is
    False when row b's input or output has a non-finite entry.  Rows with a
    non-finite input never reach the nonlinearity's callbacks; their out row
    is NaN.  Every operation acts row by row, so out[b] is bitwise the
    residual of row b evaluated alone.  Raises ValueError when the stack is
    not (B, prob.m, prob.n), and EvaluationError when a callback returns a
    malformed value.  Overflow is reported through ok, not as a numpy
    warning.
    """
    vals = _read_only(vals)
    if vals.ndim != 3 or vals.shape[1:] != (prob.m, prob.n):
        raise ValueError(f"sequence stack shape {vals.shape} does not match (B, {prob.m}, {prob.n})")
    ok = np.isfinite(vals).all(axis=(1, 2))
    x = vals if ok.all() else vals[ok]
    if x.shape[0] == 0:
        return np.full(vals.shape, np.nan), ok
    d = _shifted(x) - x  # entry k-1 holds Delta u(k)
    a = _phi_rows(d, prob.exponent.values)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = a - _shifted_back(a)  # phi(Delta u(k)) - phi(Delta u(k-1))
        out = lhs + prob.lam * prob.nonlinearity.coupling(x)
    if x is not vals:
        out, part = np.full(vals.shape, np.nan), out
        out[ok] = part
    return out, ok & np.isfinite(out).all(axis=(1, 2))


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
