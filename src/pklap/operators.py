"""Difference operators and the residual of the periodic p(k)-Laplacian system.

The system solved throughout the package is

    (Delta phi_{p(k-1)}(Delta u(k-1)))  +  lam * f(k, u(k+1), u(k), u(k-1)) = 0

for an m-periodic sequence u, where Delta is the forward difference
(Delta u)(k) = u(k+1) - u(k) and phi_p(a) = |a|^(p-2) a.  The residual
below evaluates the left-hand side entrywise; u solves the system exactly
when the residual vanishes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import EvaluationError, PeriodicSequence, Problem, _read_only


def forward_difference(u: PeriodicSequence) -> PeriodicSequence:
    """Periodic forward difference, w(k) = u(k+1) - u(k)."""
    vals = u.values
    return PeriodicSequence(np.roll(vals, -1, axis=0) - vals)


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


def _phi_rows(rows: np.ndarray, p_values: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """phi_{p(k)} applied to each row of an (m, n) array.

    With eps > 0 the regularised magnitude (|a|^2 + eps^2)^((p-2)/2) is used,
    which smooths the singularity of exponents p < 2 at a = 0.
    """
    norms = np.linalg.norm(rows, axis=1)
    if eps > 0.0:
        mags = (norms**2 + eps**2) ** ((p_values - 2.0) / 2.0)
    else:
        with np.errstate(divide="ignore"):
            mags = np.where(norms > 0.0, norms ** (p_values - 2.0), 0.0)
    return mags[:, None] * rows


@dataclasses.dataclass(frozen=True)
class Residual:
    """Entrywise residual of the difference system at a given sequence."""

    values: PeriodicSequence
    norm: float


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


def residual_values(
    u: PeriodicSequence | np.ndarray, prob: Problem, eps: float = 0.0
) -> np.ndarray:
    """Raw (m, n) residual array at u, a PeriodicSequence or an (m, n) array.

    Raises EvaluationError when the input or the output has a non-finite
    entry, and ValueError when the shape is not (prob.m, prob.n).
    """
    vals = sequence_values(u, prob)
    d = np.concatenate((vals[1:], vals[:1])) - vals  # row k-1 holds Delta u(k)
    a = _phi_rows(d, prob.exponent.values, eps=eps)
    lhs = a - np.concatenate((a[-1:], a[:-1]))  # phi(Delta u(k)) - phi(Delta u(k-1))
    out = lhs + prob.lam * prob.nonlinearity.coupling(vals)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("residual evaluation produced non-finite entries")
    return out


def residual(u: PeriodicSequence, prob: Problem, eps: float = 0.0) -> Residual:
    """Residual of the full difference system at u.

    Entry k is  phi_{p(k)}(Delta u(k)) - phi_{p(k-1)}(Delta u(k-1))
    + lam * f(k, u(k+1), u(k), u(k-1)).
    """
    out = residual_values(u, prob, eps=eps)
    return Residual(values=PeriodicSequence(out), norm=float(np.linalg.norm(out)))
