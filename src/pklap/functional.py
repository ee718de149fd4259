"""The action functional whose critical points solve the difference system.

For an m-periodic sequence u the action splits as

    action(u) = mu(u) + lam * potential(u)

where mu is the anisotropic Dirichlet part sum_k (1/p(k)) |Delta u(k)|^p(k)
and potential(u) = -sum_k F(k, u(k+1), u(k)).  The Euclidean gradient of the
action is the negated residual of the difference system, so solving the
system and finding critical points are the same task.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .core import EvaluationError, PeriodicSequence, Problem, euclidean_norm
from .operators import _residual_rows, residual_values, sequence_values

HESSIAN_STEP_SCALE = 1e-5
MORSE_ZERO_TOL_SCALE = 1e-7

CLASS_MINIMUM = "minimum"
CLASS_MAXIMUM = "maximum"
CLASS_SADDLE = "saddle"
CLASS_DEGENERATE = "degenerate"


class NonsmoothExponentError(ValueError):
    """Raised when a derivative is requested but some p(k) <= 1 makes it undefined."""


def mu(u: PeriodicSequence | np.ndarray, prob: Problem) -> float:
    """Anisotropic Dirichlet energy sum_k (1/p(k)) |Delta u(k)|^p(k).

    u is a PeriodicSequence or a raw (m, n) array, validated as in
    residual_values.
    """
    vals = sequence_values(u, prob, "mu")
    d = np.concatenate((vals[1:], vals[:1])) - vals
    norms = np.linalg.norm(d, axis=1)
    p = prob.exponent.values
    total = float(np.sum(norms**p / p))
    if not math.isfinite(total):
        raise EvaluationError("mu evaluated to a non-finite value")
    return total


def potential(u: PeriodicSequence | np.ndarray, prob: Problem) -> float:
    """Potential part -sum_k F(k, u(k+1), u(k)).

    u is a PeriodicSequence or a raw (m, n) array, validated as in
    residual_values.  The m values of F come from one Nonlinearity.F_many
    call and are subtracted in order k = 1..m, so the sum is bitwise the
    same as a loop over F_at.
    """
    vals = sequence_values(u, prob, "potential")
    up = np.concatenate((vals[1:], vals[:1]))
    values = prob.nonlinearity.F_many(np.arange(1, prob.m + 1), up, vals)
    total = 0.0
    for v in values.tolist():
        total -= v
    if not math.isfinite(total):
        raise EvaluationError("potential evaluated to a non-finite value")
    return total


def action(u: PeriodicSequence | np.ndarray, prob: Problem) -> float:
    """Value of the action functional mu(u) + lam * potential(u)."""
    return mu(u, prob) + prob.lam * potential(u, prob)


def _require_smooth(prob: Problem, what: str) -> None:
    if prob.exponent.p_minus <= 1.0:
        raise NonsmoothExponentError(
            f"{what} requires every p(k) > 1; got p_minus = {prob.exponent.p_minus}"
        )


def _central_difference(fn, x: np.ndarray, step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central differences of a rows function at B base points, in one call.

    x is (B, dim) and step (B,), one step per base point.  fn maps an
    (N, dim) array of points to N values (a scalar function) or N rows (a
    vector function); it is called once, on the 2 * dim stencil points of
    every base point.  Returns (d, ok): entry (or column) i of d[b] is
    (fn(x_b + step_b e_i) - fn(x_b - step_b e_i)) / (2 step_b), so d is
    (B, dim) or (B, out, dim), and ok[b] is False when a stencil value of
    base point b is not finite.
    """
    B, dim = x.shape
    idx = np.arange(dim)
    points = np.repeat(x[:, None, :], 2 * dim, axis=1)  # (B, 2 dim, dim)
    points[:, idx, idx] += step[:, None]
    points[:, dim + idx, idx] -= step[:, None]
    vals = np.asarray(fn(points.reshape(-1, dim)))
    vals = vals.reshape((B, 2, dim) + vals.shape[1:])
    ok = np.all(np.isfinite(vals.reshape(B, -1)), axis=1)
    scale = (2.0 * step).reshape((B, 1) + (1,) * (vals.ndim - 3))
    d = (vals[:, 0] - vals[:, 1]) / scale
    return np.moveaxis(d, 1, -1), ok


def gradient(u: PeriodicSequence, prob: Problem) -> PeriodicSequence:
    """Euclidean gradient of the action; equals the negated residual.

    Defined for exponents p(k) > 1.  At p(k) = 1 the Dirichlet term is not
    differentiable where the forward difference vanishes.
    """
    _require_smooth(prob, "gradient")
    return PeriodicSequence(-residual_values(u, prob))


def gradient_fd(u: PeriodicSequence, prob: Problem, step: float | None = None) -> PeriodicSequence:
    """Central finite-difference gradient of the action (verification oracle)."""
    if step is None:
        # smaller than the usual cbrt(eps) scale: oscillatory potentials
        # (sin of a quartic) have third derivatives far above |J| and the
        # truncation term dominates long before roundoff matters
        step = 1e-7 * max(1.0, euclidean_norm(u))

    def actions(points: np.ndarray) -> np.ndarray:
        return np.array([action(x.reshape(prob.m, prob.n), prob) for x in points])

    g, _ = _central_difference(actions, u.flat()[None], np.array([step]))
    g = g[0]
    return PeriodicSequence.from_flat(g, prob.m, prob.n)


def hessian_fd(u: PeriodicSequence, prob: Problem, step: float | None = None) -> np.ndarray:
    """Symmetrised central finite-difference Hessian of the action.

    Columns are finite differences of the analytic gradient; the result is
    symmetrised and a warning is emitted if the raw asymmetry is large
    relative to the matrix norm, or if some p(k) < 2 (where second
    derivatives may not exist at non-smooth points).  Raises
    NonsmoothExponentError, as gradient does, when some p(k) <= 1.
    """
    if prob.exponent.p_minus < 2.0:
        warnings.warn(
            "hessian_fd with p_minus < 2: second derivatives can be singular "
            "where forward differences vanish",
            RuntimeWarning,
            stacklevel=2,
        )
    _require_smooth(prob, "hessian_fd")
    if step is None:
        step = HESSIAN_STEP_SCALE * max(1.0, euclidean_norm(u))

    def gradients(points: np.ndarray) -> np.ndarray:
        out, ok = _residual_rows(points.reshape(-1, prob.m, prob.n), prob)
        if not np.all(ok):
            raise EvaluationError("residual evaluation produced non-finite entries")
        return -out.reshape(points.shape)

    h, _ = _central_difference(gradients, u.flat()[None], np.array([step]))
    h = h[0]
    asym = float(np.max(np.abs(h - h.T)))
    scale = max(1.0, float(np.max(np.abs(h))))
    if asym > 1e-4 * scale:
        warnings.warn(
            f"finite-difference Hessian asymmetry {asym:.3e} exceeds 1e-4 of its scale",
            RuntimeWarning,
            stacklevel=2,
        )
    return 0.5 * (h + h.T)


@dataclasses.dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalue signature of the Hessian at a candidate critical point."""

    eigenvalues: np.ndarray
    negative_count: int
    zero_count: int
    positive_count: int
    zero_tol: float

    @property
    def morse_index(self) -> int:
        return self.negative_count

    @property
    def classification(self) -> str:
        if self.zero_count > 0:
            return CLASS_DEGENERATE
        if self.negative_count == 0:
            return CLASS_MINIMUM
        if self.positive_count == 0:
            return CLASS_MAXIMUM
        return CLASS_SADDLE


def morse_summary(
    u: PeriodicSequence, prob: Problem, zero_tol: float | None = None
) -> SpectralSummary:
    """Classify a candidate critical point by the Hessian eigenvalue signs.

    Eigenvalues within zero_tol of zero count as zero; the default tolerance
    scales with the spectral radius.
    """
    h = hessian_fd(u, prob)
    eig = np.linalg.eigvalsh(h)
    if zero_tol is None:
        radius = float(np.max(np.abs(eig))) if eig.size else 0.0
        zero_tol = MORSE_ZERO_TOL_SCALE * max(1.0, radius)
    neg = int(np.sum(eig < -zero_tol))
    zero = int(np.sum(np.abs(eig) <= zero_tol))
    pos = int(np.sum(eig > zero_tol))
    return SpectralSummary(
        eigenvalues=eig,
        negative_count=neg,
        zero_count=zero,
        positive_count=pos,
        zero_tol=float(zero_tol),
    )
