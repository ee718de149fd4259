"""The action functional whose critical points solve the difference system.

For an m-periodic sequence u the action splits as

    action(u) = mu(u) + lam * potential(u)

where mu is the anisotropic Dirichlet part sum_k (1/p(k)) |Delta u(k)|^p(k)
and potential(u) = -sum_k F(k, u(k+1), u(k)).  The Euclidean gradient of the
action is the negated residual of the difference system, so solving the
system and finding critical points are the same task.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import EvaluationError, PeriodicSequence, Problem, _Record, _row_norms, euclidean_norm
from .operators import _residual_rows, _stack_pass, residual_values, sequence_values

HESSIAN_STEP_SCALE = 1e-5
MORSE_ZERO_TOL_SCALE = 1e-7

CLASS_MINIMUM = "minimum"
CLASS_MAXIMUM = "maximum"
CLASS_SADDLE = "saddle"
CLASS_DEGENERATE = "degenerate"


class NonsmoothExponentError(ValueError):
    """Raised when a derivative is requested but some p(k) <= 1 makes it undefined."""


# The two terms of the action, like the residual, are evaluated on a
# (B, m, n) stack by one pass, operators._stack_pass, which gives each row
# the bits of that sequence alone; the functions below are its call sites.


def _action_rows(vals, prob: Problem) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """mu and potential of each sequence of a (B, m, n) stack, with per-row flags.

    Returns (mus, pots, mu_ok, pot_ok); mu_ok[b] (pot_ok[b]) is False when
    row b's input or its mu (potential) is not finite.  The terms pass of
    _stack_pass, which says how non-finite rows, overflow, shapes and
    malformed values of F are handled.
    """
    mus, pots, _ = _stack_pass(vals, prob, mu=True, potential=True)
    return mus, pots, np.isfinite(mus), np.isfinite(pots)


def mu(u: PeriodicSequence | np.ndarray, prob: Problem) -> float:
    """Anisotropic Dirichlet energy sum_k (1/p(k)) |Delta u(k)|^p(k).

    u is a PeriodicSequence or a raw (m, n) array, validated as in
    residual_values.  The one-row case of _stack_pass's mu, the formula
    _action_rows applies to every row of a stack; F is not evaluated.
    """
    x = sequence_values(u, prob, "mu")[None]
    total = float(_stack_pass(x, prob, mu=True)[0][0])
    if not math.isfinite(total):
        raise EvaluationError("mu evaluated to a non-finite value")
    return total


def potential(u: PeriodicSequence | np.ndarray, prob: Problem) -> float:
    """Potential part -sum_k F(k, u(k+1), u(k)).

    u is a PeriodicSequence or a raw (m, n) array, validated as in
    residual_values.  The one-row case of _stack_pass's potential, the
    formula _action_rows applies to every row of a stack: the m values of
    F come from one kernel call and are subtracted in order k = 1..m, as
    a loop over F_at would (bitwise so for a kernel that computes each pair
    on its own).
    """
    x = sequence_values(u, prob, "potential")[None]
    total = float(_stack_pass(x, prob, potential=True)[1][0])
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
    base point b is not finite.  The stencil's shifted entries are a
    strided view of its flat rows, so no index array is built.
    """
    B, dim = x.shape
    points = x[:, None, :].repeat(2 * dim, axis=1)  # (B, 2 dim, dim)
    diagonal = points.reshape(B, 2, dim * dim)[:, :, :: dim + 1]  # entries (i, i), (dim + i, i)
    diagonal[:, 0] += step[:, None]
    diagonal[:, 1] -= step[:, None]
    vals = np.asarray(fn(points.reshape(-1, dim)))
    vals = vals.reshape((B, 2, dim) + vals.shape[1:])
    ok = np.isfinite(vals).reshape(B, -1).all(axis=1)
    scale = (2.0 * step).reshape((B, 1) + (1,) * (vals.ndim - 3))
    d = (vals[:, 0] - vals[:, 1]) / scale
    return d.swapaxes(1, -1), ok


def gradient(u: PeriodicSequence, prob: Problem) -> PeriodicSequence:
    """Euclidean gradient of the action; equals the negated residual.

    Defined for exponents p(k) > 1.  At p(k) = 1 the Dirichlet term is not
    differentiable where the forward difference vanishes.
    """
    _require_smooth(prob, "gradient")
    return PeriodicSequence(-residual_values(u, prob))


def _action_values(points: np.ndarray, prob: Problem) -> np.ndarray:
    """The action at N flat points, one _action_rows call.

    Raises the EvaluationError that action raises at the first point,
    in row order, whose mu or potential is not finite.
    """
    stack = points.reshape(-1, prob.m, prob.n)
    mus, pots, mu_ok, pot_ok = _action_rows(stack, prob)
    failed = ~(mu_ok & pot_ok)
    if failed.any():
        action(stack[np.argmax(failed)], prob)
    with np.errstate(over="ignore"):
        return mus + prob.lam * pots


def _gradient_fd_rows(x: np.ndarray, prob: Problem, step: float | None = None) -> np.ndarray:
    """Central finite-difference gradients of the action at B flat points.

    x is (B, dim); the stencils of all B points are evaluated with one
    _action_values call.  Each point takes its own default step, so row b
    is bitwise gradient_fd at that point.  Raises the EvaluationError of
    the first stencil point, in row order, where the action fails.
    """
    if step is None:
        # smaller than the usual cbrt(eps) scale: oscillatory potentials
        # (sin of a quartic) have third derivatives far above |J| and the
        # truncation term dominates long before roundoff matters
        steps = 1e-7 * np.maximum(1.0, _row_norms(x))
    else:
        steps = np.full(len(x), float(step))
    g, _ = _central_difference(lambda points: _action_values(points, prob), x, steps)
    return g


def gradient_fd(u: PeriodicSequence, prob: Problem, step: float | None = None) -> PeriodicSequence:
    """Central finite-difference gradient of the action (verification oracle).

    The one-row case of _gradient_fd_rows: all 2 * dim stencil points are
    evaluated in one call.
    """
    g = _gradient_fd_rows(u.flat()[None], prob, step)[0]
    return PeriodicSequence.from_flat(g, prob.m, prob.n)


def _hessian_rows(x: np.ndarray, prob: Problem, steps: np.ndarray) -> np.ndarray:
    """Symmetrised central-difference Hessians of the action at B flat points.

    x is (B, dim) and steps (B,), one step per point.  The columns are
    differences of the analytic gradient (the negated residual), and the
    stencil residuals of all B points go through one _residual_rows call,
    so H[b] is bitwise the Hessian of x_b alone.  Warns, once per point,
    when some p(k) < 2 (where second derivatives may not exist at non-smooth
    points) and, in row order, for each point whose raw asymmetry is large
    relative to its matrix norm.  Raises NonsmoothExponentError, as
    gradient does, when some p(k) <= 1, and EvaluationError when a stencil
    residual is not finite.
    """
    if prob.exponent.p_minus < 2.0:
        for _ in range(len(x)):
            warnings.warn(
                "hessian_fd with p_minus < 2: second derivatives can be singular "
                "where forward differences vanish",
                RuntimeWarning,
                stacklevel=3,
            )
    _require_smooth(prob, "hessian_fd")

    def gradients(points: np.ndarray) -> np.ndarray:
        out, ok = _residual_rows(points.reshape(-1, prob.m, prob.n), prob)
        if not np.all(ok):
            raise EvaluationError("residual evaluation produced non-finite entries")
        return -out.reshape(points.shape)

    h, _ = _central_difference(gradients, x, steps)
    ht = np.swapaxes(h, 1, 2)
    asym = np.max(np.abs(h - ht), axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(h), axis=(1, 2)))
    for value in asym[asym > 1e-4 * scale].tolist():
        warnings.warn(
            f"finite-difference Hessian asymmetry {value:.3e} exceeds 1e-4 of its scale",
            RuntimeWarning,
            stacklevel=3,
        )
    return 0.5 * (h + ht)


def hessian_fd(u: PeriodicSequence, prob: Problem) -> np.ndarray:
    """Symmetrised central finite-difference Hessian of the action.

    The one-row case of _hessian_rows, which says when it warns and raises,
    at the step HESSIAN_STEP_SCALE * max(1, |u|).
    """
    step = HESSIAN_STEP_SCALE * max(1.0, euclidean_norm(u))
    return _hessian_rows(u.flat()[None], prob, np.array([step]))[0]


class SpectralSummary(_Record):
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


def _morse_summaries(x: np.ndarray, prob: Problem) -> list[SpectralSummary]:
    """Spectral summaries at B flat points (B, dim), in stacks.

    Each point's Hessian takes the step of hessian_fd; all come from one
    _hessian_rows call and one stacked eigvalsh, which gives each matrix
    the bits of its own call, so summary b is that of x_b alone.
    Eigenvalues within MORSE_ZERO_TOL_SCALE * max(1, spectral radius) of
    zero count as zero.
    """
    steps = HESSIAN_STEP_SCALE * np.maximum(1.0, _row_norms(x))
    eig = np.linalg.eigvalsh(_hessian_rows(x, prob, steps))
    tol = MORSE_ZERO_TOL_SCALE * np.maximum(1.0, np.max(np.abs(eig), axis=1))
    t = tol[:, None]
    counts = [np.sum(c, axis=1).tolist() for c in (eig < -t, np.abs(eig) <= t, eig > t)]
    return [
        SpectralSummary(
            eigenvalues=eig[b], negative_count=neg, zero_count=zero, positive_count=pos, zero_tol=z
        )
        for b, (neg, zero, pos, z) in enumerate(zip(*counts, tol.tolist()))
    ]


def morse_summary(u: PeriodicSequence, prob: Problem) -> SpectralSummary:
    """Classify a candidate critical point by the Hessian eigenvalue signs.

    The one-row case of _morse_summaries.
    """
    return _morse_summaries(u.flat()[None], prob)[0]
