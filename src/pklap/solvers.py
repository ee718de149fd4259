"""Solvers that locate and classify multiple critical points of the action.

The toolbox is deliberately plain: find_multiple runs damped Newton on the
residual with a finite-difference Jacobian and deflation to repel found
solutions, all starts of a stage in lock step so that their residuals are
evaluated together, one call per stacked batch; minimize (on a subspace, for the coercive routes) and
mountain_pass (a relaxed path between two critical points) are only called
directly.  All randomness is drawn from counter-keyed generators, so a
fixed seed reproduces the same solution set bit for bit.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import warnings
from typing import Optional, Sequence

import numpy as np

from .analysis import rng_for
from .core import (
    EvaluationError,
    PeriodicSequence,
    Problem,
    SolutionRecord,
    _block_search,
    _row_norms,
    euclidean_norm,
    in_Y,
)
from .functional import _action_values, _central_difference, _morse_summaries, action
from .operators import _residual_rows, residual_values

logger = logging.getLogger(__name__)

SUBSPACE_FULL = "H_m"
SUBSPACE_Y = "Y"
SUBSPACE_W = "W"

OBJECTIVE_ACTION = "J_m"
OBJECTIVE_NEG_ACTION = "neg_J_m"

DIVERGENCE_GUARD = 1e6

# Extra damped-Newton steps allowed after the residual tolerance is first met,
# so iterates escape flat basins instead of stopping at the tolerance boundary.
_POLISH_BUDGET = 200

# Points on the discretised mountain-pass path, endpoints included.
_PATH_POINTS = 21

# Newton steps before the tolerance is met (minimize and mountain_pass budget
# multiples of it); power and shift of the deflation operator of Farrell,
# Birkisson & Funke (SIAM J. Sci. Comput. 37, 2015); radius of the ball the
# random starts are drawn from.
_MAX_ITERATIONS = 100
_DEFLATION_POWER = 2.0
_DEFLATION_SHIFT = 1.0
_START_RADIUS = 3.0


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Settings shared by every solver in this module: random starts per
    stage (>= 1), the residual norm a solution must meet, the relative
    distance under which two solutions are one, and the seed of every random
    draw.  int fields reject bools; float fields must be finite and positive.
    """

    starts: int = 16
    residual_tol: float = 1e-10
    dedupe_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type == "int" and (not isinstance(value, int) or isinstance(value, bool)):
                raise TypeError(f"{field.name} must be an integer, got {value!r}")
            if field.type == "float" and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{field.name} must be finite and positive, got {value!r}")
        if self.starts < 1:
            raise ValueError("starts must be >= 1")


def subspace_basis(m: int, n: int, subspace: str) -> np.ndarray:
    """Orthonormal basis (columns) of the requested subspace in flat coordinates."""
    if subspace == SUBSPACE_FULL:
        return np.eye(m * n)
    if subspace == SUBSPACE_W:
        return np.kron(np.full((m, 1), 1.0 / math.sqrt(m)), np.eye(n))
    if subspace == SUBSPACE_Y:
        b = np.zeros((m, m - 1))
        for j in range(1, m):
            scale = 1.0 / math.sqrt(j * (j + 1))
            b[:j, j - 1] = scale
            b[j, j - 1] = -j * scale
        return np.kron(b, np.eye(n))
    raise ValueError(f"unknown subspace {subspace!r}")


class _System:
    """Flat view of the residual system, optionally reduced to a subspace."""

    def __init__(self, prob: Problem, subspace: str = SUBSPACE_FULL):
        self.prob = prob
        self.subspace = subspace
        self.q = None if subspace == SUBSPACE_FULL else subspace_basis(prob.m, prob.n, subspace)
        self.dim = prob.dim if self.q is None else self.q.shape[1]

    def to_full(self, y: np.ndarray) -> np.ndarray:
        return y if self.q is None else self.q @ y

    def to_reduced(self, x: np.ndarray) -> np.ndarray:
        return x if self.q is None else self.q.T @ x

    def g_full(self, x: np.ndarray) -> np.ndarray:
        vals = residual_values(x.reshape(self.prob.m, self.prob.n), self.prob)
        return vals.reshape(-1)

    def g(self, y: np.ndarray) -> np.ndarray:
        gx = self.g_full(self.to_full(y))
        return gx if self.q is None else self.q.T @ gx

    def to_full_rows(self, y: np.ndarray) -> np.ndarray:
        """to_full of each row of a (B, dim) array; the stacked product is
        one matrix-vector product per row, so row b is bitwise to_full(y_b)."""
        return y if self.q is None else (self.q @ y[:, :, None])[:, :, 0]

    def to_reduced_rows(self, x: np.ndarray) -> np.ndarray:
        """to_reduced of each row of a (B, prob.dim) array, bitwise per row."""
        return x if self.q is None else (self.q.T @ x[:, :, None])[:, :, 0]

    def rows(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """g at each row of a (B, dim) array, in one residual call: (g, ok).

        ok[b] is False, and row b of g is NaN or not finite, when the
        residual at y_b is not finite or a callback raised EvaluationError
        there; other rows are unaffected.  Row b is bitwise g(y_b).
        """
        prob = self.prob
        x = self.to_full_rows(y)
        try:
            out, ok = _residual_rows(x.reshape(len(y), prob.m, prob.n), prob)
        except EvaluationError:
            if len(y) == 1:
                return np.full(y.shape, np.nan), np.zeros(1, dtype=bool)
            parts = [self.rows(y[b : b + 1]) for b in range(len(y))]
            return np.concatenate([g for g, _ in parts]), np.concatenate([ok for _, ok in parts])
        return self.to_reduced_rows(out.reshape(len(y), -1)), ok

    def jacobians(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Central-difference Jacobians of g at each row of a (B, dim) array,
        every stencil point in one rows call: (jac, ok), ok[b] False when a
        stencil residual of row b failed.  Row b is bitwise jacobian(y_b).
        """
        step = 1e-7 * np.maximum(1.0, _row_norms(y))
        return _central_difference(lambda points: self.rows(points)[0], y, step)

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        jac, ok = self.jacobians(np.asarray(y, dtype=float)[None])
        if not ok[0]:
            raise EvaluationError("residual evaluation produced non-finite entries")
        return jac[0]


def _deflated_rows(system: _System, known: np.ndarray, y: np.ndarray):
    """Deflated residuals M(y_b) g(y_b) at each row of a (B, dim) array.

    known is a (K, dim) array of solutions in the system's coordinates and
    M(y) = prod_i (||y - y_i||^-power + shift), at _DEFLATION_POWER and
    _DEFLATION_SHIFT.  Returns (M g, ok, terms), where terms = (M, grad M,
    g) are what _deflated_jacobians needs at the same rows.  ok[b] is
    False at a known solution, or so near one that M or its gradient
    overflows (those rows never reach the residual), and where g fails.
    """
    factor, dfactor = _deflation_terms(y, known, _DEFLATION_POWER, _DEFLATION_SHIFT)
    ok = np.isfinite(factor) & np.all(np.isfinite(dfactor), axis=1)
    g = np.full(y.shape, np.nan)
    if np.any(ok):
        g_ok, ok_g = system.rows(y[ok])
        g[ok] = g_ok
        ok[ok] = ok_g
    return factor[:, None] * g, ok, (factor, dfactor, g)


def _deflated_jacobians(jac: np.ndarray, factor, dfactor, g) -> np.ndarray:
    """Jacobians M J + g (grad M)^T of the deflated residual, from the plain
    Jacobians jac (B, dim, dim) and the terms _deflated_rows gave at the
    same rows."""
    return factor[:, None, None] * jac + g[:, :, None] * dfactor[:, None, :]


def _newton_step(jac: np.ndarray, g: np.ndarray) -> Optional[np.ndarray]:
    """Newton direction solving jac @ delta = -g; the minimum-norm
    least-squares step when jac is singular, None when neither is finite."""
    try:
        delta = np.linalg.solve(jac, -g)
        if not np.all(np.isfinite(delta)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        delta, *_ = np.linalg.lstsq(jac, -g, rcond=None)
    return delta if np.all(np.isfinite(delta)) else None


def _newton_steps(jac: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton directions of a stack, jac (B, dim, dim) and g (B, dim), in one
    solve: (deltas, ok).  Row b is bitwise _newton_step(jac[b], g[b]), and
    ok[b] is False where that is None.  The stacked solve gives each row the
    bits of its own solve; the rows where it is not finite, or every row when
    it raises (one singular matrix suffices), take _newton_step.
    """
    try:
        deltas = np.linalg.solve(jac, -g[..., None])[..., 0]
        redo = np.flatnonzero(~np.all(np.isfinite(deltas), axis=1)).tolist()
    except np.linalg.LinAlgError:
        deltas, redo = np.empty_like(g), range(len(g))
    ok = np.ones(len(g), dtype=bool)
    for b in redo:
        delta = _newton_step(jac[b], g[b])
        ok[b] = delta is not None
        if ok[b]:
            deltas[b] = delta
    return deltas, ok


# The line search's 30 step lengths 2^-j, tried in blocks of these sizes:
# every start still searching puts its next block into one residual call.
_SEARCH_BLOCKS = (1, 2, 4, 8, 15)


def _newton_rows(
    system: _System, y0: np.ndarray, cfg: SolverConfig, known: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton from each row of y0 (S, dim), all starts in lock step.

    Returns (best iterates, their norms, converged flags, iterations), one
    per start.  known, a (K, dim) array, deflates the residual (see
    _deflated_rows); convergence is then judged on the deflated norm.

    Each start runs its own iteration: a central-difference Jacobian, a
    Newton step delta (least squares when the Jacobian is singular), then a
    backtracking line search (_block_search) over y + 2^-j delta, j =
    0..29, taking the first trial whose residual norm is below (1 - 1e-4
    2^-j) times its own; a trial whose evaluation fails is rejected, and
    one equal to y byte for byte ends the search unaccepted, since every
    shorter step gives the same point.  Lock step only shares calls, one
    residual call for all Jacobians of a round, one solve for all its steps
    (_newton_steps) and one residual call per line-search block, so every
    start's iterates are bitwise those of running it alone.  A start stops
    when its Jacobian or step fails, when the line search accepts nothing,
    when its norm passes 1e8, after _MAX_ITERATIONS steps above
    residual_tol, or after _POLISH_BUDGET steps below it: residuals with
    high-order flatness (e.g. degree-7 growth around the zero solution) dip
    below any fixed tolerance on a whole neighbourhood, and only the
    stagnation point is the actual root.  A deflated start carries the
    terms of its accepted trial into its next Jacobian.
    """
    if known is None:

        def evaluate(y):
            g, ok = system.rows(y)
            return g, ok, ()

    else:

        def evaluate(y):
            return _deflated_rows(system, known, y)

    # the line search of the starts rows of a round, from y_base along deltas
    def trial(k, t):
        return y_base[k, None] + t[:, :, None] * deltas[k, None]

    def evaluate_trials(points, k, t):
        g_new, ok, terms_new = evaluate(points)
        ng_new = _row_norms(g_new)
        return ok & (ng_new < (1.0 - 1e-4 * t) * ng_base[k]), points, g_new, ng_new, *terms_new

    def take(k, t, points, g_new, ng_new, *terms_new):
        s = rows[k]
        y[s], g[s], ng[s] = points, g_new, ng_new
        for state, new in zip(terms, terms_new):
            state[s] = new

    y = np.array(y0, dtype=float)
    g, ok, terms = evaluate(y)
    ng = np.where(ok, _row_norms(g), math.inf)
    best_y, best_ng = y.copy(), ng.copy()
    iters = np.zeros(len(y), dtype=int)
    polish_left = np.full(len(y), _POLISH_BUDGET)
    active = ok.copy()
    while True:
        below_tol = ng <= cfg.residual_tol
        active &= np.where(below_tol, polish_left > 0, iters < _MAX_ITERATIONS)
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        jac, ok = system.jacobians(y[rows])
        if known is not None:
            jac = _deflated_jacobians(jac, *(state[rows] for state in terms))
        active[rows[~ok]] = False
        rows = rows[ok]
        deltas, stepped = _newton_steps(jac[ok], g[rows])
        active[rows[~stepped]] = False
        rows, deltas = rows[stepped], deltas[stepped]
        y_base, ng_base, steps = y[rows], ng[rows], np.ones(rows.size)
        accepted = _block_search(steps, _SEARCH_BLOCKS, trial, evaluate_trials, take, base=y_base)
        active[rows[~accepted]] = False
        rows = rows[accepted]
        escaped = _row_norms(y[rows]) > 1e8
        active[rows[escaped]] = False
        rows = rows[~escaped]
        iters[rows] += 1
        polish_left[rows[below_tol[rows]]] -= 1
        better = rows[ng[rows] < best_ng[rows]]
        best_y[better], best_ng[better] = y[better], ng[better]
    return best_y, best_ng, best_ng <= cfg.residual_tol, iters


def _newton_iterate(
    system: _System, y0: np.ndarray, cfg: SolverConfig, known: Optional[np.ndarray] = None
) -> tuple[np.ndarray, float, bool, int]:
    """_newton_rows from one start: (best iterate, its norm, converged, iters)."""
    y, ng, converged, iters = _newton_rows(system, np.asarray(y0, dtype=float)[None], cfg, known)
    return y[0], float(ng[0]), bool(converged[0]), int(iters[0])


def _make_records(
    prob: Problem,
    xs: np.ndarray,
    method: str,
    cfg: SolverConfig,
    start_indices: Optional[Sequence] = None,
    flags: tuple = (),
    classify: bool = True,
    residual_norms: Optional[np.ndarray] = None,
) -> list[SolutionRecord]:
    """Records of the B flat points of xs (B, prob.dim), built in stacks.

    One residual call (skipped when the caller passes the full residual
    norms it already has), one _morse_summaries call and one _action_values
    call serve all B points, and each stacked kernel gives every row the
    bits of its own call, so record b is that of x_b alone.  Raises
    EvaluationError when a residual or an action is not finite.
    """
    if residual_norms is None:
        out, ok = _residual_rows(xs.reshape(-1, prob.m, prob.n), prob)
        if not np.all(ok):
            raise EvaluationError("residual evaluation produced non-finite entries")
        residual_norms = _row_norms(out)
    summaries = _morse_summaries(xs, prob) if classify else [None] * len(xs)
    actions = _action_values(xs, prob).tolist()
    if start_indices is None:
        start_indices = [None] * len(xs)
    records = []
    for x, res_norm, summary, action_value, start_index in zip(
        xs, residual_norms.tolist(), summaries, actions, start_indices
    ):
        u = PeriodicSequence.from_flat(x, prob.m, prob.n)
        records.append(
            SolutionRecord(
                u=u,
                residual_norm=res_norm,
                action_value=action_value,
                morse_index=summary.morse_index if classify else 0,
                in_Y=in_Y(u),
                classification=summary.classification if classify else "unclassified",
                method=method,
                start_index=start_index,
                converged=res_norm <= cfg.residual_tol,
                flags=flags,
            )
        )
    return records


def _make_record(
    prob: Problem,
    x: np.ndarray,
    method: str,
    cfg: SolverConfig,
    start_index: Optional[int] = None,
    flags: tuple = (),
    classify: bool = True,
) -> SolutionRecord:
    """The one-row case of _make_records."""
    xs = np.asarray(x, dtype=float)[None]
    return _make_records(prob, xs, method, cfg, [start_index], flags, classify)[0]


def newton_solve(
    prob: Problem, u0: PeriodicSequence, cfg: SolverConfig
) -> Optional[SolutionRecord]:
    """Damped Newton on the full residual system from the given start.

    Returns a verified solution record (full residual norm <= residual_tol)
    or None.  Every exponent p > 1 runs the same iteration on the exact
    residual, the singular range p < 2 included.
    """
    x, ng, converged, _ = _newton_iterate(_System(prob), u0.flat(), cfg)
    if not converged:
        logger.debug("newton_solve failed: best residual %.3e", ng)
        return None
    return _make_record(prob, x, "newton", cfg)


def _deflation_terms(
    y: np.ndarray, known: Sequence[np.ndarray], power: float, shift: float
) -> tuple[np.ndarray, np.ndarray]:
    """Deflation factors prod_i (||y_b - y_i||^-power + shift) and their
    gradients, for each row y_b of a (B, dim) array.

    known holds K >= 1 solutions, as a (K, dim) array or a sequence of
    vectors.  All B x K terms are formed at once, and each row's product
    and sum of log-gradients accumulate in the order of known, so row b is
    bitwise that of a loop over the solutions at y_b: each squared norm is
    one dot product (the stacked matmul), the powers go through C pow
    (np.float_power, as Python's ** on floats), and cumprod/cumsum add one
    term at a time.  The leading 0.0 + turns a -0.0 sum into +0.0, as adding
    to a zero vector does.  At a known solution the factor is inf and the
    gradient 0.
    """
    d = y[:, None, :] - np.asarray(known, dtype=float)
    nd2 = (d[..., None, :] @ d[..., :, None]).reshape(d.shape[:2])
    hit = np.any(nd2 == 0.0, axis=1)
    nd2[hit] = 1.0
    mi = np.float_power(nd2, -power / 2.0) + shift
    dmi = (-power * np.float_power(nd2, -power / 2.0 - 1.0))[..., None] * d
    factor = np.cumprod(mi, axis=1)[:, -1]
    log_grad = 0.0 + np.cumsum(dmi / mi[..., None], axis=1)[:, -1]
    grad = factor[:, None] * log_grad
    factor[hit] = math.inf
    grad[hit] = 0.0
    return factor, grad


def deflated_solve(
    prob: Problem,
    known,
    u0: PeriodicSequence,
    cfg: SolverConfig,
) -> Optional[SolutionRecord]:
    """Newton on the deflated residual, repelled from already-known solutions.

    known is a SolutionSet or any iterable of PeriodicSequence / flat arrays.
    Convergence is judged on the undeflated residual, and a result landing
    back on a known solution (within dedupe_tol) is rejected.
    """
    known_flat = _known_flats(known, prob)
    if not known_flat:
        return newton_solve(prob, u0, cfg)
    system = _System(prob)
    x, _, converged, _ = _newton_iterate(system, u0.flat(), cfg, known=np.array(known_flat))
    if not converged:
        return None
    true_norm = float(np.linalg.norm(system.g_full(x)))
    if true_norm > cfg.residual_tol:
        return None
    if _first_match(x, np.array(known_flat), prob, cfg) is not None:
        return None
    return _make_record(prob, x, "deflated", cfg)


def _known_flats(known, prob: Problem) -> list[np.ndarray]:
    if known is None:
        return []
    if isinstance(known, SolutionSet):
        entries = [r.u for r in known.records]
    else:
        entries = list(known)
    out = []
    for e in entries:
        if isinstance(e, SolutionRecord):
            out.append(e.u.flat())
        elif isinstance(e, PeriodicSequence):
            out.append(e.flat())
        else:
            out.append(np.asarray(e, dtype=float).reshape(-1))
    return out


def _close_rows(a: np.ndarray, known: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Distance test of a against each row of known (K, dim): (close, dist).

    close[i] is |a - known_i| <= tol * max(1, |a|, |known_i|), and dist[i]
    is |a - known_i|.  Every norm is one dot product per row (_row_norms),
    bitwise np.linalg.norm.
    """
    dist = _row_norms(a - known)
    scale = np.maximum(max(1.0, float(np.linalg.norm(a))), _row_norms(known))
    return dist <= tol * scale, dist


def _is_duplicate(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """The one-row case of _close_rows."""
    return bool(_close_rows(a, np.asarray(b)[None], tol)[0][0])


def _flat_connected(a: np.ndarray, b: np.ndarray, prob: Problem, bar: float) -> bool:
    """True when the segment from a to b stays inside the residual sublevel set.

    Two below-tolerance points joined by a below-tolerance path belong to one
    connected component of {u : |residual(u)| <= bar} and are numerically the
    same solution.  Residuals with high-order flatness (or the translation
    family of a potential-free problem) produce whole plateaus of such points;
    distance alone cannot collapse them.  The midpoint goes first so genuinely
    distinct solutions are rejected after a single evaluation.
    """
    for t in (0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875):
        x = a + t * (b - a)
        try:
            vals = residual_values(x.reshape(prob.m, prob.n), prob)
        except EvaluationError:
            return False
        if float(np.linalg.norm(vals)) > bar:
            return False
    return True


def _first_match(
    a: np.ndarray,
    known: np.ndarray,
    prob: Problem,
    cfg: SolverConfig,
    actions: Optional[tuple] = None,
) -> Optional[int]:
    """Index of the first row of known (K, dim) that is the same solution as
    a, or None: the first row that is close to a (_close_rows) or joined to
    it by a flat segment (_flat_connected).

    actions, when given, are J(a) and the (K,) actions of the rows.  If the
    whole segment from a to b stays in {|g| <= bar}, then |J(a) - J(b)| <=
    bar * ||a - b|| because grad J = -g, so a larger action gap (beyond
    rounding slack) rules the merge out without evaluating the residual on
    the segment.  The distances and the gap test are one vector test over
    the rows; the segment test runs, in row order, only on the rows before
    the first close one that the gap does not rule out.
    """
    close, dist = _close_rows(a, known, cfg.dedupe_tol)
    first_close = int(np.argmax(close)) if close.any() else len(known)
    bar = 100.0 * cfg.residual_tol
    segment = np.ones(first_close, dtype=bool)
    if actions is not None:
        j_a, j_b = actions[0], actions[1][:first_close]
        slack = 1e-12 * np.maximum(max(1.0, abs(j_a)), np.abs(j_b))
        segment = ~(np.abs(j_a - j_b) > bar * dist[:first_close] + slack)
    for i in np.flatnonzero(segment).tolist():
        if _flat_connected(a, known[i], prob, bar):
            return i
    return first_close if first_close < len(known) else None


def _same_solution(
    a: np.ndarray,
    b: np.ndarray,
    prob: Problem,
    cfg: SolverConfig,
    actions: Optional[tuple[float, float]] = None,
) -> bool:
    """Dedupe test: a and b are close, or joined by a flat segment.  The
    one-row case of _first_match; actions, when given, are J(a) and J(b).
    """
    if actions is not None:
        actions = (actions[0], np.array([actions[1]], dtype=float))
    return _first_match(a, np.asarray(b)[None], prob, cfg, actions) == 0


class _Diverged(Exception):
    pass


def minimize(
    prob: Problem,
    subspace: str = SUBSPACE_FULL,
    objective: str = OBJECTIVE_ACTION,
    cfg: SolverConfig | None = None,
    u0: PeriodicSequence | None = None,
) -> Optional[SolutionRecord]:
    """Minimise the action (or its negation) over a subspace.

    objective "J_m" minimises the action and "neg_J_m" maximises it.
    Runs L-BFGS, then polishes its point with find_multiple's damped Newton
    (_newton_iterate) on the projected residual.  The polished point is
    kept only if Newton converged and the objective did not rise, so the
    result stays at the minimiser.  Iterates escaping a large ball trigger
    the divergence guard: the objective is reported as non-coercive and
    None is returned.
    """
    from scipy.optimize import minimize as scipy_minimize

    cfg = cfg or SolverConfig()
    if objective not in (OBJECTIVE_ACTION, OBJECTIVE_NEG_ACTION):
        raise ValueError(f"unknown objective {objective!r}")
    sign = -1.0 if objective == OBJECTIVE_NEG_ACTION else 1.0
    system = _System(prob, subspace=subspace)
    guard = DIVERGENCE_GUARD * _START_RADIUS

    def point(y: np.ndarray) -> np.ndarray:
        if float(np.linalg.norm(y)) > guard:
            raise _Diverged
        return system.to_full(y).reshape(prob.m, prob.n)

    def fun(y: np.ndarray):
        v = point(y)
        grad = system.to_reduced(-residual_values(v, prob).reshape(-1))
        return sign * action(v, prob), sign * grad

    if u0 is not None:
        y = system.to_reduced(u0.flat())
    else:
        rng = rng_for(cfg.seed, 31)
        y = _START_RADIUS * rng.normal(size=system.dim) / math.sqrt(max(system.dim, 1))
    try:
        result = scipy_minimize(
            fun,
            y,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 50 * _MAX_ITERATIONS, "ftol": 1e-18, "gtol": 1e-12},
        )
        y = result.x
        # polish: kept only if it converged and the objective did not rise
        y_new, _, converged, _ = _newton_iterate(system, y, cfg)
        if converged:
            val = fun(y)[0]
            if fun(y_new)[0] <= val + 1e-10 * max(1.0, abs(val)):
                y = y_new
    except _Diverged:
        warnings.warn(
            f"minimize({objective} on {subspace}): iterates escaped the guard "
            f"ball; the objective appears unbounded below (anti-coercive)",
            RuntimeWarning,
            stacklevel=2,
        )
        return None

    val, grad = fun(y)
    gnorm = float(np.linalg.norm(grad))
    if gnorm > cfg.residual_tol:
        logger.debug("minimize stalled with projected gradient %.3e", gnorm)
        return None
    x = system.to_full(y)
    record = _make_record(prob, x, "subspace_min", cfg)
    if subspace != SUBSPACE_FULL and record.residual_norm > cfg.residual_tol:
        record = dataclasses.replace(
            record, flags=record.flags + ("subspace_critical_only",)
        )
    return record


def mountain_pass(
    prob: Problem,
    u_a: PeriodicSequence,
    u_b: PeriodicSequence,
    cfg: SolverConfig,
) -> Optional[SolutionRecord]:
    """Saddle search along a relaxed path between two distinct critical points.

    A discretised path from u_a to u_b is relaxed by moving interior points
    along the component of steepest descent orthogonal to the path, with an
    arc-length reparametrisation each sweep.  When the gradient at the path
    maximum is small the point is polished by Newton.  Returns None when no
    separating barrier is detected (the interior maximum never exceeds the
    endpoint values).
    """
    a = u_a.flat()
    b = u_b.flat()
    if _is_duplicate(a, b, cfg.dedupe_tol):
        raise ValueError("mountain_pass endpoints must be distinct")
    system = _System(prob)
    ts = np.linspace(0.0, 1.0, _PATH_POINTS)
    path = np.array([a + t * (b - a) for t in ts])

    def j_of(x: np.ndarray) -> float:
        return action(x.reshape(prob.m, prob.n), prob)

    j_end = max(j_of(a), j_of(b))
    barrier_tol = 1e-9 * max(1.0, abs(j_end))
    for _ in range(10 * _MAX_ITERATIONS):
        # the endpoints never move, so only the interior is evaluated
        j_inner = np.array([j_of(p) for p in path[1:-1]])
        i_star = 1 + int(np.argmax(j_inner))
        if j_inner[i_star - 1] <= j_end + barrier_tol:
            return None
        g_star = system.g_full(path[i_star])
        if float(np.linalg.norm(g_star)) <= 10.0 * cfg.residual_tol:
            polish_from = path[i_star]
            break
        seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
        spacing = float(np.mean(seg))
        new_path = path.copy()
        for i in range(1, _PATH_POINTS - 1):
            tangent = path[i + 1] - path[i - 1]
            tn = float(np.linalg.norm(tangent))
            if tn > 0.0:
                tangent /= tn
            g = -system.g_full(path[i])  # gradient of the action
            step_dir = -(g - float(np.dot(g, tangent)) * tangent)
            sn = float(np.linalg.norm(step_dir))
            if sn > 0.0:
                new_path[i] = path[i] + min(0.2 * spacing / sn, 0.5) * step_dir
        # reparametrise by arc length
        deltas = np.linalg.norm(np.diff(new_path, axis=0), axis=1)
        arc = np.concatenate([[0.0], np.cumsum(deltas)])
        if arc[-1] > 0.0:
            targets = np.linspace(0.0, arc[-1], _PATH_POINTS)
            for dim in range(new_path.shape[1]):
                new_path[:, dim] = np.interp(targets, arc, new_path[:, dim])
        path = new_path
    else:
        polish_from = path[1 + int(np.argmax([j_of(p) for p in path[1:-1]]))]
    x, _, converged, _ = _newton_iterate(system, polish_from, cfg)
    if not converged:
        return None
    if _is_duplicate(x, a, cfg.dedupe_tol) or _is_duplicate(x, b, cfg.dedupe_tol):
        return None
    return _make_record(prob, x, "mountain_pass", cfg)


@dataclasses.dataclass(frozen=True)
class SolutionSet:
    """Deduplicated, classified solutions of one problem instance.

    records are sorted by action value.  y_discrepancies holds points that
    are critical for the restriction to the zero-mean subspace but fail the
    full residual test; they are kept separate because they do not solve the
    original system.  symmetry_ok reports the post-hoc check that -u solves
    whenever u does (only meaningful for even potentials).
    """

    records: tuple
    y_discrepancies: tuple = ()
    symmetry_ok: Optional[bool] = None
    subspace: str = SUBSPACE_FULL
    seed: int = 0


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """Per-lambda solution counts over a grid, with the >=3 region estimate."""

    lambda_grid: tuple
    counts: tuple
    nontrivial_counts: tuple
    min_actions: tuple
    a_estimate: tuple
    solution_sets: tuple
    failures: tuple = ()


def _canonical(x: np.ndarray, prob: Problem) -> np.ndarray:
    """Dedupe representative; constants are quotiented out only for F == 0."""
    if prob.nonlinearity.is_zero:
        v = x.reshape(prob.m, prob.n)
        return (v - v.mean(axis=0)).reshape(-1)
    return x


def _sign_flip_ok(prob: Problem, values: np.ndarray, bar: float) -> bool:
    """Whether the residual at -u has norm <= bar for every u of a (K, m, n)
    stack, judged in row order with one _residual_rows call: False at the
    first row above bar, unless a row before it has a non-finite residual,
    which raises EvaluationError as residual_values does.
    """
    out, ok = _residual_rows(-values, prob)
    stop = ~ok | (_row_norms(out) > bar)
    if not stop.any():
        return True
    if not ok[np.argmax(stop)]:
        raise EvaluationError("residual evaluation produced non-finite entries")
    return False


class _KnownSolutions:
    """The records found so far, with the dedupe representative (_canonical)
    and the action of each stacked beside them, so that a candidate is
    compared with all of them at once."""

    def __init__(self, prob: Problem, cfg: SolverConfig):
        self.prob, self.cfg = prob, cfg
        self.records: list[SolutionRecord] = []
        self.canon = np.empty((0, prob.dim))
        self.actions = np.empty(0)

    def add(self, rec: SolutionRecord) -> bool:
        """Append rec unless it is the same solution as a known record
        (_first_match), which it then replaces if its residual norm is
        smaller.  True when rec was appended."""
        x = _canonical(rec.u.flat(), self.prob)
        # canonicalising subtracts a constant only when F == 0, which keeps J
        i = _first_match(x, self.canon, self.prob, self.cfg, (rec.action_value, self.actions))
        if i is None:
            self.records.append(rec)
            self.canon, self.actions = np.vstack((self.canon, x)), np.append(self.actions, rec.action_value)
            return True
        if rec.residual_norm < self.records[i].residual_norm:
            self.records[i] = rec
            self.canon[i], self.actions[i] = x, rec.action_value
        return False


def _random_starts(cfg: SolverConfig, dim: int, key: int):
    """Yield (i, start) for the random starts i < cfg.starts of one stage.

    Start i is uniform in the ball of radius _START_RADIUS and is drawn
    from its own stream rng_for(cfg.seed, key, i).  A zero normal draw is
    skipped, so an index can be missing.
    """
    for i in range(cfg.starts):
        rng = rng_for(cfg.seed, key, i)
        v = rng.normal(size=dim)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            continue
        radius = _START_RADIUS * rng.random() ** (1.0 / max(dim, 1))
        yield i, radius * v / nv


def find_multiple(
    prob: Problem,
    cfg: SolverConfig | None = None,
    subspace: str = SUBSPACE_FULL,
    extra_starts: Sequence[np.ndarray] = (),
) -> SolutionSet:
    """Multistart Newton + deflation pipeline returning a deduplicated set.

    Stages: the zero sequence, multistart Newton, then deflation rounds
    until a full round adds nothing.  The starts of a stage (the warm and
    random starts of stage 1, or one deflation round's starts against the
    records known when the round begins) run as one lock-step batch.  Its
    converged candidates are then verified with one residual call, and
    their records built and classified with one _make_records call, before
    each is deduplicated against all known records at once (_first_match),
    in start order.  Every record's method is "newton" or "deflated".  With
    subspace="Y" the iteration runs on the zero-mean reduction; every
    candidate is still verified against the full residual, and
    reduced-critical points failing that test are reported in
    y_discrepancies instead of records.
    """
    cfg = cfg or SolverConfig()
    if subspace not in (SUBSPACE_FULL, SUBSPACE_Y):
        raise ValueError(f"find_multiple supports subspaces H_m and Y, got {subspace!r}")
    system = _System(prob, subspace=subspace)
    found = _KnownSolutions(prob, cfg)
    records, try_add = found.records, found.add
    discrepancies: list[SolutionRecord] = []

    def handle_stage(ys: np.ndarray, start_indices: list, method: str) -> bool:
        """Verify, record and dedupe a stage's converged rows ys (B, dim), in
        start order; True when a record was added.  A deflated stage's rows
        must first meet the tolerance on the undeflated reduced residual."""
        xs = system.to_full_rows(ys)
        out, ok = _residual_rows(xs.reshape(len(xs), prob.m, prob.n), prob)
        if not np.all(ok):
            raise EvaluationError("residual evaluation produced non-finite entries")
        g = out.reshape(len(xs), -1)
        full_norms = _row_norms(g)
        kept = np.ones(len(xs), dtype=bool)
        if method == "deflated":
            kept = _row_norms(system.to_reduced_rows(g)) <= cfg.residual_tol
        solved = kept & (full_norms <= cfg.residual_tol)
        y_only = kept & ~solved & (subspace == SUBSPACE_Y)
        made = {}
        for mask, flags, classify in ((solved, (), True), (y_only, ("y_critical_only",), False)):
            idx = np.flatnonzero(mask).tolist()
            if idx:
                starts = [start_indices[i] for i in idx]
                recs = _make_records(prob, xs[idx], method, cfg, starts, flags, classify, full_norms[idx])
                made.update(zip(idx, recs))
        added = False
        for i in sorted(made):
            if solved[i]:
                added |= try_add(made[i])
            elif not any(_is_duplicate(xs[i], d.u.flat(), cfg.dedupe_tol) for d in discrepancies):
                discrepancies.append(made[i])
        return added

    # stage 0: the zero sequence
    if float(np.linalg.norm(system.g_full(np.zeros(prob.dim)))) <= cfg.residual_tol:
        try_add(_make_record(prob, np.zeros(prob.dim), "newton", cfg))

    # stage 1: warm starts (continuation) then multistart Newton, one batch;
    # candidates are handled in start order
    start_pool: list[np.ndarray] = [system.to_reduced(np.asarray(w, float).reshape(-1)) for w in extra_starts]
    start_pool.extend(y0 for _, y0 in _random_starts(cfg, system.dim, 101))
    if start_pool:
        ys, _, converged, _ = _newton_rows(system, np.array(start_pool), cfg)
        idx = np.flatnonzero(converged)
        if idx.size:
            handle_stage(ys[idx], idx.tolist(), "newton")

    # stage 2: deflation rounds until a round adds nothing new; each round is
    # one batch against the records known when it starts
    for round_no in range(10):
        starts = list(_random_starts(cfg, system.dim, 211 + round_no))
        if not records or not starts:
            break
        known = np.array([system.to_reduced(r.u.flat()) for r in records])
        ys, _, converged, _ = _newton_rows(system, np.array([y0 for _, y0 in starts]), cfg, known)
        idx = np.flatnonzero(converged).tolist()
        if not (idx and handle_stage(ys[idx], [starts[i][0] for i in idx], "deflated")):
            break

    symmetry_ok = None
    if prob.nonlinearity.even_symmetric and records:
        bar = 10.0 * cfg.residual_tol
        symmetry_ok = _sign_flip_ok(prob, np.array([r.u.values for r in records]), bar)

    records.sort(key=lambda r: (r.action_value, tuple(r.u.values.reshape(-1))))
    return SolutionSet(
        records=tuple(records),
        y_discrepancies=tuple(discrepancies),
        symmetry_ok=symmetry_ok,
        subspace=subspace,
        seed=cfg.seed,
    )


def lambda_sweep(
    prob: Problem,
    lambda_grid: Sequence[float],
    cfg: SolverConfig | None = None,
    subspace: str = SUBSPACE_FULL,
) -> SweepResult:
    """find_multiple along a lambda grid with warm-started continuation.

    Solutions found at one grid point seed the Newton starts at the next.
    The warm pool is replaced, not extended: it holds exactly the records
    of the previous grid point (of the last one that did not fail), so it
    is bounded by that point's record count and does not accumulate.
    a_estimate lists the maximal grid intervals on which at least three
    distinct solutions were located.
    """
    cfg = cfg or SolverConfig()
    grid = [float(v) for v in lambda_grid]
    if not grid or any(v <= 0 for v in grid):
        raise ValueError("lambda grid must contain positive values")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda grid must be strictly increasing")

    counts, nontrivial, min_actions, sets, failures = [], [], [], [], []
    warm: list[np.ndarray] = []
    for lam in grid:
        prob_l = prob.with_lambda(lam)
        try:
            sol = find_multiple(prob_l, cfg, subspace=subspace, extra_starts=warm)
        except (EvaluationError, np.linalg.LinAlgError) as exc:
            # a numerical failure at one grid point is reported, not fatal
            failures.append((lam, f"{type(exc).__name__}: {exc}"))
            sets.append(SolutionSet(records=(), subspace=subspace, seed=cfg.seed))
            counts.append(0)
            nontrivial.append(0)
            min_actions.append(None)
            continue
        sets.append(sol)
        counts.append(len(sol.records))
        nontrivial.append(
            sum(1 for r in sol.records if euclidean_norm(r.u) > cfg.dedupe_tol)
        )
        min_actions.append(
            min((r.action_value for r in sol.records), default=None)
        )
        warm = [r.u.flat() for r in sol.records]

    intervals = []
    run_start = None
    for i, c in enumerate(counts):
        if c >= 3 and run_start is None:
            run_start = i
        if (c < 3 or i == len(counts) - 1) and run_start is not None:
            end = i if c >= 3 else i - 1
            intervals.append((grid[run_start], grid[end]))
            run_start = None
    return SweepResult(
        lambda_grid=tuple(grid),
        counts=tuple(counts),
        nontrivial_counts=tuple(nontrivial),
        min_actions=tuple(min_actions),
        a_estimate=tuple(intervals),
        solution_sets=tuple(sets),
        failures=tuple(failures),
    )
