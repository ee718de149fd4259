"""Solvers that locate and classify multiple critical points of the action.

The toolbox is deliberately plain: find_multiple runs damped Newton on the
residual with a finite-difference Jacobian and deflation to repel found
solutions, all starts of a stage in lock step so that their residuals are
evaluated together, one call per stacked batch, and lambda_sweep runs it
along a lambda grid.  mountain_pass (a relaxed path between two critical
points, polished by the same Newton loop) is only called directly.  All
randomness is drawn from counter-keyed generators, so a fixed seed
reproduces the same solution set bit for bit.  SolverConfig and the
subspace names live in core, so that a configuration loads without this
module, and are re-exported here.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np

from .analysis import rng_for
from .core import (
    SUBSPACE_FULL,
    SUBSPACE_Y,
    EvaluationError,
    PeriodicSequence,
    Problem,
    SolutionRecord,
    SolverConfig,
    _Record,
    _SEARCH_BLOCKS,
    _block_search,
    _row_norms,
    euclidean_norm,
    in_Y,
)
from .functional import _action_values, _central_difference, _morse_summaries, _require_smooth
from .operators import _residual_rows, residual_values

# Extra damped-Newton steps allowed after the residual tolerance is first met,
# so iterates escape flat basins instead of stopping at the tolerance boundary.
_POLISH_BUDGET = 200

# Points on the discretised mountain-pass path, endpoints included.
_PATH_POINTS = 21

# Newton steps before the tolerance is met (mountain_pass budgets a multiple
# of it); power and shift of the deflation operator of Farrell,
# Birkisson & Funke (SIAM J. Sci. Comput. 37, 2015); radius of the ball the
# random starts are drawn from.
_MAX_ITERATIONS = 100
_DEFLATION_POWER = 2.0
_DEFLATION_SHIFT = 1.0
_START_RADIUS = 3.0


def subspace_basis(m: int, n: int, subspace: str) -> np.ndarray:
    """Orthonormal basis (columns) of the requested subspace in flat coordinates."""
    if subspace == SUBSPACE_FULL:
        return np.eye(m * n)
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

    def g_full(self, x: np.ndarray) -> np.ndarray:
        vals = residual_values(x.reshape(self.prob.m, self.prob.n), self.prob)
        return vals.reshape(-1)

    def to_full_rows(self, y: np.ndarray) -> np.ndarray:
        """q @ y_b for each row of a (B, dim) array; the stacked product is
        one matrix-vector product per row, so row b is bitwise q @ y_b."""
        return y if self.q is None else (self.q @ y[:, :, None])[:, :, 0]

    def to_reduced_rows(self, x: np.ndarray) -> np.ndarray:
        """q.T @ x_b for each row of a (B, prob.dim) array, bitwise per row."""
        return x if self.q is None else (self.q.T @ x[:, :, None])[:, :, 0]

    def rows(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The reduced residual g(y) = q.T @ residual(q @ y), q the
        subspace basis (none on the full space), at each row of a (B, dim)
        array, in one residual call: (g, ok).

        ok[b] is False, and row b of g is NaN or not finite, when the
        residual at y_b is not finite or a callback raised EvaluationError
        there; other rows are unaffected.  Row b is bitwise the products and
        the residual of y_b alone.
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
        return self.to_reduced_rows(out.reshape(len(y), prob.dim)), ok

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
    ok = np.isfinite(factor) & np.isfinite(dfactor).all(axis=1)
    if ok.all():
        g, ok = system.rows(y)
    else:
        g = np.full(y.shape, np.nan)
        if ok.any():
            g[ok], ok[ok] = system.rows(y[ok])
    return factor[:, None] * g, ok, (factor, dfactor, g)


def _deflated_jacobians(jac: np.ndarray, factor, dfactor, g) -> np.ndarray:
    """Jacobians M J + g (grad M)^T of the deflated residual, from the plain
    Jacobians jac (B, dim, dim) and the terms _deflated_rows gave at the
    same rows."""
    return factor[:, None, None] * jac + g[:, :, None] * dfactor[:, None, :]


def _newton_step(jac: np.ndarray, g: np.ndarray) -> Optional[np.ndarray]:
    """Newton direction solving jac @ delta = -g; the minimum-norm
    least-squares step when jac is singular, None when neither is finite.
    A jac or g that is not finite never reaches least squares (LAPACK's SVD
    fails on it): the step is None."""
    try:
        delta = np.linalg.solve(jac, -g)
        if not np.all(np.isfinite(delta)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        if not (np.isfinite(jac).all() and np.isfinite(g).all()):
            return None
        delta, *_ = np.linalg.lstsq(jac, -g, rcond=None)
    return delta if np.all(np.isfinite(delta)) else None


def _newton_steps(jac: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton directions of a stack, jac (B, dim, dim) and g (B, dim), in one
    solve: (deltas, ok).  Row b is bitwise _newton_step(jac[b], g[b]), and
    ok[b] is False where that is None.  The stacked solve gives each row the
    bits of its own solve, and when every row's step is finite it returns at
    once; the rows where it is not finite, or every row when it raises (one
    singular matrix suffices), take _newton_step.
    """
    try:
        deltas = np.linalg.solve(jac, -g[..., None])[..., 0]
        finite = np.isfinite(deltas)
        if finite.all():
            return deltas, np.ones(len(g), dtype=bool)
        redo = np.flatnonzero(~finite.all(axis=1)).tolist()
    except np.linalg.LinAlgError:
        deltas, redo = np.empty_like(g), range(len(g))
    ok = np.ones(len(g), dtype=bool)
    for b in redo:
        delta = _newton_step(jac[b], g[b])
        ok[b] = delta is not None
        if ok[b]:
            deltas[b] = delta
    return deltas, ok


def _newton_rows(
    system: _System, y0: np.ndarray, cfg: SolverConfig, known: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton from each row of y0 (S, dim), all starts in lock step.

    Returns (best iterates, their norms, converged flags, iterations), one
    per start.  known, a (K, dim) array, deflates the residual (see
    _deflated_rows); convergence is then judged on the deflated norm.

    Each start runs its own iteration: a central-difference Jacobian, a
    Newton step delta (least squares when the Jacobian is singular), then
    the backtracking line search of _block_search over y + t delta, t =
    2^-j, taking the first trial whose residual norm is below (1 - 1e-4 t)
    times its own; a trial whose evaluation fails is rejected.  Lock step
    only shares calls, one residual call for all Jacobians of a round, one
    solve for all its steps (_newton_steps) and one residual call per
    line-search block, so every start's iterates are bitwise those of
    running it alone.  A start stops when its Jacobian or step fails (a
    Jacobian or residual that is not finite fails its step), when the line
    search accepts nothing, when its norm passes 1e8, after _MAX_ITERATIONS
    steps above residual_tol, or after _POLISH_BUDGET steps below it:
    residuals with high-order flatness (e.g. degree-7 growth around the
    zero solution) dip below any fixed tolerance on a whole neighbourhood,
    and only the stagnation point is the actual root.  Each start's state
    is one row of a packed array, its point, its residual, that residual's
    norm and, deflated, the terms (M, grad M, plain residual) of its
    accepted trial, which its next Jacobian takes: a round gathers its rows
    once and an accepted trial is one row written.
    """
    # the columns of a packed state row: the point, its (deflated) residual
    # G and that residual's norm NG, then, deflated, M, grad M and the plain
    # residual
    dim = system.dim
    G, NG, M = slice(dim, 2 * dim), 2 * dim, 2 * dim + 1
    DM, PLAIN = slice(2 * dim + 2, 3 * dim + 2), slice(3 * dim + 2, None)

    def evaluate(y):
        """(ok, packed state rows) at the points y."""
        if known is None:
            g, ok = system.rows(y)
            return ok, np.concatenate((y, g, _row_norms(g)[:, None]), axis=1)
        g, ok, (factor, dfactor, plain) = _deflated_rows(system, known, y)
        parts = (y, g, _row_norms(g)[:, None], factor[:, None], dfactor, plain)
        return ok, np.concatenate(parts, axis=1)

    # the line search of the starts rows of a round, from y along delta
    def evaluate_trials(points, k, t):
        ok, new = evaluate(points)
        return ok & (new[:, NG] < (1.0 - 1e-4 * t) * ng_base[k]), new

    def take(k, t, new):
        state[rows[k]] = new

    ok, state = evaluate(np.array(y0, dtype=float))
    if not ok.all():
        state[~ok, NG] = math.inf
    best = state.copy()
    iters = np.zeros(len(state), dtype=int)
    polish_left = np.full(len(state), _POLISH_BUDGET)
    active = ok.copy()
    while True:
        below_tol = state[:, NG] <= cfg.residual_tol
        active &= np.where(below_tol, polish_left > 0, iters < _MAX_ITERATIONS)
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        cur = state[rows]
        jac, ok = system.jacobians(cur[:, :dim])
        if known is not None:
            jac = _deflated_jacobians(jac, cur[:, M], cur[:, DM], cur[:, PLAIN])
        # a start whose Jacobian or step fails stops (gathers only when one does)
        if not ok.all():
            active[rows] = ok
            rows, cur, jac = rows[ok], cur[ok], jac[ok]
        deltas, ok = _newton_steps(jac, cur[:, G])
        if not ok.all():
            active[rows] = ok
            rows, cur, deltas = rows[ok], cur[ok], deltas[ok]
        ng_base, steps = cur[:, NG], np.ones(rows.size)
        accepted = _block_search(cur[:, :dim], deltas, steps, _SEARCH_BLOCKS, evaluate_trials, take)
        active[rows] = accepted
        rows = rows[accepted]
        cur = state[rows]
        escaped = _row_norms(cur[:, :dim]) > 1e8
        if escaped.any():
            active[rows[escaped]] = False
            rows, cur = rows[~escaped], cur[~escaped]
        iters[rows] += 1
        polish_left[rows[below_tol[rows]]] -= 1
        better = cur[:, NG] < best[rows, NG]
        best[rows[better]] = cur[better]
    return best[:, :dim].copy(), best[:, NG].copy(), best[:, NG] <= cfg.residual_tol, iters


def _newton_iterate(
    system: _System, y0: np.ndarray, cfg: SolverConfig, known: Optional[np.ndarray] = None
) -> tuple[np.ndarray, float, bool, int]:
    """_newton_rows from one start: (best iterate, its norm, converged, iters)."""
    y, ng, converged, iters = _newton_rows(system, np.asarray(y0, dtype=float)[None], cfg, known)
    return y[0], float(ng[0]), bool(converged[0]), int(iters[0])


def _make_records(
    prob: Problem,
    xs: np.ndarray,
    residual_norms: np.ndarray,
    origins: Sequence[tuple],
    cfg: SolverConfig,
    flags: tuple = (),
    classify: bool = True,
) -> list[SolutionRecord]:
    """Records of the B flat points of xs (B, prob.dim), built in stacks.

    residual_norms are the full residual norms of the points, and origins
    their (method, start index) pairs.  One _morse_summaries call and one
    _action_values call serve all B points, and each stacked kernel gives
    every row the bits of its own call, so record b is that of x_b alone.
    Raises EvaluationError when an action is not finite.
    """
    if not len(xs):
        return []
    summaries = _morse_summaries(xs, prob) if classify else [None] * len(xs)
    actions = _action_values(xs, prob).tolist()
    records = []
    for x, res_norm, summary, action_value, (method, start_index) in zip(
        xs, residual_norms.tolist(), summaries, actions, origins
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


def _deflation_terms(
    y: np.ndarray, known: Sequence[np.ndarray], power: float, shift: float
) -> tuple[np.ndarray, np.ndarray]:
    """Deflation factors prod_i (||y_b - y_i||^-power + shift) and their
    gradients, for each row y_b of a (B, dim) array.

    known holds K >= 1 solutions, as a (K, dim) array or a sequence of
    vectors.  All B x K terms are formed at once, and each row's product
    and sum of log-gradients accumulate in the order of known, so row b is
    bitwise that of a loop over the solutions at y_b: each squared norm is
    one dot product (np.vecdot, as in core._row_dots), the powers go
    through C pow (np.float_power, as Python's ** on floats),
    multiply.reduce multiplies one term at a time and add.accumulate
    (cumsum without its wrapper) adds one at a time (add.reduce would sum
    pairwise).  The leading 0.0 + turns a -0.0 sum into +0.0, as adding to
    a zero vector does.  At a known solution the factor is inf and the
    gradient 0; those fix-ups run only when some row sits on one, which one
    nd2.all() rules out.
    """
    d = y[:, None, :] - np.asarray(known, dtype=float)
    nd2 = np.vecdot(d, d)
    hit = None if nd2.all() else (nd2 == 0.0).any(axis=1)
    if hit is not None:
        nd2[hit] = 1.0
    mi = np.float_power(nd2, -power / 2.0) + shift
    dmi = (-power * np.float_power(nd2, -power / 2.0 - 1.0))[..., None] * d
    factor = np.multiply.reduce(mi, axis=1)
    log_grad = 0.0 + np.add.accumulate(dmi / mi[..., None], axis=1)[:, -1]
    grad = factor[:, None] * log_grad
    if hit is not None:
        factor[hit] = math.inf
        grad[hit] = 0.0
    return factor, grad


def _close_rows(a: np.ndarray, known: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Distance test of a against each row of known (K, dim): (close, dist).

    close[i] is |a - known_i| <= tol * max(1, |a|, |known_i|), and dist[i]
    is |a - known_i|.  Every norm is one dot product per row (_row_norms),
    bitwise np.linalg.norm.
    """
    dist = _row_norms(a - known)
    scale = np.maximum(max(1.0, float(np.linalg.norm(a))), _row_norms(known))
    return dist <= tol * scale, dist


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
    if _close_rows(a, b[None], cfg.dedupe_tol)[0][0]:
        raise ValueError("mountain_pass endpoints must be distinct")
    system = _System(prob)
    ts = np.linspace(0.0, 1.0, _PATH_POINTS)
    path = np.array([a + t * (b - a) for t in ts])

    # each row of _action_values has action's bits at that point
    j_end = float(_action_values(np.stack((a, b)), prob).max())
    barrier_tol = 1e-9 * max(1.0, abs(j_end))
    for _ in range(10 * _MAX_ITERATIONS):
        # the endpoints never move, so only the interior is evaluated
        j_inner = _action_values(path[1:-1], prob)
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
            g = -(g_star if i == i_star else system.g_full(path[i]))  # gradient of the action
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
        polish_from = path[1 + int(np.argmax(_action_values(path[1:-1], prob)))]
    # on H_m, Newton's norm is the full residual norm, bit for bit
    x, norm, converged, _ = _newton_iterate(system, polish_from, cfg)
    if not converged or _close_rows(x, np.stack((a, b)), cfg.dedupe_tol)[0].any():
        return None
    return _make_records(prob, x[None], np.array([norm]), [("mountain_pass", None)], cfg)[0]


class SolutionSet(_Record):
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


class SweepResult(_Record):
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
    """The solutions found so far as flat stacks, so that a candidate is
    compared with all of them at once: the points x (K, prob.dim), their
    dedupe representatives (_canonical), actions and full residual norms,
    and the (method, start index) origin of each."""

    def __init__(self, prob: Problem, cfg: SolverConfig):
        self.prob, self.cfg = prob, cfg
        self.x = np.empty((0, prob.dim))
        self.canon = np.empty((0, prob.dim))
        self.actions = np.empty(0)
        self.norms = np.empty(0)
        self.origins: list[tuple] = []

    def add(self, x: np.ndarray, action_value: float, norm: float, origin: tuple) -> bool:
        """Append the point x unless it is the same solution as a known one
        (_first_match), which it then replaces if its residual norm is
        smaller.  True when x was appended."""
        canon = _canonical(x, self.prob)
        # canonicalising subtracts a constant only when F == 0, which keeps J
        i = _first_match(canon, self.canon, self.prob, self.cfg, (action_value, self.actions))
        if i is None:
            self.x, self.canon = np.vstack((self.x, x)), np.vstack((self.canon, canon))
            self.actions, self.norms = np.append(self.actions, action_value), np.append(self.norms, norm)
            self.origins.append(origin)
            return True
        if norm < self.norms[i]:
            self.x[i], self.canon[i], self.actions[i], self.norms[i] = x, canon, action_value, norm
            self.origins[i] = origin
        return False


@functools.lru_cache(maxsize=32)
def _random_starts(seed: int, starts: int, dim: int, key: int) -> tuple[np.ndarray, np.ndarray]:
    """The random starts i < starts of one stage, (indices (S,), rows (S,
    dim)), read-only and drawn once per process for each argument tuple.

    Start i is uniform in the ball of radius _START_RADIUS and is drawn
    from its own stream rng_for(seed, key, i).  A zero normal draw is
    skipped, so an index can be missing.
    """
    index, rows = [], []
    for i in range(starts):
        rng = rng_for(seed, key, i)
        v = rng.normal(size=dim)
        nv = float(np.linalg.norm(v))
        if nv != 0.0:
            index.append(i)
            rows.append(_START_RADIUS * rng.random() ** (1.0 / max(dim, 1)) * v / nv)
    index, rows = np.array(index, dtype=int), np.array(rows, dtype=float).reshape(len(index), dim)
    index.flags.writeable = rows.flags.writeable = False
    return index, rows


@np.errstate(over="ignore", invalid="ignore")
def find_multiple(
    prob: Problem,
    cfg: SolverConfig | None = None,
    subspace: str = SUBSPACE_FULL,
    extra_starts: Sequence[np.ndarray] = (),
) -> SolutionSet:
    """Multistart Newton + deflation pipeline returning a deduplicated set.

    After the zero sequence, one loop runs the stages (method, start key),
    each as one lock-step batch: "newton" from the warm extra_starts (each
    of m*n finite values) and the random starts of key 101, then up to ten
    "deflated" rounds from those of key 211 + r, against the solutions
    known when the round begins, while one is known and until a round adds
    none.  Random starts are drawn once per process (_random_starts).  A
    stage's converged candidates are verified with one residual call, their
    actions taken with one _action_values call, and each is deduplicated
    against all known solutions at once (_first_match), in start order.  A
    record's method is its stage's name, and its start_index is its pool
    position in "newton" (warm starts first) and its draw index in a round.
    The kept solutions stay flat arrays (_KnownSolutions) until one
    _make_records call builds and classifies their records.  With
    subspace="Y" the iteration runs
    on the zero-mean reduction; every candidate is still verified against
    the full residual, and reduced-critical points failing that test are
    reported, unclassified, in y_discrepancies instead of records.  Raises
    NonsmoothExponentError before any stage when some p(k) <= 1, even
    where no solution would be kept.  Overflow and invalid operations are
    not warned about for the whole call: a norm or a Jacobian that
    overflows reads as inf or NaN, which no trial accepts and which fails
    its start's step.
    """
    cfg = cfg or SolverConfig()
    if subspace not in (SUBSPACE_FULL, SUBSPACE_Y):
        raise ValueError(f"find_multiple supports subspaces H_m and Y, got {subspace!r}")
    _require_smooth(prob, "find_multiple")  # records are classified by their Hessians
    warm = [np.asarray(w, dtype=float).reshape(-1) for w in extra_starts]
    for i, w in enumerate(warm):
        if w.size != prob.dim:
            raise ValueError(f"extra_starts[{i}] has {w.size} values, not m*n = {prob.dim}")
        if not np.all(np.isfinite(w)):
            raise ValueError(f"extra_starts[{i}] is not finite")
    system = _System(prob, subspace=subspace)
    found = _KnownSolutions(prob, cfg)
    # the y-only points, with the full residual norm and origin of each
    y_only_x = np.empty((0, prob.dim))
    y_only_norms: list[float] = []
    y_only_origins: list[tuple] = []

    def handle_stage(ys: np.ndarray, start_indices: list, method: str) -> bool:
        """Verify and dedupe a stage's converged rows ys (B, dim), in start
        order; True when a solution was added.  A deflated stage's rows must
        first meet the tolerance on the undeflated reduced residual."""
        nonlocal y_only_x
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
        idx = np.flatnonzero(kept if subspace == SUBSPACE_Y else solved).tolist()
        if not idx:
            return False
        added = False
        for i, action_value in zip(idx, _action_values(xs[idx], prob).tolist()):
            origin = (method, start_indices[i])
            if solved[i]:
                added |= found.add(xs[i], action_value, full_norms[i], origin)
            elif not _close_rows(xs[i], y_only_x, cfg.dedupe_tol)[0].any():
                y_only_x = np.vstack((y_only_x, xs[i]))
                y_only_norms.append(full_norms[i])
                y_only_origins.append(origin)
        return added

    # stage 0: the zero sequence
    zero = np.zeros((1, prob.dim))
    zero_norm = float(np.linalg.norm(system.g_full(zero[0])))
    if zero_norm <= cfg.residual_tol:
        found.add(zero[0], float(_action_values(zero, prob)[0]), zero_norm, ("newton", None))

    # the other stages, one batch each
    warm_rows = system.to_reduced_rows(np.reshape(warm, (len(warm), prob.dim)))
    for method, key in [("newton", 101)] + [("deflated", 211 + r) for r in range(10)]:
        index, starts = _random_starts(cfg.seed, cfg.starts, system.dim, key)
        known = None
        if method == "newton":  # a start's index is its pool position, warm starts first
            starts, index = np.concatenate((warm_rows, starts)), np.arange(len(warm_rows) + len(starts))
        elif len(found.x) and len(starts):
            known = system.to_reduced_rows(found.x)
        else:
            break
        ys, _, converged, _ = _newton_rows(system, starts, cfg, known)
        idx = np.flatnonzero(converged)
        added = idx.size > 0 and handle_stage(ys[idx], index[idx].tolist(), method)
        if known is not None and not added:
            break

    symmetry_ok = None
    if prob.nonlinearity.even_symmetric and len(found.x):
        bar = 10.0 * cfg.residual_tol
        symmetry_ok = _sign_flip_ok(prob, found.x.reshape(-1, prob.m, prob.n), bar)

    records = _make_records(prob, found.x, found.norms, found.origins, cfg)
    records.sort(key=lambda r: (r.action_value, tuple(r.u.values.reshape(-1))))
    discrepancies = _make_records(
        prob, y_only_x, np.array(y_only_norms), y_only_origins, cfg, ("y_critical_only",), classify=False
    )
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
    is bounded by that point's record count and does not accumulate.  The
    random starts do not depend on lambda: each stage's are drawn at the
    first grid point that runs it and reused at the others.  a_estimate
    lists the maximal grid intervals on which at least three distinct
    solutions were located.  Raises ValueError before any solve unless
    every entry is finite and positive and the grid strictly increasing.
    """
    cfg = cfg or SolverConfig()
    grid = [float(v) for v in lambda_grid]
    if not grid:
        raise ValueError("lambda grid must contain positive values")
    for i, v in enumerate(grid):
        if not (math.isfinite(v) and v > 0 and (i == 0 or v > grid[i - 1])):
            raise ValueError(f"lambda grid must be finite, positive and strictly increasing; entry {i} is {v!r}")

    counts, nontrivial, min_actions, sets, failures = [], [], [], [], []
    warm: list[np.ndarray] = []
    for lam in grid:
        try:
            sol = find_multiple(prob.with_lambda(lam), cfg, subspace=subspace, extra_starts=warm)
        except (EvaluationError, np.linalg.LinAlgError) as exc:
            # a numerical failure at one grid point is reported, not fatal
            failures.append((lam, f"{type(exc).__name__}: {exc}"))
            sol = SolutionSet(records=(), subspace=subspace, seed=cfg.seed)
        else:
            warm = [r.u.flat() for r in sol.records]
        sets.append(sol)
        counts.append(len(sol.records))
        nontrivial.append(sum(1 for r in sol.records if euclidean_norm(r.u) > cfg.dedupe_tol))
        min_actions.append(min((r.action_value for r in sol.records), default=None))

    intervals, run_start = [], None
    for i, c in enumerate(counts + [0]):  # the trailing 0 closes a run at the last point
        if c >= 3 and run_start is None:
            run_start = i
        elif c < 3 and run_start is not None:
            intervals.append((grid[run_start], grid[i - 1]))
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
