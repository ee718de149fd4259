"""Solvers that locate and classify multiple critical points of the action.

The toolbox is deliberately plain: find_multiple runs damped Newton on the
residual with a finite-difference Jacobian and deflation to repel found
solutions; minimize (on a subspace, for the coercive routes) and
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
    euclidean_norm,
    in_Y,
)
from .functional import _central_difference, action, morse_summary
from .operators import residual_values

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

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        return _central_difference(self.g, y, 1e-7 * max(1.0, float(np.linalg.norm(y))))


def _newton_iterate(
    system: _System,
    y0: np.ndarray,
    cfg: SolverConfig,
    g_fn=None,
    jac_fn=None,
) -> tuple[np.ndarray, float, bool, int]:
    """Damped Newton iteration; returns (best iterate, its norm, converged, iters).

    g_fn/jac_fn override the system functions (used by deflation); the
    default is the plain residual.  A singular Jacobian falls back to the
    minimum-norm least-squares step.  The line search stops as soon as a
    trial point equals the iterate byte for byte: every shorter step gives
    the same point and the same rejection.
    """
    g_fn = g_fn or system.g
    jac_fn = jac_fn or system.jacobian
    y = np.asarray(y0, dtype=float).copy()
    try:
        g = g_fn(y)
    except EvaluationError:
        return y, math.inf, False, 0
    ng = float(np.linalg.norm(g))
    best_y, best_ng = y.copy(), ng
    it = 0
    polish_left = _POLISH_BUDGET
    while True:
        below_tol = ng <= cfg.residual_tol
        if below_tol:
            # Keep stepping past the tolerance until the iteration stalls.
            # Residuals with high-order flatness (e.g. degree-7 growth around
            # the zero solution) dip below any fixed tolerance on a whole
            # neighbourhood; only the stagnation point is the actual root.
            if polish_left <= 0:
                break
        elif it >= _MAX_ITERATIONS:
            break
        try:
            jac = jac_fn(y)
        except EvaluationError:
            break
        try:
            delta = np.linalg.solve(jac, -g)
            if not np.all(np.isfinite(delta)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            delta, *_ = np.linalg.lstsq(jac, -g, rcond=None)
        if not np.all(np.isfinite(delta)):
            break
        alpha = 1.0
        accepted = False
        y_bytes = y.tobytes()
        for _ in range(30):
            y_new = y + alpha * delta
            if y_new.tobytes() == y_bytes:
                break
            try:
                g_new = g_fn(y_new)
            except EvaluationError:
                alpha *= 0.5
                continue
            ng_new = float(np.linalg.norm(g_new))
            if ng_new < (1.0 - 1e-4 * alpha) * ng:
                y, g, ng = y_new, g_new, ng_new
                accepted = True
                break
            alpha *= 0.5
        if not accepted or float(np.linalg.norm(y)) > 1e8:
            break
        it += 1
        if below_tol:
            polish_left -= 1
        if ng < best_ng:
            best_y, best_ng = y.copy(), ng
    return best_y, best_ng, best_ng <= cfg.residual_tol, it


def _make_record(
    prob: Problem,
    x: np.ndarray,
    method: str,
    cfg: SolverConfig,
    start_index: Optional[int] = None,
    flags: tuple = (),
    classify: bool = True,
) -> SolutionRecord:
    u = PeriodicSequence.from_flat(x, prob.m, prob.n)
    res = residual_values(u, prob)
    res_norm = float(np.linalg.norm(res))
    if classify:
        summary = morse_summary(u, prob)
        morse_index = summary.morse_index
        classification = summary.classification
    else:
        morse_index = 0
        classification = "unclassified"
    return SolutionRecord(
        u=u,
        residual_norm=res_norm,
        action_value=action(u, prob),
        morse_index=morse_index,
        in_Y=in_Y(u),
        classification=classification,
        method=method,
        start_index=start_index,
        converged=res_norm <= cfg.residual_tol,
        flags=flags,
    )


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
) -> tuple[float, np.ndarray]:
    """Deflation factor prod_i (||y - y_i||^-power + shift) and its gradient.

    known holds K >= 1 solutions, as a (K, dim) array or a sequence of
    vectors.  All K terms are formed at once, and the product and the sum of
    the log-gradients accumulate in the order of known, so the result is
    bitwise that of a loop over the solutions: each squared norm is one dot
    product (the stacked matmul), the powers go through C pow
    (np.float_power, as Python's ** on floats), and cumprod/cumsum add one
    term at a time.  The leading 0.0 + turns a -0.0 sum into +0.0, as adding
    to a zero vector does.  At a known solution the factor is inf.
    """
    d = y - np.asarray(known, dtype=float)
    nd2 = (d[:, None, :] @ d[:, :, None]).reshape(-1)
    if np.any(nd2 == 0.0):
        return math.inf, np.zeros_like(y)
    mi = np.float_power(nd2, -power / 2.0) + shift
    dmi = (-power * np.float_power(nd2, -power / 2.0 - 1.0))[:, None] * d
    factor = float(np.cumprod(mi)[-1])
    log_grad = 0.0 + np.cumsum(dmi / mi[:, None], axis=0)[-1]
    return factor, factor * log_grad


def _deflated_system(system: _System, known: np.ndarray):
    """Deflated residual M(y) g(y) and its Jacobian M J + g (grad M)^T.

    known is a (K, dim) array of solutions in the system's coordinates and
    M(y) = prod_i (||y - y_i||^-power + shift), at _DEFLATION_POWER and
    _DEFLATION_SHIFT.  g_defl raises EvaluationError at a known solution, or
    so near one that M or its gradient overflows.
    Newton asks for the Jacobian at the point whose deflated residual it has
    just accepted, so the factor, its gradient and the residual of the last
    g_defl call are kept (keyed on the iterate's bytes) and reused by
    jac_defl instead of being computed again.
    """
    last: dict = {}

    def terms(y: np.ndarray):
        key = y.tobytes()
        if key not in last:
            factor, dfactor = _deflation_terms(y, known, _DEFLATION_POWER, _DEFLATION_SHIFT)
            if not (math.isfinite(factor) and np.all(np.isfinite(dfactor))):
                raise EvaluationError("deflated residual at a known solution")
            g = system.g(y)
            last.clear()
            last[key] = (factor, dfactor, g)
        return last[key]

    def g_defl(y: np.ndarray) -> np.ndarray:
        factor, _, g = terms(y)
        return factor * g

    def jac_defl(y: np.ndarray) -> np.ndarray:
        factor, dfactor, g = terms(y)
        return factor * system.jacobian(y) + np.outer(g, dfactor)

    return g_defl, jac_defl


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
    g_defl, jac_defl = _deflated_system(system, np.array(known_flat))
    x, _, converged, _ = _newton_iterate(
        system, u0.flat(), cfg, g_fn=g_defl, jac_fn=jac_defl
    )
    if not converged:
        return None
    true_norm = float(np.linalg.norm(system.g_full(x)))
    if true_norm > cfg.residual_tol:
        return None
    for yi in known_flat:
        if _same_solution(x, yi, prob, cfg):
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


def _is_duplicate(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return float(np.linalg.norm(a - b)) <= tol * scale


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


def _same_solution(
    a: np.ndarray,
    b: np.ndarray,
    prob: Problem,
    cfg: SolverConfig,
    actions: Optional[tuple[float, float]] = None,
) -> bool:
    """Dedupe test: a and b are close, or joined by a flat segment.

    actions, when given, are J(a) and J(b).  If the whole segment from a to
    b stays in {|g| <= bar}, then |J(a) - J(b)| <= bar * ||a - b|| because
    grad J = -g, so a larger action gap (beyond rounding slack) rules the
    merge out without evaluating the residual on the segment.
    """
    if _is_duplicate(a, b, cfg.dedupe_tol):
        return True
    bar = 100.0 * cfg.residual_tol
    if actions is not None:
        j_a, j_b = actions
        slack = 1e-12 * max(1.0, abs(j_a), abs(j_b))
        if abs(j_a - j_b) > bar * float(np.linalg.norm(a - b)) + slack:
            return False
    return _flat_connected(a, b, prob, bar)


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
    until a full round adds nothing.  Every record's method is "newton" or
    "deflated".  With subspace="Y" the iteration runs on the
    zero-mean reduction; every candidate is still verified against the full
    residual, and reduced-critical points failing that test are reported in
    y_discrepancies instead of records.
    """
    cfg = cfg or SolverConfig()
    if subspace not in (SUBSPACE_FULL, SUBSPACE_Y):
        raise ValueError(f"find_multiple supports subspaces H_m and Y, got {subspace!r}")
    system = _System(prob, subspace=subspace)
    records: list[SolutionRecord] = []
    discrepancies: list[SolutionRecord] = []

    def try_add(rec: SolutionRecord) -> bool:
        x = _canonical(rec.u.flat(), prob)
        for i, existing in enumerate(records):
            # canonicalising subtracts a constant only when F == 0, which keeps J
            actions = (rec.action_value, existing.action_value)
            if _same_solution(x, _canonical(existing.u.flat(), prob), prob, cfg, actions):
                if rec.residual_norm < existing.residual_norm:
                    records[i] = rec
                return False
        records.append(rec)
        return True

    def handle_candidate(y: np.ndarray, method: str, start_index=None) -> bool:
        x = system.to_full(y)
        full_norm = float(np.linalg.norm(system.g_full(x)))
        if full_norm <= cfg.residual_tol:
            return try_add(_make_record(prob, x, method, cfg, start_index=start_index))
        if subspace == SUBSPACE_Y:
            rec = _make_record(
                prob,
                x,
                method,
                cfg,
                start_index=start_index,
                flags=("y_critical_only",),
                classify=False,
            )
            for existing in discrepancies:
                if _is_duplicate(x, existing.u.flat(), cfg.dedupe_tol):
                    return False
            discrepancies.append(rec)
        return False

    # stage 0: the zero sequence
    if float(np.linalg.norm(system.g_full(np.zeros(prob.dim)))) <= cfg.residual_tol:
        try_add(_make_record(prob, np.zeros(prob.dim), "newton", cfg))

    # stage 1: warm starts (continuation) then multistart Newton
    start_pool: list[np.ndarray] = [system.to_reduced(np.asarray(w, float).reshape(-1)) for w in extra_starts]
    start_pool.extend(y0 for _, y0 in _random_starts(cfg, system.dim, 101))
    for idx, y0 in enumerate(start_pool):
        y, _, converged, _ = _newton_iterate(system, y0, cfg)
        if converged:
            handle_candidate(y, "newton", start_index=idx)

    # stage 2: deflation rounds until a round adds nothing new
    for round_no in range(10):
        added = False
        if not records:
            break
        known = np.array([system.to_reduced(r.u.flat()) for r in records])
        g_defl, jac_defl = _deflated_system(system, known)
        for i, y0 in _random_starts(cfg, system.dim, 211 + round_no):
            y, ng, converged, _ = _newton_iterate(
                system, y0, cfg, g_fn=g_defl, jac_fn=jac_defl
            )
            if not converged:
                continue
            if float(np.linalg.norm(system.g(y))) > cfg.residual_tol:
                continue
            if handle_candidate(y, "deflated", start_index=i):
                added = True
        if not added:
            break

    symmetry_ok = None
    if prob.nonlinearity.even_symmetric and records:
        symmetry_ok = True
        for rec in records:
            norm = float(np.linalg.norm(residual_values(-rec.u.values, prob)))
            if norm > 10.0 * cfg.residual_tol:
                symmetry_ok = False
                break

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
