"""Quantitative hypothesis checks, sharp constants and parameter thresholds.

Everything here is sampled or optimised numerically and reported through
CheckReport values: a verdict ("holds_on_samples", "violated" or
"inconclusive"), a worst-case margin, and a witness when a violation was
found.  A "holds_on_samples" verdict is evidence, not proof; a "violated"
verdict carries a concrete counterexample that can be replayed.

Conventions follow the labels used throughout the package:

  C.1, C.2, C.3   norm comparison inequalities on one period
  A.4, A.5        lower growth bound for large arguments / positivity near 0
  A.6.1 - A.6.3   vanishing quotients of F at the origin
  A.7, A.8, A.9   boundedness and sign conditions of F on annuli
  B.2, B.3        strict-inequality conditions on the potential over Y
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from typing import Optional, Sequence

import numpy as np

from .core import (
    EvaluationError,
    ExponentFunction,
    Nonlinearity,
    PeriodicSequence,
    Problem,
    _block_search,
    _entry_norms,
    _read_only,
    _row_dots,
    _row_norms,
    _rows,
    _shifted,
    _shifted_back,
    _stack_periods,
)
from .functional import _action_rows, _mu_values, mu, potential
from .operators import _residual_rows

HOLDS = "holds_on_samples"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

SAMPLE_SLACK = 1e-9
QUOTIENT_TOL = 1e-3


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    """Deterministic generator keyed by (seed, keys): one per sampled check,
    and one per sample of lambda_star_estimate's counter-keyed streams."""
    entropy = [int(seed) & 0xFFFFFFFF] + [int(k) & 0xFFFFFFFF for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _unit_rows(v: np.ndarray, zero_mean: bool) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a (count, *shape) stack of normals as unit vectors:
    (the unit vectors of the rows long enough to normalise, their mask).
    With zero_mean each row has its mean over its first axis removed first."""
    if zero_mean:
        v = v - v.mean(axis=1, keepdims=True)
    norms = _row_norms(v)
    kept = norms > 1e-12
    return v[kept] / norms[kept].reshape(-1, *[1] * (v.ndim - 1)), kept


def _unit_directions(
    rng: np.random.Generator, count: int, shape: tuple, zero_mean: bool = False
) -> np.ndarray:
    """count random unit vectors of the given shape, as a (count, *shape) array.

    With zero_mean each vector has its mean over its first axis removed
    before it is normalised.  The normals are drawn in one call, vectors too
    short to normalise are dropped, and the missing ones are drawn again in
    order, so the stream and values are those of count draws made one at a
    time.
    """
    out = np.empty((0, *shape))
    while len(out) < count:
        units, _ = _unit_rows(rng.normal(size=(count - len(out), *shape)), zero_mean)
        out = np.concatenate((out, units))
    return out


def _stream_directions(rngs: list, shape: tuple) -> np.ndarray:
    """One zero-mean unit vector of the given shape from each generator, as a
    (len(rngs), *shape) stack.

    Row i has the values and leaves rngs[i] where
    _unit_directions(rngs[i], 1, shape, zero_mean=True) would: each
    generator draws its normals with one call, they are normalised as one
    stack, and a generator whose vector is too short to normalise draws
    again alone.
    """
    V = np.empty((len(rngs), *shape))
    units, kept = _unit_rows(
        np.reshape([rng.normal(size=shape) for rng in rngs], V.shape), zero_mean=True
    )
    V[kept] = units
    for i in np.flatnonzero(~kept).tolist():
        V[i] = _unit_directions(rngs[i], 1, shape, zero_mean=True)[0]
    return V


@dataclasses.dataclass(frozen=True)
class CheckReport:
    """Outcome of one sampled or optimised hypothesis check."""

    name: str
    verdict: str
    margin: float
    witness: Optional[dict] = None
    samples: int = 0
    seed: Optional[int] = None
    detail: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "margin": _jsonable(self.margin),
            "witness": _jsonable(self.witness),
            "samples": self.samples,
            "seed": self.seed,
            "detail": _jsonable(self.detail),
        }


def _jsonable(obj):
    """Plain JSON types for obj: numpy values become Python ones, tuples
    become lists, and non-finite floats become "inf", "-inf" or "nan", so
    the JSON stays standard."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return obj


# ---------------------------------------------------------------------------
# Norm comparison inequalities on one period
# ---------------------------------------------------------------------------


def _inequality_report(name: str, margin: float, slack: float, witness: dict) -> CheckReport:
    """Report of one norm inequality, keeping the witness only for a violation.

    A NaN margin (both sides overflowed) decides nothing, and C.1 - C.3 are
    theorems, so it is inconclusive rather than a violation.
    """
    if math.isnan(margin):
        verdict = INCONCLUSIVE
    else:
        verdict = HOLDS if margin >= -slack else VIOLATED
    return CheckReport(name, verdict, margin, witness if verdict == VIOLATED else None, samples=1)


# The three inequalities are evaluated on a (B, m, n) stack of sequences and
# return (margins, lhs, rhs), one entry per row; every operation acts row by
# row, so row b is bitwise the check of that sequence alone.  The Euclidean
# norm takes one dot product per row (core._row_norms), as np.linalg.norm
# does, and the scalar right-hand sides use np.float_power, the C pow that
# Python's float ** calls: finite values keep their bits, and an overflow
# gives inf (or a NaN margin), not a numpy warning.


def _power_sums(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_k |u(k)|^s of each row, with exponent s[b] for row b."""
    return np.sum(np.linalg.norm(u, axis=2) ** s[:, None], axis=1)


def _c1_rows(u: np.ndarray, s: np.ndarray):
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = _power_sums(u, s)
        rhs = u.shape[1] * np.float_power(_row_norms(u), s)
        return rhs - lhs, lhs, rhs


def _c2_rows(u: np.ndarray, s: np.ndarray):
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = _power_sums(u, s)
        rhs = np.float_power(u.shape[1], (2.0 - s) / 2.0) * np.float_power(_row_norms(u), s)
        return lhs - rhs, lhs, rhs


def _c3_rows(u: np.ndarray, p: ExponentFunction):
    d = np.roll(u, -1, axis=1) - u
    pp = p.p_plus
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.sum(np.linalg.norm(d, axis=2) ** p.values, axis=1)
        rhs = u.shape[1] * (np.float_power(2.0, pp) * np.float_power(_row_norms(u), pp) + 1.0)
        return rhs - lhs, lhs, rhs


def _c_witness(u: np.ndarray, s, lhs: float, rhs: float) -> dict:
    """Witness of a C.1 - C.3 violation; s is None for C.3."""
    witness = {"u": u} if s is None else {"u": u, "s": s}
    witness.update(lhs=lhs, rhs=rhs)
    return witness


def check_c1(u: PeriodicSequence, s: float, slack: float = 1e-10) -> CheckReport:
    """sum_k |u(k)|^s <= m * ||u||^s for any s > 0."""
    if not s > 0:
        raise ValueError(f"C.1 requires s > 0, got {s}")
    margin, lhs, rhs = (x.item() for x in _c1_rows(u.values[None], np.array([s], dtype=float)))
    return _inequality_report("C.1", margin, slack, _c_witness(u.values, s, lhs, rhs))


def check_c2(u: PeriodicSequence, s: float, slack: float = 1e-10) -> CheckReport:
    """sum_k |u(k)|^s >= m^((2-s)/2) * ||u||^s for s >= 2."""
    if s < 2:
        raise ValueError(f"C.2 requires s >= 2, got {s}")
    margin, lhs, rhs = (x.item() for x in _c2_rows(u.values[None], np.array([s], dtype=float)))
    return _inequality_report("C.2", margin, slack, _c_witness(u.values, s, lhs, rhs))


def check_c3(u: PeriodicSequence, p: ExponentFunction, slack: float = 1e-10) -> CheckReport:
    """sum_k |Delta u(k)|^p(k) <= m * (2^p_plus * ||u||^p_plus + 1)."""
    if p.m != u.m:
        raise ValueError("exponent and sequence periods differ")
    margin, lhs, rhs = (x.item() for x in _c3_rows(u.values[None], p))
    return _inequality_report("C.3", margin, slack, _c_witness(u.values, None, lhs, rhs))


# ---------------------------------------------------------------------------
# Sharp discrete embedding constant on the zero-mean subspace
# ---------------------------------------------------------------------------


# The descent below works on a stack u of shape (starts, m, n); every
# reduction is taken per start, so a start's arithmetic does not depend on
# which other starts share the stack.  Its sums call np.add.reduce, the
# ufunc that np.sum and ndarray.mean call, for their bits without the cost
# of their wrappers.


def _difference_energy(u: np.ndarray, p: float) -> np.ndarray:
    return np.add.reduce(_entry_norms(_shifted(u) - u) ** p, axis=1)


def _period_means(u: np.ndarray) -> np.ndarray:
    """u.mean(axis=1, keepdims=True), bitwise: the sum over k divided by m."""
    return np.add.reduce(u, axis=1, keepdims=True) / u.shape[1]


def _difference_energy_grad(u: np.ndarray, p: float) -> np.ndarray:
    d = _shifted(u) - u
    norms = _entry_norms(d)
    with np.errstate(divide="ignore"):
        mags = np.where(norms > 0.0, norms ** (p - 2.0), 0.0)
    a = mags[:, :, None] * d
    return p * (_shifted_back(a) - a)


def _projected_gradient(u: np.ndarray, p: float) -> np.ndarray:
    """Gradient of the difference energy projected onto the sphere's tangent space."""
    g = _difference_energy_grad(u, p)
    g = g - _period_means(g)
    return g - np.add.reduce(g * u, axis=(1, 2))[:, None, None] * u


@functools.lru_cache(maxsize=16)
def _cycle_laplacian_pinv(m: int) -> np.ndarray:
    """The pseudo-inverse of the m-cycle Laplacian (2 on the diagonal, -1 on
    the cyclic neighbours), read-only, made once per m from its closed form
    (m^2 - 1) / (12 m) - d (m - d) / (2 m), d = |j - k|."""
    d = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    pinv = (m * m - 1) / (12.0 * m) - d * (m - d) / (2.0 * m)
    pinv.flags.writeable = False
    return pinv


def _sobolev_direction(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The descent direction of _xi_descent from the projected gradient g.

    L+ g - alpha L+ u, with L+ the cycle Laplacian's pseudo-inverse applied
    along k to each component and alpha = <u, L+ g> / <u, L+ u> per row: the
    gradient in the metric of D^T D (D the cyclic difference) projected onto
    the sphere's tangent space, zero-mean and orthogonal to u.  Its inner
    product with g is positive unless g = 0 (Cauchy-Schwarz in the L+ inner
    product, as g is orthogonal to u).
    """
    pinv = _cycle_laplacian_pinv(u.shape[1])
    pg, pu = pinv @ g, pinv @ u
    alpha = np.add.reduce(u * pg, axis=(1, 2)) / np.add.reduce(u * pu, axis=(1, 2))
    return pg - alpha[:, None, None] * pu


# The preconditioned direction's natural step is one over the energy's
# curvature, about 1 / (p (p - 1) (val / m)^(1 - 2/p)) near a minimiser.  It
# grows fast with p (near 1e7 at (m, n, p) = (8, 1, 20)), so the step may
# grow past 1, up to this cap.  Over m in {3, 5, 8, 12, 16, 32}, n in
# {1, 2, 3} and p in {2.5, 3, 4, 6, 20, 60}, a cap of 8 left 16 of the 108
# descents unconverged after 5000 rounds, far above the minimum; at 2^20
# all converged, in a quarter of the time.
_XI_STEP_CAP = 2.0**20

# The xi descent's Armijo trials step * 2^-j go in blocks of these sizes,
# one energy call per block.  On the descents at (8, 1, 3) and (12, 1, 3),
# 32 starts each, 2009 of 2849 accepted steps took the first trial and 772
# the second; 56 took trials 2-9 and 12 a later one.  The 64 searches that
# accept nothing (each start's last round) run down to the step floor, so
# the last block holds the rest of the ladder: a step never exceeds
# _XI_STEP_CAP, so its at most 80 trials above 1e-18 fit in the 80 of the
# blocks.
_XI_BLOCKS = (2, 8, 70)


def _xi_descent(u0: np.ndarray, p_plus: float, tol: float, max_iter: int):
    """Preconditioned gradient descent on the unit sphere of the zero-mean subspace.

    Runs every start of the stack u0 at once.  A start's direction d is its
    projected gradient g preconditioned by the inverse cycle Laplacian and
    projected back onto the sphere's tangent space (_sobolev_direction).
    The difference energy's Hessian is D^T W D, with D the cyclic
    difference and W block diagonal in k, of size about |Delta u(k)|^(p - 2),
    so along g its condition number grows like m^2, while along d it is that
    of W alone.  Each start keeps its own step size and backtracking line
    search: it tries u - t d for t = step * 2^-j in order, re-centred and
    normalised, takes the first trial below val - 1e-4 t <g, d> (Armijo's
    test), and grows its step by 1.3, up to _XI_STEP_CAP.  The trials of
    all starts still searching go through one energy call per block of
    _XI_BLOCKS (_block_search), so each start follows the iterates of its
    descent run alone bit for bit.
    A start leaves when its projected gradient meets tol, when no trial
    above step 1e-18 passes the test, or after max_iter steps.  Returns each
    start's final value and whether it converged.
    """
    # at large exponents a gradient's norm can overflow to inf, which meets
    # neither the tolerance nor the Armijo test; it is not a numpy warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = u0 - _period_means(u0)
        u = u / _row_norms(u)[:, None, None]
        val = _difference_energy(u, p_plus)
        step = np.full(len(u), 0.1)
        met_tol = np.zeros(len(u), dtype=bool)
        ids = np.arange(len(u))

        # the line search of the rows ids of a round, along -d
        def trial(k, s):
            return u[ids[k], None] - s[:, :, None, None] * d[k, None]

        def evaluate(cand, k, s):
            cand = cand - _period_means(cand)
            nc = _row_norms(cand)
            cand = cand / nc[:, None, None]
            cand_val = _difference_energy(cand, p_plus)
            return (nc > 1e-12) & (cand_val < val[ids[k]] - 1e-4 * s * slope[k]), cand, cand_val

        def take(k, s, cand, cand_val):
            i = ids[k]
            u[i], val[i], step[i] = cand, cand_val, np.minimum(s * 1.3, _XI_STEP_CAP)

        for _ in range(max_iter):
            if ids.size == 0:
                break
            g = _projected_gradient(u[ids], p_plus)
            met = _row_norms(g) <= tol
            met_tol[ids[met]] = True
            ids, g = ids[~met], g[~met]
            d = _sobolev_direction(u[ids], g)
            slope = np.add.reduce(g * d, axis=(1, 2))
            ids = ids[_block_search(step[ids], _XI_BLOCKS, trial, evaluate, take, floor=1e-18)]
        converged = met_tol.copy()
        rest = ~met_tol
        gnorm = _row_norms(_projected_gradient(u[rest], p_plus))
        # at value stagnation the projected gradient floors near
        # sqrt(eps * curvature * val); 1e-7 relative leaves the value itself
        # accurate to ~gnorm^2, far inside any tolerance used downstream
        converged[rest] = gnorm <= np.maximum(tol, 1e-7 * np.maximum(1.0, np.abs(val[rest])))
    return val, converged


def xi_constant(
    m: int,
    n: int = 1,
    p_plus: float = 2.0,
    method: str = "auto",
    starts: int = 32,
    tol: float = 1e-10,
    seed: int = 0,
    max_iter: int = 5000,
) -> float:
    """Best constant xi with sum_k |Delta u(k)|^p_plus >= xi * ||u||^p_plus on zero-mean u.

    Computed as the minimum of the difference energy over the unit sphere of
    the zero-mean subspace, by gradient descent preconditioned with the
    inverse cycle Laplacian from `starts` random starts (at least 1), all
    run at once as one stacked array, their Armijo line-search trials
    evaluated in blocks (_xi_descent).  Two cases have a closed form, which
    "auto" returns directly: for p_plus = 2 the minimum is the smallest
    nonzero eigenvalue of the cycle Laplacian, 2 - 2*cos(2*pi/m), and for
    m = 2 the sphere is u = +-(v, -v), so xi = 2^(1 + p_plus/2) at every n
    (by the descent where that overflows, from p_plus = 2046 on).  Pass
    method="optimize" to force the optimizer (the closed form then serves
    as its cross-check).  n must be >= 1 and p_plus finite and >= 1.  When
    no start meets the gradient tolerance a RuntimeWarning is issued and
    the best value found, an upper bound on the sharp constant, is
    returned.
    """
    return _xi_search(m, n, p_plus, method, starts, tol, seed, max_iter)[0]


def _xi_search(
    m: int,
    n: int = 1,
    p_plus: float = 2.0,
    method: str = "auto",
    starts: int = 32,
    tol: float = 1e-10,
    seed: int = 0,
    max_iter: int = 5000,
) -> tuple[float, bool]:
    """xi_constant's value together with whether any start converged.

    When none did, the value is only an upper bound on the sharp constant
    and a RuntimeWarning is issued, attributed to the caller's caller.
    """
    if m < 2:
        raise ValueError(f"period m must be >= 2, got {m}")
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    if not p_plus >= 1.0 or math.isinf(p_plus):
        raise ValueError(f"exponent must be finite and >= 1, got {p_plus}")
    if method not in ("auto", "optimize", "eigen"):
        raise ValueError(f"unknown method {method!r}")
    if method == "eigen" and p_plus != 2.0:
        raise ValueError("eigenvalue shortcut only applies to p_plus = 2")
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if p_plus == 2.0 and method in ("auto", "eigen"):
        return 2.0 - 2.0 * math.cos(2.0 * math.pi / m), True
    if m == 2 and method == "auto":
        # the sphere is u = +-(v, -v) with |v|^2 = 1/2, so |Delta u(k)| = sqrt(2)
        # at both k; C pow, which overflows to inf from p_plus = 2046 on
        with np.errstate(over="ignore"):
            two_point = float(np.float_power(2.0, 1.0 + p_plus / 2.0))
        if math.isfinite(two_point):
            return two_point, True

    rng = rng_for(seed, m, n)
    u0 = _unit_directions(rng, starts, (m, n), zero_mean=True)
    vals, converged = _xi_descent(u0, p_plus, tol, max_iter)
    if not converged.any():
        warnings.warn(
            "xi_constant: no start met the gradient tolerance; returning the "
            "best value found (an upper bound on the sharp constant)",
            RuntimeWarning,
            stacklevel=3,
        )
    return float(vals.min()), bool(converged.any())


# ---------------------------------------------------------------------------
# Growth / bound profiles and parameter thresholds
# ---------------------------------------------------------------------------


def _coeffs(values, m: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).reshape(-1).copy()
    if arr.size == 1:
        arr = np.full(m, arr[0])
    if arr.size != m:
        raise ValueError(f"{what} must have {m} entries, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    arr.flags.writeable = False
    return arr


@dataclasses.dataclass(frozen=True)
class GrowthProfile:
    """Coefficients of the large-argument lower growth bound of F.

    Encodes  F(k, u1, u2) >= alpha1(k)|u1|^s(k) + alpha2(k)|u2|^r(k) + alpha3(k)
    for |u1|, |u2| >= M, together with the near-origin positivity radius eta
    (F >= 0 whenever |u1| + |u2| <= 2*eta).

    alpha1 and alpha2 are nonnegative; a vanishing entry is legal but makes
    the associated thresholds infinite, so construction flags it with a
    warning rather than an error.
    """

    m: int
    M: float
    eta: float
    alpha1: np.ndarray
    alpha2: np.ndarray
    alpha3: np.ndarray
    s: ExponentFunction
    r: ExponentFunction

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("period m must be >= 2")
        if not self.M > 0:
            raise ValueError(f"M must be positive, got {self.M}")
        if not (0.0 < self.eta <= 0.5):
            raise ValueError(f"eta must lie in (0, 1/2], got {self.eta}")
        for attr in ("alpha1", "alpha2", "alpha3"):
            object.__setattr__(self, attr, _coeffs(getattr(self, attr), self.m, attr))
        if np.any(self.alpha1 < 0) or np.any(self.alpha2 < 0):
            raise ValueError("alpha1 and alpha2 must be nonnegative")
        if self.s.m != self.m or self.r.m != self.m:
            raise ValueError("exponent profiles must share the period m")
        if self.s.p_minus <= 1.0 or self.r.p_minus <= 1.0:
            raise ValueError("growth exponents must exceed 1")
        if not self.positive:
            warnings.warn(
                "growth profile has a vanishing alpha lower bound; the "
                "derived lambda thresholds will be infinite",
                RuntimeWarning,
                stacklevel=2,
            )

    @property
    def positive(self) -> bool:
        return bool(np.all(self.alpha1 > 0) and np.all(self.alpha2 > 0))

    @property
    def alpha1_min(self) -> float:
        return float(self.alpha1.min())

    @property
    def alpha2_min(self) -> float:
        return float(self.alpha2.min())


@dataclasses.dataclass(frozen=True)
class BoundProfile:
    """Radii and bound for the sign conditions of a bounded potential.

    F <= C everywhere; F < 0 on the punctured box 0 < |u1|, |u2| <= rho1;
    F > 0 on the annulus rho2 < |u1|, |u2| <= rho3.  C and the radii must
    be finite.
    """

    C: float
    rho1: float
    rho2: float
    rho3: float

    def __post_init__(self):
        if not 0.0 < self.C < math.inf:
            raise ValueError(f"C must be finite and positive, got {self.C}")
        if not (0.0 < self.rho1 < self.rho2 <= self.rho3 < math.inf):
            raise ValueError(
                f"radii must satisfy 0 < rho1 < rho2 <= rho3 < inf, got "
                f"({self.rho1}, {self.rho2}, {self.rho3})"
            )


@dataclasses.dataclass(frozen=True)
class Thresholds:
    """Lambda thresholds and constants derived from a problem and its profile."""

    lambda1: float
    lambda2: float
    lambda3: float
    xi: float
    # False when xi's descent did not converge and xi is only an upper bound
    xi_converged: bool = True


def thresholds(prob: Problem, growth: GrowthProfile) -> Thresholds:
    """Sufficient lambda thresholds from the growth profile.

    lambda_i = 2^p_plus * m^(p_plus/2) / (p_minus * a) with a the relevant
    minimum of alpha1, alpha2 or their sum; infinite when a vanishes.  Also
    computes the sharp embedding constant xi with xi_constant's defaults
    (2 - 2*cos(2*pi/m) in closed form at p_plus = 2 and 2^(1 + p_plus/2) at
    m = 2, otherwise a 32-start descent preconditioned with the inverse
    cycle Laplacian, run on all starts at once, its Armijo trials tried in
    blocks, see _xi_descent).  `pklap check` takes xi from here rather than
    computing it a second time.  When no start of the descent converges, xi
    is only an upper bound on the sharp constant: a RuntimeWarning is
    issued and xi_converged is False.
    """
    pp = prob.exponent.p_plus
    pm = prob.exponent.p_minus
    # C pow, so a huge p_plus gives an infinite threshold instead of raising
    with np.errstate(over="ignore"):
        num = float(np.float_power(2.0, pp) * np.float_power(prob.m, pp / 2.0))

    def ratio(denom: float) -> float:
        return num / (pm * denom) if denom > 0.0 else math.inf

    a1 = growth.alpha1_min
    a2 = growth.alpha2_min
    xi, xi_converged = _xi_search(prob.m, prob.n, pp)
    return Thresholds(
        lambda1=ratio(a1),
        lambda2=ratio(a2),
        lambda3=ratio(a1 + a2),
        xi=xi,
        xi_converged=xi_converged,
    )


# ---------------------------------------------------------------------------
# Sampled checks of the growth and bound conditions
# ---------------------------------------------------------------------------


def _signed_points(rng: np.random.Generator, mags: np.ndarray, n: int) -> np.ndarray:
    """Points of the Euclidean magnitudes mags, as a (*mags.shape, n) array.

    The orientations take one draw call, in the C order of mags: a sign per
    point at n = 1 (+ where a uniform falls below 1/2), a random unit
    direction per point at n > 1 (_unit_directions).
    """
    if n == 1:
        return (mags * np.where(rng.random(mags.shape) < 0.5, 1.0, -1.0))[..., None]
    return mags[..., None] * _unit_directions(rng, mags.size, (n,)).reshape(*mags.shape, n)


def _signed_samples(nl: Nonlinearity, rng: np.random.Generator, count: int, magnitudes):
    """count samples of a condition whose points have random magnitudes and orientations.

    Draws the periods K with one rng.integers call, a (2, count) block D of
    uniforms with one rng.random call, and points of the magnitudes mags =
    magnitudes(D) (row 0 for u1, row 1 for u2) with one _signed_points call:
    the same calls at every n and every count.  Returns (K, mags, U), U the
    (2, count, n) stack of u1 and u2.
    """
    K = rng.integers(1, nl.m + 1, size=count)
    mags = magnitudes(rng.random((2, count)))
    return K, mags, _signed_points(rng, mags, nl.n)


def _sampled_condition(
    name: str, nl: Nonlinearity, K: np.ndarray, U: np.ndarray, seed: int, margin
) -> CheckReport:
    """Shared evaluation step of A.4, A.5 and A.7 - A.9.

    K holds the drawn periods and U the (2, count, n) stack of the drawn
    points u1 and u2.  F is evaluated on all samples with one F_many call,
    and margin(F) -> (margins, {field: values}) gives the per-sample margins
    and witness fields.  The worst margin is the first minimum; NaN margins
    are ignored.  The condition holds when the worst margin is >=
    -SAMPLE_SLACK, and a violation carries its sample as the witness.  An
    overflow shows as an inf or NaN margin, not as a numpy warning.  When
    every margin is NaN no sample decided the condition: the verdict is
    inconclusive and the margin stays inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals, fields = margin(nl.F_many(K, U[0], U[1]))
    undecided = np.isnan(vals)
    candidates = np.where(undecided, math.inf, vals)
    i = int(np.argmin(candidates))
    worst = math.inf
    witness = None
    if candidates[i] < math.inf:
        worst = float(vals[i])
        witness = {"k": int(K[i]), "u1": U[0, i].copy(), "u2": U[1, i].copy()}
        witness.update({key: float(v[i]) for key, v in fields.items()})
    if undecided.all():
        verdict = INCONCLUSIVE
    else:
        verdict = HOLDS if worst >= -SAMPLE_SLACK else VIOLATED
    return CheckReport(
        name,
        verdict,
        worst,
        witness if verdict == VIOLATED else None,
        samples=len(K),
        seed=seed,
    )


def check_growth(
    nl: Nonlinearity,
    g: GrowthProfile,
    sample_budget: int = 4000,
    seed: int = 0,
) -> list[CheckReport]:
    """Sampled verification of A.4, A.5 and the quotient limits A.6.1 - A.6.3.

    Each condition draws from its own seeded generator.  A.4 and A.5 draw
    all their periods, magnitudes and orientations with one array call each
    (_signed_samples), the same calls at every n, and evaluate F on them
    with one Nonlinearity.F_many call.  A.6.x draws each shell's t values,
    signs (n = 1) or directions (n > 1) with one call each, and evaluates F
    with one F_many call per variant.  The bound of A.4 and the quotient
    denominators are computed with C pow, as Python's ** does, so the
    margins are bitwise those of a point-by-point loop over the same
    samples.
    """
    if nl.m != g.m:
        raise ValueError("nonlinearity and profile periods differ")
    m, n = nl.m, nl.n
    count = max(sample_budget, 100)

    # A.4: lower growth bound for |u1|, |u2| >= M.
    K, mags, U = _signed_samples(nl, rng_for(seed, 4), count, lambda D: g.M + 10.0 * D)

    def margin_a4(F):
        i = K - 1
        bound = (
            g.alpha1[i] * np.float_power(mags[0], g.s.values[i])
            + g.alpha2[i] * np.float_power(mags[1], g.r.values[i])
            + g.alpha3[i]
        )
        return F - bound, {"F": F, "bound": bound}

    reports = [_sampled_condition("A.4", nl, K, U, seed, margin_a4)]

    # A.5: F >= 0 on |u1| + |u2| <= 2*eta; D[0] draws the sum, D[1] its split.
    K, _, U = _signed_samples(
        nl, rng_for(seed, 5), count, lambda D: 2.0 * g.eta * D[0] * np.stack((D[1], 1.0 - D[1]))
    )
    reports.append(_sampled_condition("A.5", nl, K, U, seed, lambda F: (F, {"F": F})))

    # A.6.x: quotients of F against mixed powers must vanish at the origin.
    variants = [
        ("A.6.1", g.s.p_plus, g.r.p_minus),
        ("A.6.2", g.s.p_minus, g.r.p_plus),
        ("A.6.3", g.s.p_minus, g.r.p_minus),
    ]
    shells = [10.0**-j for j in range(1, 9)]
    per_shell = max(sample_budget // (8 * 4), 8)
    rows = (per_shell + 3) * m  # samples per shell
    for tag, e1, e2 in variants:
        rng = rng_for(seed, 6, int(e1 * 1000), int(e2 * 1000))
        K = np.tile(np.arange(1, m + 1), len(shells) * (per_shell + 3))
        U1 = np.empty((K.size, n))
        U2 = np.empty((K.size, n))
        T = np.empty(K.size)
        for j, shell in enumerate(shells):
            # each t is shared by m samples, and each sample's u1 is drawn
            # before its u2
            t = np.repeat(np.concatenate(([0.0, 0.5, 1.0], rng.random(per_shell))), m)
            points = _signed_points(rng, np.stack((t * shell, (1.0 - t) * shell), axis=1), n)
            block = slice(j * rows, (j + 1) * rows)
            U1[block], U2[block], T[block] = points[:, 0], points[:, 1], t
        S = np.repeat(shells, rows)
        denom = np.float_power(T * S, e1) + np.float_power((1.0 - T) * S, e2)
        kept = ~(denom <= 0.0)
        q = np.zeros(K.size)
        q[kept] = np.abs(nl.F_many(K[kept], U1[kept], U2[kept])) / denom[kept]
        q[np.isnan(q)] = 0.0
        trajectory = []
        last_witness = None
        for j, shell in enumerate(shells):
            # the first largest quotient of the shell, if it is positive
            w = j * rows + int(np.argmax(q[j * rows : (j + 1) * rows]))
            trajectory.append(float(q[w]))
            last_witness = None
            if q[w] > 0.0:
                last_witness = {
                    "k": int(K[w]),
                    "u1": U1[w].copy(),
                    "u2": U2[w].copy(),
                    "quotient": float(q[w]),
                    "shell": shell,
                }
        final = trajectory[-1]
        verdict = HOLDS if final <= QUOTIENT_TOL else VIOLATED
        reports.append(
            CheckReport(
                tag,
                verdict,
                QUOTIENT_TOL - final,
                last_witness if verdict == VIOLATED else None,
                samples=len(shells) * rows,
                seed=seed,
                detail={"shell_quotients": trajectory},
            )
        )
    return reports


def check_bounds(
    nl: Nonlinearity,
    b: BoundProfile,
    sample_budget: int = 4000,
    seed: int = 0,
    box_halfwidth: float = 1e3,
) -> list[CheckReport]:
    """Sampled verification of the bound and sign conditions A.7 - A.9.

    Sign conditions are checked up to a small slack, so a potential that
    merely touches zero on the sampled region still passes.  Each condition
    draws from its own seeded generator: its periods, its magnitudes or box
    coordinates, and its orientations with one array call each, the same
    calls at every n (_signed_samples; A.7 draws its box with one
    rng.uniform call, which raises OverflowError on an infinite box).  F is
    evaluated on each condition's samples with one Nonlinearity.F_many call.
    """
    count = max(sample_budget, 100)

    # A.7: F <= C on a large box.
    rng = rng_for(seed, 7)
    K = rng.integers(1, nl.m + 1, size=count)
    U = rng.uniform(-box_halfwidth, box_halfwidth, size=(2, count, nl.n))
    a7 = _sampled_condition("A.7", nl, K, U, seed, lambda F: (b.C - F, {"F": F}))

    # A.8: F < 0 for 0 < |u1|, |u2| <= rho1.
    K, _, U = _signed_samples(nl, rng_for(seed, 8), count, lambda D: b.rho1 * (1.0 - D * 0.999999))
    a8 = _sampled_condition("A.8", nl, K, U, seed, lambda F: (-F, {"F": F}))

    # A.9: F > 0 for rho2 < |u1|, |u2| <= rho3.
    K, _, U = _signed_samples(
        nl, rng_for(seed, 9), count, lambda D: b.rho2 + (b.rho3 - b.rho2) * (1.0 - D * 0.999999)
    )
    return [a7, a8, _sampled_condition("A.9", nl, K, U, seed, lambda F: (F, {"F": F}))]


# ---------------------------------------------------------------------------
# Anti-coercivity probe along rays
# ---------------------------------------------------------------------------


def _action_or_limit_rows(x: np.ndarray, prob: Problem) -> np.ndarray:
    """The action at each flat point of x, with an overflowing term replaced by its limit.

    mu >= 0, so its overflow gives +inf (no decrease); an overflowing
    potential with a finite mu gives -inf.  Finite values are mu + lam *
    potential, the expression of action, so they keep action's bits.  All
    points go through one _action_rows call.
    """
    mus, pots, mu_ok, pot_ok = _action_rows(x.reshape(-1, prob.m, prob.n), prob)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = mus + prob.lam * pots
    return np.where(mu_ok, np.where(pot_ok, vals, -math.inf), math.inf)


def _finite_action_residual(u: np.ndarray, prob: Problem):
    """(action, residual) of a (B, m, n) stack of finite sequences; the
    residual is None when a coupling kernel raises."""
    m, n = prob.m, prob.n
    nl, p = prob.nonlinearity, prob.exponent.values
    K, K_prev = _stack_periods(m, len(u))
    flat = (K.size, n)
    up = _shifted(u)  # row k-1 holds u(k+1)
    up.flags.writeable = False
    d = up - u  # row k-1 holds Delta u(k)
    norms = _entry_norms(d)
    # mu + lam * potential, the terms of _action_rows
    mus = np.add.reduce(norms**p / p, axis=1)
    F = _rows(nl._kernels[0](K, up.reshape(flat), u.reshape(flat)), (K.size,), "F")
    pots = np.subtract.reduce(F.reshape(len(u), m), axis=1, initial=0.0)
    action = mus + prob.lam * pots
    if not np.isfinite(action).all():
        action = np.where(np.isfinite(mus), np.where(np.isfinite(pots), action, -math.inf), math.inf)
    try:
        a = nl._kernels[1](K_prev, u.reshape(flat), _shifted_back(u).reshape(flat))
        b = nl._kernels[2](K, up.reshape(flat), u.reshape(flat))
        coupling = (_rows(a, flat, "F2_prime") + _rows(b, flat, "F3_prime")).reshape(u.shape)
    except Exception:  # left to _residual_rows, which raises it again
        return action, None
    # phi(Delta u(k)) - phi(Delta u(k-1)) + lam f, the terms of _residual_rows
    phi = np.where(norms > 0.0, norms ** (p - 2.0), 0.0)[..., None] * d
    return action, phi - _shifted_back(phi) + prob.lam * coupling


def _action_residual_rows(x: np.ndarray, prob: Problem):
    """_action_or_limit_rows and _residual_rows of the flat points x in one pass.

    Returns (vals, r, ok): vals as _action_or_limit_rows gives them, and r
    and ok as _residual_rows gives them, r as (B, dim), each row bitwise
    the same.  The pass checks the input once, takes the forward
    differences and their norms once for mu and phi, and calls the
    family's F, F2 and F3 kernels once each on the periods of
    _stack_periods; rows with a non-finite input never reach them.  F's
    errors are raised as _action_or_limit_rows raises them; when a coupling
    kernel raises, r and ok are None and the caller evaluates the residuals
    it needs with _residual_rows, which raises that error again.  Callers
    evaluate it under np.errstate, as the ascent does: an overflow shows in
    the values and in ok, and is not meant as a warning.
    """
    vals = _read_only(x).reshape(-1, prob.m, prob.n)
    finite = np.isfinite(vals.reshape(len(vals), prob.dim)).all(axis=1)
    if finite.all():
        action, r = _finite_action_residual(vals, prob)
    else:
        # a non-finite input has no decrease and no residual
        action, r = np.full(len(vals), math.inf), np.full(vals.shape, np.nan)
        if finite.any():
            action[finite], part = _finite_action_residual(_read_only(vals[finite]), prob)
            if part is None:
                r = None
            else:
                r[finite] = part
    if r is None:
        return action, None, None
    r = r.reshape(len(vals), prob.dim)
    return action, r, finite & np.isfinite(r).all(axis=1)


# The ascent's iteration cap, and its line search's trials step * 2^-j,
# tried in blocks of these sizes: every row still searching puts its next
# block into one _action_residual_rows call.  A step never exceeds 1, so
# its at most 54 trials above 1e-16 fit in the 62 of the blocks.  A row
# stops once it takes a trial that raises J by at most
# _ASCENT_RISE_RTOL * max(1, |J|), about the rounding of J: on example1 the
# rows would otherwise creep on to the cap with steps near 1e-13.  At 0.0
# no rise stops a row.
_ASCENT_MAX_ITER = 400
_ASCENT_BLOCKS = (2, 4, 8, 16, 32)
_ASCENT_RISE_RTOL = 1e-14


def _ascend_rows(D0: np.ndarray, prob: Problem, t_last: float) -> np.ndarray:
    """Gradient ascent of d -> action(t_last * d) over the unit sphere, from each row of D0.

    Used to hunt for worst-case directions where the action fails to fall
    off; random directions almost surely miss them when they form a
    measure-zero set.  All rows of the (S, dim) stack ascend in lock step,
    each with its own step, value and active flag.  Each round's line
    search (_block_search) evaluates the trials of every row still
    searching in one _action_residual_rows call per block of
    _ASCENT_BLOCKS, and each row keeps the residual of the trial it takes,
    so the next round needs no residual call of its own.  Only where a
    coupling kernel raised inside a block does the next round evaluate the
    residuals of the rows that took a trial of that block, in one
    _residual_rows call, whose EvaluationError ends the ascent of every
    row.  Row i tries d_i + s g_i / |g_i|, normalised, for s =
    step_i * 2^-j while s > 1e-16, moves to its first trial above its
    value, and sets its step to min(1.5 s, 1).  Dots and norms are one dot
    product per row (_row_dots, _row_norms), so each row follows the
    iterates of the ascent run alone bit for bit.  Where |g_i| overflows,
    g_i is first divided by its largest |entry|.  A row stops when its
    residual fails, when its projected gradient is below 1e-10 max(1, |J|),
    when no trial above step 1e-16 increases J, when the trial it takes
    raises J by at most _ASCENT_RISE_RTOL max(1, |J|) (it stalls there,
    keeping that trial), or after _ASCENT_MAX_ITER rounds.  Returns the
    final directions as an (S, dim) array.
    """
    # the probe reports the values the rows reach, not overflow warnings
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):

        def values(x):
            # (action, residual, state): state is 1 where the residual is
            # finite, 0 where it is not, and -1 where a coupling kernel
            # raised, so that the residual is still to be evaluated
            vals, r, ok = _action_residual_rows(x, prob)
            if r is None:
                return vals, np.empty(x.shape), np.full(len(x), -1, dtype=np.int8)
            return vals, r, ok.view(np.int8)

        d = D0 / _row_norms(D0)[:, None]
        val, res, state = values(t_last * d)
        step = np.full(len(d), 0.1)
        stalled = np.zeros(len(d), dtype=bool)
        ids = np.arange(len(d))  # the rows still ascending

        # the line search of the rows ids of a round, along g / gnorm
        def trial(k, s):
            return d[ids[k], None] + s[:, :, None] * g[k, None] / gnorm[k, None, None]

        def evaluate(cand, k, s):
            cand = cand / _row_norms(cand)[:, None]
            cand_val, *residual = values(t_last * cand)
            return cand_val > val[ids[k]], cand, cand_val, *residual

        def take(k, s, cand, cand_val, r, st):
            i = ids[k]
            stalled[i] = cand_val - val[i] <= _ASCENT_RISE_RTOL * np.maximum(1.0, np.abs(val[i]))
            d[i], val[i], step[i] = cand, cand_val, np.minimum(s * 1.5, 1.0)
            res[i], state[i] = r, st

        for _ in range(_ASCENT_MAX_ITER):
            if ids.size == 0:
                break
            missing = ids[state[ids] < 0]
            if missing.size:
                try:
                    r, ok = _residual_rows((t_last * d[missing]).reshape(-1, prob.m, prob.n), prob)
                except EvaluationError:  # a malformed callback value fails every row
                    break
                res[missing], state[missing] = r.reshape(len(missing), prob.dim), ok
            ids = ids[state[ids] > 0]
            dk = d[ids]
            g = -t_last * res[ids]
            g = g - _row_dots(g, dk)[:, None] * dk
            gnorm = _row_norms(g)
            flat = gnorm <= 1e-10 * np.maximum(1.0, np.abs(val[ids]))
            ids, g, gnorm = ids[~flat], g[~flat], gnorm[~flat]
            # an overflowing |g| would make every step 0 and stall the row
            big = np.isinf(gnorm)
            if big.any():
                g[big] /= np.abs(g[big]).max(axis=1)[:, None]
                gnorm[big] = _row_norms(g[big])
            ids = ids[_block_search(step[ids], _ASCENT_BLOCKS, trial, evaluate, take, floor=1e-16)]
            ids = ids[~stalled[ids]]
    return d


def anticoercivity_probe(
    prob: Problem,
    directions: int = 32,
    radii: Sequence[float] = (1.0, 10.0, 100.0, 1000.0),
    seed: int = 0,
    drop_margin: float = 1.0,
    optimize_worst: bool = False,
) -> CheckReport:
    """Probe whether the action falls off to -infinity along rays.

    Evaluates the action at t*d for each sampled unit direction d and the
    given increasing radii t, all in one stacked call.  A direction passes
    when the values strictly decrease from the second radius onward and the
    last value undercuts the first by drop_margin.  Overflow of the potential at large radii counts
    as decrease (the ray provides -infinity evidence); overflow of the
    Dirichlet term mu does not.  detail["overflow"] reports whether any
    value was non-finite.

    With optimize_worst the direction pool is augmented by gradient-ascent
    maximisation of the terminal value from the four directions with the
    highest terminal values, all four ascending at once (_ascend_rows),
    which can expose rays of non-decrease that random sampling almost never
    hits.  An ascent also stops at its first rise within the rounding of J
    (_ASCENT_RISE_RTOL), so an ascended ray is where it stalled, not
    necessarily a local maximum.  The ascended rays follow the sampled
    ones, and the report stops at its first failing ray, so the ascent runs
    only when every sampled ray passes; samples counts the ascended rays
    either way.  Raises ValueError
    when the radii are not finite and strictly increasing or when
    directions is negative.
    """
    radii = [float(t) for t in radii]
    if (
        len(radii) < 2
        or not all(math.isfinite(t) for t in radii)
        or any(b <= a for a, b in zip(radii, radii[1:]))
    ):
        raise ValueError("radii must be finite and strictly increasing with at least two entries")
    if directions < 0:
        raise ValueError(f"directions must be >= 0, got {directions}")
    rng = rng_for(seed, 17)
    sampled = _unit_directions(rng, directions, (prob.m, prob.n)).reshape(-1, prob.dim)
    samples = directions + (min(directions, 4) if optimize_worst else 0)

    def table(D):
        return _action_or_limit_rows(
            np.array(radii)[None, :, None] * D[:, None, :], prob
        ).reshape(len(D), len(radii))

    def pool():
        # the report stops at its first failing ray, so the ascended rays,
        # which follow the sampled ones, are made only when all of those pass
        values = table(sampled)
        yield from zip(sampled, values)
        if optimize_worst and directions:
            terminal = values[:, -1].tolist()
            ranked = sorted(range(directions), key=lambda i: -terminal[i])
            ascended = _ascend_rows(sampled[ranked[:4]], prob, radii[-1])
            yield from zip(ascended, table(ascended))

    def decreases(a: float, c: float) -> bool:
        if c == -math.inf:
            return True
        return c < a

    worst_margin = math.inf
    overflow = False
    for idx, (d, row) in enumerate(pool()):
        vals = row.tolist()
        overflow = overflow or not all(math.isfinite(v) for v in vals)
        tail_ok = all(decreases(vals[i], vals[i + 1]) for i in range(1, len(vals) - 1))
        drop = vals[0] - vals[-1] - drop_margin
        if not tail_ok or not drop > 0.0:
            return CheckReport(
                "anticoercivity",
                VIOLATED,
                min(worst_margin, drop if math.isfinite(drop) else 0.0),
                witness={
                    "direction": d.copy(),
                    "radii": list(radii),
                    "values": vals,
                    "optimized": idx >= directions,
                },
                samples=samples,
                seed=seed,
                detail={"overflow": overflow},
            )
        worst_margin = min(worst_margin, drop)
    return CheckReport(
        "anticoercivity",
        HOLDS,
        worst_margin,
        None,
        samples=samples,
        seed=seed,
        detail={"overflow": overflow},
    )


# ---------------------------------------------------------------------------
# Strict-inequality conditions on the potential over the zero-mean subspace
# ---------------------------------------------------------------------------


# Brent's root finder (Brent, Algorithms for Minimization Without
# Derivatives, 1973, ch. 4) as scipy.optimize.brentq runs it, with xtol
# 1e-14 and brentq's defaults: rtol 4 * eps and at most 100 iterations.
_BRENT_XTOL = 1e-14
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100

# the outcome of each row of _brentq_rows
_CONVERGED, _NONFINITE, _CONVERR, _SIGNERR = 0, 1, 2, 3


def _brentq_rows(f, xa: np.ndarray, xb: np.ndarray, maxiter: int = _BRENT_MAXITER):
    """Brent roots of S scalar functions, function i on the bracket [xa[i], xb[i]].

    f(x, rows) returns the value of function rows[j] at x[j] for each j.
    The rows run in lock step: every round calls f once, on the rows that
    still iterate.  Each row follows the arithmetic of scipy's C brentq on
    that row alone, so its iterates, and its root, are bit for bit those of
    scipy.optimize.brentq(f_i, xa[i], xb[i], xtol=1e-14).  Returns (roots,
    status); status[i] is _CONVERGED, _SIGNERR when f_i(xa[i]) and
    f_i(xb[i]) have the same sign (root 0, as brentq returns before it
    raises), _CONVERR after maxiter iterations (root is the last iterate),
    or _NONFINITE when a value of f_i is not finite, where the caller's f
    would raise (root NaN).
    """
    xa, xb = np.asarray(xa, dtype=float), np.asarray(xb, dtype=float)
    S = len(xa)
    roots = np.full(S, np.nan)
    status = np.full(S, _CONVERGED, dtype=np.int8)
    if not S:
        return roots, status
    ends = f(np.concatenate((xa, xb)), np.concatenate((np.arange(S), np.arange(S))))
    fpre, fcur = ends[:S], ends[S:]
    bad = ~(np.isfinite(fpre) & np.isfinite(fcur))
    status[bad] = _NONFINITE
    at_a = ~bad & (fpre == 0.0)
    at_b = ~bad & ~at_a & (fcur == 0.0)
    same = ~(bad | at_a | at_b) & (np.signbit(fpre) == np.signbit(fcur))
    roots[at_a], roots[at_b], roots[same] = xa[at_a], xb[at_b], 0.0
    status[same] = _SIGNERR
    live = ~(bad | at_a | at_b | same)
    ids, xpre, xcur, fpre, fcur = np.flatnonzero(live), xa[live], xb[live], fpre[live], fcur[live]
    xblk, fblk, spre, scur = (np.zeros(len(ids)) for _ in range(4))
    with np.errstate(all="ignore"):
        for _ in range(maxiter):
            if not len(ids):
                break
            flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
            xblk = np.where(flip, xpre, xblk)
            fblk = np.where(flip, fpre, fblk)
            spre = np.where(flip, xcur - xpre, spre)
            scur = np.where(flip, spre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
            fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)

            delta = (_BRENT_XTOL + _BRENT_RTOL * np.abs(xcur)) / 2.0
            sbis = (xblk - xcur) / 2.0
            done = (fcur == 0.0) | (np.abs(sbis) < delta)
            roots[ids[done]] = xcur[done]
            go = ~done
            ids, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                a[go] for a in (ids, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis)
            )

            # interpolate where the previous point is the block point,
            # otherwise extrapolate; keep the step if it is short enough
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk,
                -fcur * (xcur - xpre) / (fcur - fpre),
                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)),
            )
            lim_pre, lim_bis = np.abs(spre), 3.0 * np.abs(sbis) - delta
            short = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
            short &= 2.0 * np.abs(stry) < np.where(lim_pre < lim_bis, lim_pre, lim_bis)
            spre = np.where(short, scur, sbis)
            scur = np.where(short, stry, sbis)

            xpre, fpre = xcur, fcur
            xcur = np.where(np.abs(scur) > delta, xcur + scur, xcur + np.where(sbis > 0.0, delta, -delta))
            fcur = f(xcur, ids)
            bad = ~np.isfinite(fcur)
            status[ids[bad]] = _NONFINITE
            go = ~bad
            ids, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = (
                a[go] for a in (ids, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur)
            )
    roots[ids] = xcur
    status[ids] = _CONVERR
    return roots, status


def _mu_rows(stack: np.ndarray, prob: Problem) -> np.ndarray:
    """mu of each row of a (B, m, n) stack, inf where it is not finite.

    The formula of mu (functional._mu_values), so a finite row is bitwise
    mu of that row alone; F is never called.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _mu_values(stack, _shifted(stack), prob)
    return np.where(np.isfinite(vals), vals, math.inf)


def _level_radii(prob: Problem, V: np.ndarray, r: float) -> tuple[np.ndarray, dict]:
    """t > 0 with mu(t * V[i]) = r for each row of a (S, m, n) stack V of
    nonzero zero-mean directions, all rows in lock step.

    Per row, the bracket's top doubles from t = 1 until mu(t * v) >= r, a
    non-finite mu counting as inf.  Where mu overflows at the top, the top
    is bisected toward the last t below r until mu is finite there.  Then
    Brent's method (_brentq_rows) finds the root on [0, top].  Every round
    evaluates mu once, over the rows still live.  Returns (radii, errors):
    errors maps each row that failed to the exception it fails with (its
    radius is NaN), an EvaluationError when the top passes 1e12, when the
    bisected ends meet, or when mu is not finite inside Brent's bracket.
    Each row's radius and error are those it gets alone.
    """
    S = len(V)
    t_lo, t_hi = np.zeros(S), np.ones(S)
    val = _mu_rows(t_hi[:, None, None] * V, prob)
    errors: dict = {}
    live = np.flatnonzero((val < r) | (val == math.inf))
    while live.size:
        grow = live[val[live] < r]
        t_lo[grow] = t_hi[grow]
        t_hi[grow] *= 2.0
        for i in grow[t_hi[grow] > 1e12].tolist():
            errors[i] = EvaluationError("could not bracket the sublevel radius")
        grow = grow[t_hi[grow] <= 1e12]
        split = live[val[live] == math.inf]
        mid = 0.5 * (t_lo[split] + t_hi[split])
        met = ~((t_lo[split] < mid) & (mid < t_hi[split]))
        for i in split[met].tolist():
            errors[i] = EvaluationError("mu overflows on every bracket of the sublevel radius")
        split, mid = split[~met], mid[~met]
        t = np.concatenate((t_hi[grow], mid))
        vals = _mu_rows(t[:, None, None] * V[np.concatenate((grow, split))], prob)
        val[grow] = vals[: len(grow)]
        mid_val = vals[len(grow) :]
        below = mid_val < r
        t_lo[split[below]] = mid[below]
        t_hi[split[~below]] = mid[~below]
        val[split[~below]] = mid_val[~below]
        live = np.concatenate((grow, split))
        live = live[(val[live] < r) | (val[live] == math.inf)]

    radii = np.full(S, np.nan)
    solved = np.ones(S, dtype=bool)
    solved[list(errors)] = False
    exact = solved & (val == r)
    radii[exact] = t_hi[exact]
    rows = np.flatnonzero(solved & ~exact)
    W = V[rows]
    # f(0) = -r < 0 < f(top) on every row, so no row ends with _SIGNERR
    roots, status = _brentq_rows(
        lambda x, ids: _mu_rows(x[:, None, None] * W[ids], prob) - r, np.zeros(len(rows)), t_hi[rows]
    )
    radii[rows] = np.where(status == _CONVERGED, roots, np.nan)
    for i, s in zip(rows.tolist(), status.tolist()):
        if s == _NONFINITE:
            errors[i] = EvaluationError("mu evaluated to a non-finite value")
        elif s == _CONVERR:
            errors[i] = RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")
    return radii, errors


def _stack_values(stack: np.ndarray, prob: Problem, mu_needed=False) -> tuple[list, list]:
    """(mus, pots) of a (B, m, n) stack as float lists, from one _action_rows call.

    Raises what potential(row), and then mu(row) where mu_needed[row], raise
    at the first row, in stack order, whose value is not finite, as a loop
    over the rows would.
    """
    mus, pots, mu_ok, pot_ok = _action_rows(stack, prob)
    failed = ~pot_ok | (mu_needed & ~mu_ok)
    if failed.any():
        row = stack[np.argmax(failed)]
        potential(row, prob)
        mu(row, prob)
    return mus.tolist(), pots.tolist()


def check_b2_b3(
    prob: Problem,
    r: float,
    sample_budget: int = 2000,
    seed: int = 0,
    expand: float = 5.0,
) -> tuple[CheckReport, CheckReport]:
    """Monte-Carlo checks of the two strict inequalities behind the
    three-solution regime for bounded potentials, over the zero-mean
    subspace with reference point 0.

    B.2: the global infimum of the potential J (sampled over an enlarged
    ball) lies strictly below its infimum over the sublevel {mu < r}.
    B.3: J(0) lies strictly below the infimum of J over the level set
    {mu = r} (and mu(0) = 0 < r holds trivially).

    The directions and their samples' draws are taken from the stream
    first, and the level radii of all directions are found in one
    _level_radii call.  Per direction, the level point and its 2 * per_dir
    samples go through one stacked potential call, and the infima are
    folded in draw order.  A direction whose level radius fails raises its
    error after the directions before it are evaluated.
    """
    if not r > 0:
        raise ValueError(f"sublevel radius r must be positive, got {r}")
    ndirs = max(8, int(math.sqrt(sample_budget)))
    per_dir = max(4, sample_budget // ndirs)
    rng = rng_for(seed, 23)

    j0 = potential(np.zeros((prob.m, prob.n)), prob)
    inf_sub = j0
    inf_level = math.inf
    inf_global = j0
    arg_global = None
    arg_sub = None
    dirs, draws_of = [], []
    for _ in range(ndirs):
        dirs.append(_unit_directions(rng, 1, (prob.m, prob.n), zero_mean=True)[0])
        draws_of.append(rng.random(2 * per_dir))
    radii, errors = _level_radii(prob, np.stack(dirs), r)
    for i, (v, t_r, draws) in enumerate(zip(dirs, radii, draws_of)):
        if i in errors:
            raise errors[i]
        # the level point, then each sample's t and t_big, in draw order
        t = np.empty(2 * per_dir + 1)
        t[0] = t_r
        t[1::2] = draws[0::2] * t_r
        t[2::2] = draws[1::2] * expand * t_r
        points = t[:, None, None] * v
        _, vals = _stack_values(points, prob)
        inf_level = min(inf_level, vals[0])
        for j in range(1, len(vals), 2):
            val, val_big = vals[j], vals[j + 1]
            if val < inf_sub:
                inf_sub = val
                arg_sub = points[j]
            if val < inf_global:
                inf_global = val
                arg_global = points[j]
            if val_big < inf_global:
                inf_global = val_big
                arg_global = points[j + 1]

    samples = ndirs * (2 * per_dir + 1)
    margin_b2 = inf_sub - inf_global
    b2 = CheckReport(
        "B.2",
        HOLDS if margin_b2 > 0.0 else VIOLATED,
        margin_b2,
        None
        if margin_b2 > 0.0
        else {"inf_global": inf_global, "inf_sublevel": inf_sub},
        samples=samples,
        seed=seed,
        detail={
            "inf_global": inf_global,
            "inf_sublevel": inf_sub,
            "argmin_global": None if arg_global is None else arg_global,
            "argmin_sublevel": None if arg_sub is None else arg_sub,
        },
    )
    margin_b3 = inf_level - j0
    b3 = CheckReport(
        "B.3",
        HOLDS if margin_b3 > 0.0 else VIOLATED,
        margin_b3,
        None if margin_b3 > 0.0 else {"J_at_0": j0, "inf_levelset": inf_level},
        samples=ndirs,
        seed=seed,
        detail={"J_at_0": j0, "inf_levelset": inf_level, "r": r},
    )
    return b2, b3


# ---------------------------------------------------------------------------
# Sampled variational threshold
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class LambdaStarEstimate:
    """Sampled estimate of the variational lambda threshold over Y.

    estimate is 1 / min_r phi(r) with the convention 1/0 = +inf, where
    phi(r) is the sampled inner infimum for sublevel radius r.  Sup values
    are estimated including the level set {mu = r} (where the supremum of a
    continuous potential over the open sublevel is attained in the limit),
    while the infimum runs over strictly interior samples.  Under-sampling
    the supremum biases the estimate upward; treat the result as an upper
    estimate.
    """

    estimate: float
    r_grid: tuple
    phi_values: tuple
    sup_values: tuple
    samples_per_r: int
    seed: int


def lambda_star_estimate(
    prob: Problem,
    r_grid: Sequence[float],
    samples_per_r: int = 400,
    seed: int = 0,
) -> LambdaStarEstimate:
    """Monte-Carlo estimate of the variational threshold lambda-star.

    Per radius r, sample directions v on the zero-mean unit sphere with a
    counter-keyed stream (so enlarging samples_per_r extends, never reshuffles,
    the sample set), place one evaluation point on the level set mu = r and
    one strictly inside, and form

        phi(r) = min over interior u of (sup J - J(u)) / (r - mu(u)).

    Per radius, each sample draws its direction's normals from its own
    stream, all of them are normalised as one stack (_stream_directions; a
    sample whose vector is too short draws again from its stream), and
    their level radii are found in one _level_radii call; then each sample
    draws its interior t.  The level and interior points of all samples go
    through one stacked call.  The first sample, in sample order, whose
    level radius fails raises its error after the points before it are
    evaluated.
    """
    r_grid = [float(r) for r in r_grid]
    if not r_grid or any(r <= 0 for r in r_grid):
        raise ValueError("r_grid must contain positive radii")
    phi_values = []
    sup_values = []
    for ir, r in enumerate(r_grid):
        rngs = [rng_for(seed, ir, i) for i in range(samples_per_r)]
        V = _stream_directions(rngs, (prob.m, prob.n))
        radii, errors = _level_radii(prob, V, r)
        count = min(errors, default=samples_per_r)  # samples before the first failure
        failure = errors.get(count)
        if failure is not None and not isinstance(failure, EvaluationError):
            raise failure
        t_in = np.array([rng.random() for rng in rngs[:count]]) * radii[:count]
        # 0, then each sample's level point and interior point
        points = np.zeros((2 * count + 1, prob.m, prob.n))
        points[1::2] = radii[:count, None, None] * V[:count]
        points[2::2] = t_in[:, None, None] * V[:count]
        interior_row = np.arange(len(points)) % 2 == 0
        interior_row[0] = False
        mus, pots = _stack_values(points, prob, interior_row)
        if failure is not None:
            raise failure  # after the points before it are evaluated
        sup_j = pots[0]
        interior: list[tuple[float, float]] = [(sup_j, 0.0)]
        for j in range(1, len(points), 2):
            sup_j = max(sup_j, pots[j])
            interior.append((pots[j + 1], mus[j + 1]))
            sup_j = max(sup_j, pots[j + 1])
        phi = math.inf
        for j_val, mu_val in interior:
            denom = r - mu_val
            if denom <= 0.0:
                continue
            phi = min(phi, (sup_j - j_val) / denom)
        phi_values.append(max(phi, 0.0))
        sup_values.append(sup_j)
    phi_min = min(phi_values)
    estimate = math.inf if phi_min == 0.0 else 1.0 / phi_min
    return LambdaStarEstimate(
        estimate=estimate,
        r_grid=tuple(r_grid),
        phi_values=tuple(phi_values),
        sup_values=tuple(sup_values),
        samples_per_r=samples_per_r,
        seed=seed,
    )
