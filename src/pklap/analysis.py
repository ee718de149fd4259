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

import functools
import math
import operator
import warnings
from typing import Optional, Sequence

import numpy as np

from .core import (
    EvaluationError,
    ExponentFunction,
    Nonlinearity,
    PeriodicSequence,
    Problem,
    _Record,
    _SEARCH_BLOCKS,
    _block_search,
    _entry_norms,
    _read_only,
    _row_norms,
    _shifted,
    _shifted_back,
    _stack_periods,
)
from .operators import _checked_pass, _checked_row, _phi_rows, _stack_pass

HOLDS = "holds_on_samples"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

# the slack of a sampled A.4, A.5 or A.7 - A.9 margin
SAMPLE_SLACK = 1e-9
# the slack of a C.1 - C.3 margin, one-row or sampled
INEQUALITY_SLACK = 1e-10
QUOTIENT_TOL = 1e-3


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    """Deterministic generator keyed by (seed, keys), one per sampled check
    (two per radius of lambda_star_estimate)."""
    entropy = [int(seed) & 0xFFFFFFFF] + [int(k) & 0xFFFFFFFF for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


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
        v = rng.normal(size=(count - len(out), *shape))
        if zero_mean:
            v = v - v.mean(axis=1, keepdims=True)
        norms = _row_norms(v)
        kept = norms > 1e-12
        out = np.concatenate((out, v[kept] / norms[kept].reshape(-1, *[1] * len(shape))))
    return out


class CheckReport(_Record):
    """Outcome of one sampled or optimised hypothesis check.  A detail left
    None is stored as a new empty dict."""

    name: str
    verdict: str
    margin: float
    witness: Optional[dict] = None
    samples: int = 0
    seed: Optional[int] = None
    detail: Optional[dict] = None

    def __post_init__(self):
        if self.detail is None:
            object.__setattr__(self, "detail", {})

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


def _worst_report(
    name: str, margins: np.ndarray, slack: float, witness_of, samples: int, seed: int,
    *, strict: bool = False, detail: Optional[dict] = None
) -> CheckReport:
    """Report of a condition sampled with the given per-sample margins.

    The worst margin is the first smallest one; NaN margins are ignored.
    The condition holds when the worst margin is >= -slack, or > -slack
    when strict (a strict inequality such as B.2's fails at an exact tie),
    and a violation carries witness_of(index of the worst sample).  When
    every margin is NaN no sample decided the condition: the verdict is
    inconclusive and the margin stays inf.  detail is reported as given.
    """
    undecided = np.isnan(margins)
    candidates = np.where(undecided, math.inf, margins)
    i = int(np.argmin(candidates))
    worst = float(candidates[i])
    if undecided.all():
        verdict = INCONCLUSIVE
    else:
        verdict = HOLDS if (worst > -slack if strict else worst >= -slack) else VIOLATED
    witness = witness_of(i) if verdict == VIOLATED else None
    return CheckReport(name, verdict, worst, witness, samples, seed, detail or {})


# ---------------------------------------------------------------------------
# Norm comparison inequalities on one period
# ---------------------------------------------------------------------------


def _inequality_report(name: str, margin: float, witness: dict) -> CheckReport:
    """Report of one norm inequality at INEQUALITY_SLACK, keeping the witness
    only for a violation.

    A NaN margin (both sides overflowed) decides nothing, and C.1 - C.3 are
    theorems, so it is inconclusive rather than a violation; unlike a
    sampled report (_worst_report), this one-row report keeps the NaN.
    """
    if math.isnan(margin):
        verdict = INCONCLUSIVE
    else:
        verdict = HOLDS if margin >= -INEQUALITY_SLACK else VIOLATED
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
    d = _shifted(u) - u
    pp = p.p_plus
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.sum(_entry_norms(d) ** p.values, axis=1)
        rhs = u.shape[1] * (np.float_power(2.0, pp) * np.float_power(_row_norms(u), pp) + 1.0)
        return rhs - lhs, lhs, rhs


def _c_witness(u: np.ndarray, s, lhs: float, rhs: float) -> dict:
    """Witness of a C.1 - C.3 violation; s is None for C.3."""
    witness = {"u": u} if s is None else {"u": u, "s": s}
    witness.update(lhs=lhs, rhs=rhs)
    return witness


def check_c1(u: PeriodicSequence, s: float) -> CheckReport:
    """sum_k |u(k)|^s <= m * ||u||^s for any finite s > 0."""
    if not 0 < s < math.inf:
        raise ValueError(f"C.1 requires a finite s > 0, got s = {s}")
    margin, lhs, rhs = (x.item() for x in _c1_rows(u.values[None], np.array([s], dtype=float)))
    return _inequality_report("C.1", margin, _c_witness(u.values, s, lhs, rhs))


def check_c2(u: PeriodicSequence, s: float) -> CheckReport:
    """sum_k |u(k)|^s >= m^((2-s)/2) * ||u||^s for any finite s >= 2."""
    if not 2 <= s < math.inf:
        raise ValueError(f"C.2 requires a finite s >= 2, got s = {s}")
    margin, lhs, rhs = (x.item() for x in _c2_rows(u.values[None], np.array([s], dtype=float)))
    return _inequality_report("C.2", margin, _c_witness(u.values, s, lhs, rhs))


def check_c3(u: PeriodicSequence, p: ExponentFunction) -> CheckReport:
    """sum_k |Delta u(k)|^p(k) <= m * (2^p_plus * ||u||^p_plus + 1)."""
    if p.m != u.m:
        raise ValueError("exponent and sequence periods differ")
    margin, lhs, rhs = (x.item() for x in _c3_rows(u.values[None], p))
    return _inequality_report("C.3", margin, _c_witness(u.values, None, lhs, rhs))


# the number of samples of the sampled C.1 - C.3
_C_SAMPLES = 300


def _sampled_c_reports(prob: Problem, seed: int) -> list[CheckReport]:
    """C.1 - C.3 over _C_SAMPLES seeded random samples, each reported by
    _worst_report at INEQUALITY_SLACK.

    The samples come from one generator, rng_for(seed, 41): their scales,
    their sequences and then their two exponents are drawn with one array
    call each, and the inequalities are evaluated on all samples at once.
    """
    rng = rng_for(seed, 41)
    scale = 10.0 ** rng.uniform(-2.0, 2.0, size=_C_SAMPLES)
    u = scale[:, None, None] * rng.normal(size=(_C_SAMPLES, prob.m, prob.n))
    d = rng.random((2, _C_SAMPLES))
    s1, s2 = 0.5 + 5.5 * d[0], 2.0 + 4.0 * d[1]
    sides = {
        "C.1": (_c1_rows(u, s1), s1),
        "C.2": (_c2_rows(u, s2), s2),
        "C.3": (_c3_rows(u, prob.exponent), None),
    }
    return [
        _worst_report(
            name,
            margins,
            INEQUALITY_SLACK,
            lambda i: _c_witness(u[i], None if s is None else s[i], lhs[i], rhs[i]),
            _C_SAMPLES,
            seed,
        )
        for name, ((margins, lhs, rhs), s) in sides.items()
    ]


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
    a = _phi_rows(d, _entry_norms(d), p)
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

def _xi_descent(u0: np.ndarray, p_plus: float, tol: float, max_iter: int):
    """Preconditioned gradient descent on the unit sphere of the zero-mean subspace.

    Runs every start of the stack u0 at once.  A start's direction d is its
    projected gradient g preconditioned by the inverse cycle Laplacian and
    projected back onto the sphere's tangent space (_sobolev_direction).
    The difference energy's Hessian is D^T W D, with D the cyclic
    difference and W block diagonal in k, of size about |Delta u(k)|^(p - 2),
    so along g its condition number grows like m^2, while along d it is that
    of W alone.  Each start keeps its own step size and runs the
    backtracking line search of _block_search over u - t d, t = step *
    2^-j, each trial re-centred and normalised: it takes the first trial
    below val - 1e-4 t <g, d> (Armijo's test) and grows its step by 1.3, up
    to _XI_STEP_CAP.  The trials of all starts still searching go through
    one energy call per block, so each start follows the iterates of its
    descent run alone bit for bit.  A start leaves when its projected
    gradient meets tol, when its line search accepts nothing, or after
    max_iter steps.  Returns each start's final value and whether it
    converged.
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
            x = u[ids]
            d = _sobolev_direction(x, g)
            slope = np.add.reduce(g * d, axis=(1, 2))
            ids = ids[_block_search(x, -d, step[ids], _SEARCH_BLOCKS, evaluate, take)]
        converged = met_tol.copy()
        rest = ~met_tol
        gnorm = _row_norms(_projected_gradient(u[rest], p_plus))
        # at value stagnation the projected gradient floors near
        # sqrt(eps * curvature * val); 1e-7 relative leaves the value itself
        # accurate to ~gnorm^2, far inside any tolerance used downstream
        converged[rest] = gnorm <= np.maximum(tol, 1e-7 * np.maximum(1.0, np.abs(val[rest])))
    return val, converged


# The descent's one setting: its starts, drawn from rng_for(_XI_SEED, m, n),
# its gradient tolerance and its cap on steps.
_XI_STARTS = 32
_XI_TOL = 1e-10
_XI_MAX_ITER = 5000
_XI_SEED = 0


def xi_constant(m: int, n: int = 1, p_plus: float = 2.0) -> float:
    """Best constant xi with sum_k |Delta u(k)|^p_plus >= xi * ||u||^p_plus on zero-mean u.

    Four cases have a closed form, which is returned directly.  For
    p_plus = 2 the minimum is the smallest nonzero eigenvalue of the cycle
    Laplacian, lambda1 = 2 - 2*cos(2*pi/m).  At m = 2 (the sphere is
    u = +-(v, -v), and xi = 2^(1 + p_plus/2) at every n), and for
    p_plus > 2 at m = 4 (attained by u = (1, 0, -1, 0) / sqrt(2),
    xi = 4 * 2^(-p_plus/2)) and at n >= 2 (attained by u(k) =
    (cos 2 pi k/m, sin 2 pi k/m, 0, ...)), xi is the power-mean bound
    m^(1 - p_plus/2) lambda1^(p_plus/2), computed as m (lambda1/m)^(p_plus/2)
    by C pow.  Otherwise, and where that is not a normal double (at m = 2
    from p_plus = 2046 on, where it overflows, and at m = 4 from
    p_plus = 2048 on, where it underflows), xi is the minimum of the
    difference energy over the unit sphere of the zero-mean subspace, found
    by gradient descent preconditioned with the inverse cycle Laplacian
    from 32 random starts, all run at once as one stacked array, their
    Armijo line-search trials evaluated in blocks (_xi_descent).  n must be
    >= 1 and p_plus finite and >= 1.  When no start meets the gradient
    tolerance a RuntimeWarning is issued and the best value found, an upper
    bound on the sharp constant, is returned.  The descent runs once per
    process for each (m, n, p_plus): a repeated call returns its result
    again, bit for bit, and repeats its warning.
    """
    return _xi_search(m, n, p_plus)[0]


def _xi_search(m: int, n: int = 1, p_plus: float = 2.0) -> tuple[float, bool]:
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
    lambda1 = 2.0 - 2.0 * math.cos(2.0 * math.pi / m)
    if p_plus == 2.0:
        return lambda1, True
    if m == 2 or ((n >= 2 or m == 4) and p_plus > 2.0):
        # the power-mean bound m^(1 - p/2) lambda1^(p/2) is attained where a
        # lambda1-eigenvector has all |Delta u(k)| equal: at m = 2 every
        # u = +-(v, -v) on the sphere, at m = 4 u = (1, 0, -1, 0) / sqrt(2)
        # in each component, and at n >= 2 the circle u(k) =
        # (cos 2 pi k/m, sin 2 pi k/m, 0, ...).  C pow, which overflows to
        # inf or underflows at large p_plus
        with np.errstate(over="ignore", under="ignore"):
            closed = m * float(np.float_power(lambda1 / m, p_plus / 2.0))
        if np.finfo(float).tiny <= closed < math.inf:
            return closed, True

    xi, converged = _xi_minimum(operator.index(m), operator.index(n), float(p_plus))
    if not converged:
        warnings.warn(
            "xi_constant: no start met the gradient tolerance; returning the "
            "best value found (an upper bound on the sharp constant)",
            RuntimeWarning,
            stacklevel=3,
        )
    return xi, converged


@functools.lru_cache(maxsize=64, typed=True)
def _xi_minimum(m: int, n: int, p_plus: float) -> tuple[float, bool]:
    """The least value of the descent from xi_constant's starts, and whether
    any start converged.  xi depends on (m, n, p_plus) alone, so the
    descent runs once per key per process; the caller warns on every call
    whose result did not converge."""
    u0 = _unit_directions(rng_for(_XI_SEED, m, n), _XI_STARTS, (m, n), zero_mean=True)
    vals, converged = _xi_descent(u0, p_plus, _XI_TOL, _XI_MAX_ITER)
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


class GrowthProfile(_Record):
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


class BoundProfile(_Record):
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


class Thresholds(_Record):
    """Lambda thresholds derived from a problem and its growth profile."""

    lambda1: float
    lambda2: float
    lambda3: float


def thresholds(prob: Problem, growth: GrowthProfile) -> Thresholds:
    """Sufficient lambda thresholds from the growth profile.

    lambda_i = 2^p_plus * m^(p_plus/2) / (p_minus * a) with a the relevant
    minimum of alpha1, alpha2 or their sum; infinite when a vanishes.  The
    sharp embedding constant xi enters none of them: `pklap check` reports
    it beside them, from its own xi_constant search.  Raises ValueError
    when the periods of prob and growth differ.
    """
    if prob.m != growth.m:
        raise ValueError(f"problem and growth profile periods differ: {prob.m} and {growth.m}")
    pp = prob.exponent.p_plus
    pm = prob.exponent.p_minus
    # C pow, so a huge p_plus gives an infinite threshold instead of raising
    with np.errstate(over="ignore"):
        num = float(np.float_power(2.0, pp) * np.float_power(prob.m, pp / 2.0))

    def ratio(denom: float) -> float:
        return num / (pm * denom) if denom > 0.0 else math.inf

    a1 = growth.alpha1_min
    a2 = growth.alpha2_min
    return Thresholds(lambda1=ratio(a1), lambda2=ratio(a2), lambda3=ratio(a1 + a2))


# ---------------------------------------------------------------------------
# Sampled checks of the growth and bound conditions
# ---------------------------------------------------------------------------


def _orientations(rng: np.random.Generator, shape: tuple, n: int) -> np.ndarray:
    """Unit orientations of points of the given shape, as a (*shape, n) array.

    They take one draw call, in C order: a sign per point at n = 1 (+ where
    a uniform falls below 1/2), a random unit direction per point at n > 1
    (_unit_directions).
    """
    if n == 1:
        return np.where(rng.random(shape) < 0.5, 1.0, -1.0)[..., None]
    return _unit_directions(rng, math.prod(shape), (n,)).reshape(*shape, n)


def _signed_samples(nl: Nonlinearity, rng: np.random.Generator, count: int, magnitudes):
    """count samples of a condition whose points have random magnitudes and orientations.

    Draws the periods K with one rng.integers call, a (2, count) block D of
    uniforms with one rng.random call, and points of the magnitudes mags =
    magnitudes(D) (row 0 for u1, row 1 for u2) oriented with one
    _orientations call: the same calls at every n and every count.  Returns
    (K, mags, U), U the (2, count, n) stack of u1 and u2.
    """
    K = rng.integers(1, nl.m + 1, size=count)
    mags = magnitudes(rng.random((2, count)))
    return K, mags, mags[..., None] * _orientations(rng, mags.shape, nl.n)


def _sampled_condition(
    name: str, nl: Nonlinearity, K: np.ndarray, U: np.ndarray, seed: int, margin
) -> CheckReport:
    """Shared evaluation step of A.4, A.5 and A.7 - A.9.

    K holds the drawn periods and U the (2, count, n) stack of the drawn
    points u1 and u2.  F is evaluated on all samples with one kernel call
    (Nonlinearity._F_points, as K is drawn in 1..m), and margin(F) ->
    (margins, {field: values}) gives the per-sample margins and witness
    fields.  They are reported by _worst_report at SAMPLE_SLACK,
    a violation carrying its sample as the witness.  An overflow shows as
    an inf or NaN margin, not as a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        F = nl._F_points(_read_only(K, np.int64), _read_only(U[0]), _read_only(U[1]))
        vals, fields = margin(F)

    def witness_of(i):
        witness = {"k": int(K[i]), "u1": U[0, i].copy(), "u2": U[1, i].copy()}
        witness.update({key: float(v[i]) for key, v in fields.items()})
        return witness

    return _worst_report(name, vals, SAMPLE_SLACK, witness_of, len(K), seed)


# the number of samples of each of A.4, A.5 and A.7 - A.9, and the number
# of random t of each A.6.x shell, besides its three fixed ones
_A_SAMPLES = 4000
_A6_PER_SHELL = 125


def check_growth(nl: Nonlinearity, g: GrowthProfile, seed: int = 0) -> list[CheckReport]:
    """Sampled verification of A.4, A.5 and the quotient limits A.6.1 - A.6.3.

    Each condition draws from its own seeded generator.  A.4 and A.5 draw
    _A_SAMPLES periods, magnitudes and orientations with one array call each
    (_signed_samples), the same calls at every n, and evaluate F on them
    with one call of the family's F kernel (Nonlinearity._F_points, as
    the periods are drawn in 1..m).  A.6.x draws each shell's t values,
    then its signs (n = 1) or directions (n > 1), with one call each, and
    evaluates F with one kernel call per distinct exponent pair (e1, e2),
    at t = 0, 1/2, 1 and _A6_PER_SHELL random t per shell and period, all
    eight shells as one stack: the variants of a pair draw from one stream
    and give the same quotients, so a family with constant s and r computes
    them once.  A quotient's denominator (t shell)^e1 + ((1 - t) shell)^e2
    does not depend on the period, so it is taken once per (shell, t).  A
    shell's largest quotient ignores NaN quotients, and is NaN when it has
    no other; the last shell's decides, a one-entry margin QUOTIENT_TOL -
    quotient judged by _worst_report at slack 0, so a NaN makes the report
    inconclusive.  The bound of A.4 and the quotient denominators are
    computed with C pow, as Python's ** does, so the margins are bitwise
    those of a point-by-point loop over the same samples.  Raises
    ValueError when the periods of nl and g differ.
    """
    if nl.m != g.m:
        raise ValueError(f"nonlinearity and profile periods differ: {nl.m} and {g.m}")
    m, n = nl.m, nl.n

    # A.4: lower growth bound for |u1|, |u2| >= M.
    K, mags, U = _signed_samples(nl, rng_for(seed, 4), _A_SAMPLES, lambda D: g.M + 10.0 * D)

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
        nl, rng_for(seed, 5), _A_SAMPLES, lambda D: 2.0 * g.eta * D[0] * np.stack((D[1], 1.0 - D[1]))
    )
    reports.append(_sampled_condition("A.5", nl, K, U, seed, lambda F: (F, {"F": F})))

    # A.6.x: quotients of F against mixed powers must vanish at the origin.
    variants = [
        ("A.6.1", g.s.p_plus, g.r.p_minus),
        ("A.6.2", g.s.p_minus, g.r.p_plus),
        ("A.6.3", g.s.p_minus, g.r.p_minus),
    ]
    shells = [10.0**-j for j in range(1, 9)]
    rows = (_A6_PER_SHELL + 3) * m  # samples per shell

    @functools.cache  # the variants of one exponent pair share its draws and quotients
    def shell_quotients(e1, e2):
        """Each shell's first largest quotient, NaN ignored, and the last one's sample (k, u1, u2)."""
        rng = rng_for(seed, 6, int(e1 * 1000), int(e2 * 1000))
        T = np.empty((len(shells), _A6_PER_SHELL + 3))
        T[:, :3] = (0.0, 0.5, 1.0)
        O = np.empty((len(shells), rows, 2, n))
        for j in range(len(shells)):
            # each t is shared by m samples, and each sample's u1 is
            # oriented before its u2
            T[j, 3:] = rng.random(_A6_PER_SHELL)
            O[j] = _orientations(rng, (rows, 2), n)
        S = np.array(shells)[:, None]
        near, far = T * S, (1.0 - T) * S  # |u1| and |u2| at each (shell, t)
        denom = np.repeat(np.float_power(near, e1) + np.float_power(far, e2), m, axis=1).reshape(-1)
        U1 = (np.repeat(near, m, axis=1)[..., None] * O[:, :, 0]).reshape(-1, n)
        U2 = (np.repeat(far, m, axis=1)[..., None] * O[:, :, 1]).reshape(-1, n)
        K = _stack_periods(m, T.size)
        # a quotient whose denominator underflows (both powers, at huge
        # exponents) is NaN: the sample says nothing about the limit
        F = nl._F_points(K, _read_only(U1), _read_only(U2))
        q = np.divide(np.abs(F), denom, out=np.full(K.size, math.nan), where=~(denom <= 0.0))
        q = q.reshape(len(shells), rows)
        # a quotient is >= 0 or NaN, so a shell with no other quotient
        # takes its first, NaN
        w = np.argmax(np.where(np.isnan(q), -math.inf, q), axis=1)
        i = (len(shells) - 1) * rows + int(w[-1])
        return q[np.arange(len(shells)), w].tolist(), (int(K[i]), U1[i], U2[i])

    for tag, e1, e2 in variants:
        trajectory, (k, u1, u2) = shell_quotients(e1, e2)
        final = trajectory[-1]  # the last shell decides
        witness = {"k": k, "u1": u1.copy(), "u2": u2.copy(), "quotient": final, "shell": shells[-1]}
        reports.append(
            _worst_report(
                tag, np.array([QUOTIENT_TOL - final]), 0.0, lambda i: witness,
                len(shells) * rows, seed, detail={"shell_quotients": list(trajectory)},
            )
        )
    return reports


# the half-width of the box on which A.7 samples F <= C
_A7_BOX = 1e3


def check_bounds(nl: Nonlinearity, b: BoundProfile, seed: int = 0) -> list[CheckReport]:
    """Sampled verification of the bound and sign conditions A.7 - A.9.

    Sign conditions are checked up to a small slack, so a potential that
    merely touches zero on the sampled region still passes.  Each condition
    draws _A_SAMPLES samples from its own seeded generator: its periods, its
    magnitudes or box coordinates, and its orientations with one array call
    each, the same calls at every n (_signed_samples; A.7 draws its box,
    |u1|, |u2| <= _A7_BOX in each coordinate, with one rng.uniform call).
    F is evaluated on each condition's samples with one call of the
    family's F kernel (Nonlinearity._F_points).
    """
    # A.7: F <= C on a large box.
    rng = rng_for(seed, 7)
    K = rng.integers(1, nl.m + 1, size=_A_SAMPLES)
    U = rng.uniform(-_A7_BOX, _A7_BOX, size=(2, _A_SAMPLES, nl.n))
    a7 = _sampled_condition("A.7", nl, K, U, seed, lambda F: (b.C - F, {"F": F}))

    # A.8: F < 0 for 0 < |u1|, |u2| <= rho1.
    K, _, U = _signed_samples(nl, rng_for(seed, 8), _A_SAMPLES, lambda D: b.rho1 * (1.0 - D * 0.999999))
    a8 = _sampled_condition("A.8", nl, K, U, seed, lambda F: (-F, {"F": F}))

    # A.9: F > 0 for rho2 < |u1|, |u2| <= rho3.
    K, _, U = _signed_samples(
        nl, rng_for(seed, 9), _A_SAMPLES, lambda D: b.rho2 + (b.rho3 - b.rho2) * (1.0 - D * 0.999999)
    )
    return [a7, a8, _sampled_condition("A.9", nl, K, U, seed, lambda F: (F, {"F": F}))]


# ---------------------------------------------------------------------------
# Anti-coercivity probe along rays
# ---------------------------------------------------------------------------


def _action_or_limit(mus: np.ndarray, pots: np.ndarray, prob: Problem) -> np.ndarray:
    """mu + lam * potential per row, the expression of action (so a finite
    value keeps action's bits), under the callers' np.errstate, with an
    overflowing term at its limit: mu >= 0, so its overflow, or NaN terms
    of a non-finite input, give +inf (no decrease), and an overflowing
    potential with a finite mu gives -inf."""
    vals = mus + prob.lam * pots
    if np.isfinite(vals).all():  # then so are both terms
        return vals
    return np.where(np.isfinite(mus), np.where(np.isfinite(pots), vals, -math.inf), math.inf)


def _action_or_limit_rows(x: np.ndarray, prob: Problem) -> np.ndarray:
    """The action at each flat point of x, overflowing terms at their limits
    (_action_or_limit), all points in one terms pass of _stack_pass, whose
    EvaluationError for a malformed F it raises."""
    mus, pots, _ = _stack_pass(x.reshape(-1, prob.m, prob.n), prob, mu=True, potential=True)
    with np.errstate(over="ignore", invalid="ignore"):
        return _action_or_limit(mus, pots, prob)


def _structured_rays(m: int, n: int) -> np.ndarray:
    """The probe's fixed unit rays on (m, n) sequences, as a (2 n (m + T), m n) stack.

    Component by component, the rays are +b, then -b, for the rows b of one
    basis placed in that component: the m coordinate rays e_k, then the T
    top eigenvectors of the m-cycle Laplacian, which maximise mu at p = 2.
    Those are (-1)^k / sqrt(m) at even m (T = 1), the normalised cos and sin
    of frequency (m - 1) / 2 at odd m > 1 (T = 2), and none at m = 1.  On a
    coordinate ray every term F(k, u(k), u(k+1)) has a zero argument, so a
    lower growth bound that needs |u1|, |u2| >= M never applies there.
    """
    k = np.arange(m)
    if m % 2 == 0:
        top = [(-1.0) ** k]
    else:
        top = [np.cos(np.pi * (m - 1) / m * k), np.sin(np.pi * (m - 1) / m * k)] if m > 1 else []
    basis = np.vstack([np.eye(m), *top])
    basis = basis / _row_norms(basis)[:, None]
    basis = np.concatenate((basis, 0.0 - basis))  # not -basis: its zeros would be -0.0
    rays = np.zeros((n, len(basis), m, n))
    for j in range(n):
        rays[j, :, :, j] = basis
    return rays.reshape(-1, m * n)


# the number of random rays of the probe, the radii t at which it evaluates
# the action along each ray, and by how much its last value must undercut
# its first
_PROBE_DIRECTIONS = 32
_PROBE_RADII = (1.0, 10.0, 100.0, 1000.0)
_PROBE_DROP = 1.0


def anticoercivity_probe(prob: Problem, seed: int = 0) -> CheckReport:
    """Probe whether the action falls off to -infinity along rays.

    Evaluates the action at t*d for the radii t = 1, 10, 100 and 1000
    (_PROBE_RADII) and each unit direction d of one pool, all in one stacked
    call: the _PROBE_DIRECTIONS sampled directions, then the fixed
    structured rays (_structured_rays), such as the coordinate rays on
    which example2 fails while random directions almost surely pass.  A
    direction passes when the values strictly decrease from the second
    radius onward and the last value undercuts the first by 1
    (_PROBE_DROP).  Overflow of the potential
    at large radii counts as decrease (the ray provides -infinity evidence);
    overflow of the Dirichlet term mu does not.  The report reads the rays
    in pool order and stops at the first that fails; its witness says
    whether that ray is structured.  samples counts both sets,
    detail["structured"] the structured rays, and detail["overflow"]
    whether any value read was non-finite.
    """
    sampled = _unit_directions(rng_for(seed, 17), _PROBE_DIRECTIONS, (prob.m, prob.n))
    sampled = sampled.reshape(-1, prob.dim)
    structured = _structured_rays(prob.m, prob.n)
    rays = np.concatenate((sampled, structured))
    vals = _action_or_limit_rows(np.array(_PROBE_RADII)[None, :, None] * rays[:, None, :], prob)
    vals = vals.reshape(len(rays), len(_PROBE_RADII))
    with np.errstate(invalid="ignore"):  # inf - inf where mu overflows at both ends
        drops = vals[:, 0] - vals[:, -1] - _PROBE_DROP
    tail = vals[:, 2:]
    falls = ((tail < vals[:, 1:-1]) | (tail == -math.inf)).all(axis=1) & (drops > 0.0)
    failing = np.flatnonzero(~falls)
    if failing.size == 0:
        return CheckReport(
            "anticoercivity",
            HOLDS,
            float(np.min(drops)),
            None,
            samples=len(rays),
            seed=seed,
            detail={"overflow": not np.isfinite(vals).all(), "structured": len(structured)},
        )
    i = int(failing[0])
    drop = float(drops[i])
    return CheckReport(
        "anticoercivity",
        VIOLATED,
        min(float(np.min(drops[:i], initial=math.inf)), drop if math.isfinite(drop) else 0.0),
        witness={
            "direction": rays[i].copy(),
            "radii": list(_PROBE_RADII),
            "values": vals[i].tolist(),
            "structured": i >= len(sampled),
        },
        samples=len(rays),
        seed=seed,
        detail={"overflow": not np.isfinite(vals[: i + 1]).all(), "structured": len(structured)},
    )


# ---------------------------------------------------------------------------
# Strict-inequality conditions on the potential over the zero-mean subspace
# ---------------------------------------------------------------------------


# cap on the Newton iterations of _level_radii; a few suffice from its start
_LEVEL_MAXITER = 50


def _level_radii(prob: Problem, V: np.ndarray, r: float) -> np.ndarray:
    """t > 0 with mu(t * V[i]) = r for each row of a (S, m, n) stack V of
    nonzero zero-mean directions, all rows in lock step.

    With a the largest |Delta v| entry and s = log(a t), mu(t v) =
    sum_k c_k exp(p(k) s), c_k = |Delta v(k) / a|^p(k) / p(k), so
    h(s) = log mu - log r is a log-sum-exp of affine functions of s:
    convex and increasing.  Newton's method starts at the least s where
    one term alone equals r, so h >= 0 there, and its iterates fall
    monotonically to the root; at constant p the first step lands on it.
    A row stops once its step, clipped at 0, is at most 4 eps max(1, |s|),
    or after _LEVEL_MAXITER steps.  mu is never evaluated.  Dividing by a
    keeps the differences' squares finite and their norms away from
    underflow; the radius exp(s) / a is inf where it overflows, so its
    level point is not finite.
    """
    p = prob.exponent.values
    d = _shifted(V) - V
    scale = np.abs(d).max(axis=(1, 2), initial=0.0)
    log_r = math.log(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_c = p * np.log(_entry_norms(d / scale[:, None, None])) - np.log(p)
        s = np.min((log_r - log_c) / p, axis=1)
        live = np.flatnonzero(np.isfinite(s))
        for _ in range(_LEVEL_MAXITER):
            if not live.size:
                break
            z = log_c[live] + p * s[live, None]
            top = z.max(axis=1)
            w = np.exp(z - top[:, None])
            total = np.add.reduce(w, axis=1)
            # h / h' with h = top + log(total) - log r and h' = sum(w p) / total
            step = np.maximum((top + np.log(total) - log_r) * total / np.add.reduce(w * p, axis=1), 0.0)
            s[live] -= step
            live = live[step > 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(s[live]))]
        with np.errstate(over="ignore"):
            return np.exp(s) / scale


def _first_overflow(radii: np.ndarray, r: float, what: str) -> tuple[int, Optional[EvaluationError]]:
    """The index of the first level radius of radii, one per direction,
    that overflowed (len(radii) if none did), and the EvaluationError that
    names r and that direction ("what i of len(radii)"), or None."""
    over = np.flatnonzero(radii == math.inf)
    if not over.size:
        return len(radii), None
    i = int(over[0])
    return i, EvaluationError(
        f"level radius overflowed: no finite t has mu(t v) = r = {r!r} for {what} {i + 1} of {len(radii)}"
    )


def _first_min(j0: float, vals: np.ndarray, points: np.ndarray) -> tuple[float, Optional[np.ndarray]]:
    """The first smallest of j0 and then vals in C order, and the point of
    that value (points holds one behind each entry of vals), None for j0."""
    vals = np.concatenate(([j0], vals.ravel()))
    i = int(np.argmin(vals))
    return float(vals[i]), None if i == 0 else points.reshape(-1, *points.shape[-2:])[i - 1]


# the number of directions of B.2 / B.3, the number of sample pairs along
# each, and how far past its direction's level radius B.2's global sample
# reaches
_B2_DIRECTIONS = 44
_B2_PER_DIRECTION = 45
_B2_EXPAND = 5.0


def check_b2_b3(prob: Problem, r: float, seed: int = 0) -> tuple[CheckReport, CheckReport]:
    """Monte-Carlo checks of the two strict inequalities behind the
    three-solution regime for bounded potentials, over the zero-mean
    subspace with reference point 0.

    B.2: the global infimum of the potential J (sampled over an enlarged
    ball) lies strictly below its infimum over the sublevel {mu < r}.
    B.3: J(0) lies strictly below the infimum of J over the level set
    {mu = r} (and mu(0) = 0 < r holds trivially).

    The _B2_DIRECTIONS directions and their samples' draws are taken from
    the stream first, and the level radii of all directions are found in
    one _level_radii call.  Each direction's level point and its
    2 * _B2_PER_DIRECTION samples, all directions in draw order, go
    through one stacked potential call.  Each infimum is the first smallest
    value in draw order, taken as an array reduction; B.2's two start from
    J(0).  Each condition's margin (the difference of its two sides, finite
    or +-inf, as every potential read is finite) is judged by _worst_report
    as a strict inequality: a margin of exactly 0 is a violation.  A
    direction whose level radius overflows raises an EvaluationError that
    names it, after the directions before it are evaluated, so their
    failures come first.  Raises ValueError unless r is positive and finite.
    """
    if not 0 < r < math.inf:
        raise ValueError(f"sublevel radius r must be positive and finite, got {r}")
    ndirs, per_dir = _B2_DIRECTIONS, _B2_PER_DIRECTION
    rng = rng_for(seed, 23)

    j0 = float(_checked_row(np.zeros((prob.m, prob.n)), prob, potential=True)[1])
    dirs, draws = [], []
    for _ in range(ndirs):
        dirs.append(_unit_directions(rng, 1, (prob.m, prob.n), zero_mean=True)[0])
        draws.append(rng.random(2 * per_dir))
    V, draws = np.stack(dirs), np.stack(draws)
    radii = _level_radii(prob, V, r)
    count, overflow = _first_overflow(radii, r, "direction")
    # per direction, the level point, then each sample's t and t_big, in draw order
    t = np.empty((count, 2 * per_dir + 1))
    t[:, 0] = radii[:count]
    t[:, 1::2] = draws[:count, 0::2] * radii[:count, None]
    t[:, 2::2] = draws[:count, 1::2] * _B2_EXPAND * radii[:count, None]
    points = t[:, :, None, None] * V[:count, None]
    vals = _checked_pass(points.reshape(-1, prob.m, prob.n), prob, potential=True)[1]
    if overflow is not None:
        raise overflow
    vals = vals.reshape(t.shape)
    inf_level = float(vals[np.argmin(vals[:, 0]), 0])
    # the sublevel infimum runs over the samples t, the global one over t and t_big
    inf_sub, arg_sub = _first_min(j0, vals[:, 1::2], points[:, 1::2])
    inf_global, arg_global = _first_min(j0, vals[:, 1:], points[:, 1:])

    # B.2 and B.3 are strict: an exact tie violates them
    b2_sides = {"inf_global": inf_global, "inf_sublevel": inf_sub}
    b2 = _worst_report(
        "B.2", np.array([inf_sub - inf_global]), 0.0, lambda i: b2_sides,
        ndirs * (2 * per_dir + 1), seed, strict=True,
        detail={**b2_sides, "argmin_global": arg_global, "argmin_sublevel": arg_sub},
    )
    b3_sides = {"J_at_0": j0, "inf_levelset": inf_level}
    b3 = _worst_report(
        "B.3", np.array([inf_level - j0]), 0.0, lambda i: b3_sides, ndirs, seed,
        strict=True, detail={**b3_sides, "r": r},
    )
    return b2, b3


# ---------------------------------------------------------------------------
# Sampled variational threshold
# ---------------------------------------------------------------------------


class LambdaStarEstimate(_Record):
    """Sampled estimate of the variational lambda threshold over Y.

    estimate is 1 / min_r phi(r) with the convention 1/0 = +inf, where
    phi(r) is the sampled inner infimum for sublevel radius r.  Sup values
    are estimated including the level set {mu = r} (where the supremum of a
    continuous potential over the open sublevel is attained in the limit),
    while the infimum runs over strictly interior samples.  Under-sampling
    the supremum biases the estimate upward; treat the result as an upper
    estimate.  No route of a check report reads it.
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
    samples_per_r: int = 200,
    seed: int = 0,
) -> LambdaStarEstimate:
    """Monte-Carlo estimate of the variational threshold lambda-star.

    Per radius r, sample directions v on the zero-mean unit sphere, place
    one evaluation point on the level set mu = r and one strictly inside,
    and form

        phi(r) = min over interior u of (sup J - J(u)) / (r - mu(u)).

    Radius ir draws all its directions from rng_for(seed, 47, ir) with one
    _unit_directions call (a rejected vector is drawn again, in order) and
    all its interior fractions t from rng_for(seed, 48, ir) with one call,
    so enlarging samples_per_r extends the sample set, never reshuffles it.
    The level radii are found in one _level_radii call, and all level and
    interior points go through one _checked_pass call, which raises the
    EvaluationError of the first point, in sample order, whose potential,
    or whose mu at 0 and the interior points, is not finite (mu's where
    both are).  sup J is the first largest potential of 0 and all points,
    and phi(r) the first smallest ratio over 0 and the interior points with
    mu(u) < r, both in sample order; phi(r) is 0 whenever sup J sits at 0
    or at an interior point.  A sample whose level radius overflows raises
    an EvaluationError that names it and r, after the samples before it
    are evaluated.  Raises ValueError unless every radius of r_grid is
    positive and finite and samples_per_r >= 1.
    """
    r_grid = [float(r) for r in r_grid]
    if not r_grid or not all(0 < r < math.inf for r in r_grid):
        raise ValueError("r_grid must contain positive finite radii")
    if samples_per_r < 1:
        raise ValueError(f"samples_per_r must be >= 1, got {samples_per_r}")
    phi_values = []
    sup_values = []
    for ir, r in enumerate(r_grid):
        V = _unit_directions(rng_for(seed, 47, ir), samples_per_r, (prob.m, prob.n), zero_mean=True)
        radii = _level_radii(prob, V, r)
        t_in = rng_for(seed, 48, ir).random(samples_per_r) * radii
        count, overflow = _first_overflow(radii, r, "sample")
        # 0, then each sample's level point and interior point
        points = np.zeros((2 * count + 1, prob.m, prob.n))
        points[1::2] = radii[:count, None, None] * V[:count]
        points[2::2] = t_in[:count, None, None] * V[:count]
        # 0 and the interior points; mu(0) = 0 is finite
        interior = np.arange(len(points)) % 2 == 0
        mus, pots, _ = _checked_pass(points, prob, mu=interior, potential=True)
        if overflow is not None:
            raise overflow
        sup_j = float(pots[np.argmax(pots)])
        denom = r - mus[interior]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ratios = np.where(denom > 0.0, (sup_j - pots[interior]) / denom, math.inf)
        phi_values.append(max(float(ratios[np.argmin(ratios)]), 0.0))
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
