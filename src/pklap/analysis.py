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
    _row_dots,
    _row_norms,
    _shifted,
    _shifted_back,
)
from .functional import _action_rows, _mu_values, mu, potential
from .operators import _residual_rows

HOLDS = "holds_on_samples"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

SAMPLE_SLACK = 1e-9
QUOTIENT_TOL = 1e-3


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    """Deterministic generator keyed by (seed, keys); used for per-sample streams."""
    entropy = [int(seed) & 0xFFFFFFFF] + [int(k) & 0xFFFFFFFF for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _unit_direction(rng: np.random.Generator, m: int, n: int, zero_mean: bool) -> np.ndarray:
    """Random unit vector in R^(m*n), optionally constrained to zero mean."""
    while True:
        v = rng.normal(size=(m, n))
        if zero_mean:
            v = v - v.mean(axis=0)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def _unit_directions(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """count random unit vectors in R^n, as a (count, n) array.

    The same stream and values as count sequential _unit_direction(rng, n,
    1, zero_mean=False) calls: the normals are drawn in one call, rows too
    short to normalise are dropped, and the missing rows are drawn again in
    order.
    """
    out = np.empty((0, n))
    while len(out) < count:
        v = rng.normal(size=(count - len(out), n))
        norms = _row_norms(v)
        kept = norms > 1e-12
        out = np.concatenate((out, v[kept] / norms[kept, None]))
    return out


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


# The xi descent's Armijo trials step * 2^-j go in blocks of these sizes,
# one energy call per block.  A step never exceeds 1, so its at most 60
# trials above 1e-18 fit in the 62 of the blocks.
_XI_BLOCKS = (2, 4, 8, 16, 32)


def _xi_descent(u0: np.ndarray, p_plus: float, tol: float, max_iter: int):
    """Projected gradient descent on the unit sphere of the zero-mean subspace.

    Runs every start of the stack u0 at once.  Each start keeps its own step
    size and backtracking line search: it tries step * 2^-j in order, takes
    the first trial below val - 1e-4 step |g|^2 (Armijo's test), and grows
    its step by 1.3, up to 1.  The trials of all starts still searching go
    through one energy call per block of _XI_BLOCKS (_block_search), so
    each start follows the iterates of its descent run alone bit for bit.
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

        # the line search of the rows ids of a round, along -g
        def trial(k, s):
            return u[ids[k], None] - s[:, :, None, None] * g[k, None]

        def evaluate(cand, k, s):
            cand = cand - _period_means(cand)
            nc = _row_norms(cand)
            cand = cand / nc[:, None, None]
            cand_val = _difference_energy(cand, p_plus)
            return (nc > 1e-12) & (cand_val < val[ids[k]] - 1e-4 * s * gnorm_sq[k]), cand, cand_val

        def take(k, s, cand, cand_val):
            i = ids[k]
            u[i], val[i], step[i] = cand, cand_val, np.minimum(s * 1.3, 1.0)

        for _ in range(max_iter):
            if ids.size == 0:
                break
            g = _projected_gradient(u[ids], p_plus)
            gnorm = _row_norms(g)
            met = gnorm <= tol
            met_tol[ids[met]] = True
            ids, g = ids[~met], g[~met]
            # squared by C pow on Python floats, not numpy's x*x: the two differ
            # in the last bit for about one value in a thousand, and at a near
            # tie the Armijo test could then accept another step
            gnorm_sq = np.array([x**2 for x in gnorm[~met].tolist()])
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
    the zero-mean subspace, by projected gradient descent from `starts`
    random starts (at least 1), all run at once as one stacked array, their
    Armijo line-search trials evaluated in blocks (_xi_descent).  For
    p_plus = 2 the minimum is the smallest nonzero eigenvalue of the cycle
    Laplacian, 2 - 2*cos(2*pi/m), which "auto" returns directly; pass
    method="optimize" to force the optimizer (the eigenvalue then serves as
    its cross-check).  When no start meets the gradient tolerance a
    RuntimeWarning is issued and the best value found, an upper bound on
    the sharp constant, is returned.
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
    if p_plus < 1.0:
        raise ValueError(f"exponent must be >= 1, got {p_plus}")
    if method not in ("auto", "optimize", "eigen"):
        raise ValueError(f"unknown method {method!r}")
    if method == "eigen" and p_plus != 2.0:
        raise ValueError("eigenvalue shortcut only applies to p_plus = 2")
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if p_plus == 2.0 and method in ("auto", "eigen"):
        return 2.0 - 2.0 * math.cos(2.0 * math.pi / m), True

    rng = rng_for(seed, m, n)
    u0 = np.stack([_unit_direction(rng, m, n, zero_mean=True) for _ in range(starts)])
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
    (2 - 2*cos(2*pi/m) in closed form at p_plus = 2, otherwise a 32-start
    projected descent run on all starts at once, its Armijo trials tried in
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


def _signed_point(rng: np.random.Generator, magnitude: float, n: int):
    """A vector of the given Euclidean magnitude with random orientation.

    For n = 1 the single component is returned as a float.
    """
    if n == 1:
        return magnitude * (1.0 if rng.random() < 0.5 else -1.0)
    v = _unit_direction(rng, n, 1, zero_mean=False).reshape(-1)
    return magnitude * v


class _ScalarDraws:
    """One sample's draws, each a scalar call on rng: the per-sample stream."""

    def __init__(self, rng: np.random.Generator, m: int, n: int):
        self.rng, self.m, self.n = rng, m, n

    def k(self):
        return int(self.rng.integers(1, self.m + 1))

    def u(self):
        return self.rng.random()

    def point(self, magnitude):
        return _signed_point(self.rng, magnitude, self.n)

    def box(self, lo, hi):
        return self.rng.uniform(lo, hi, size=self.n)


class _BlockDraws:
    """The draws of all samples of an n = 1 block, as columns.

    k() is the column of k values and each u() the next column of doubles;
    point and box spend one column each and apply the scalar draws'
    expressions to it, so every entry keeps its scalar draw's bits.
    """

    def __init__(self, K: np.ndarray, D: np.ndarray):
        self.K = K
        self._columns = iter(D)

    def k(self):
        return self.K

    def u(self):
        return next(self._columns)

    def point(self, magnitude):
        return magnitude * np.where(self.u() < 0.5, 1.0, -1.0)

    def box(self, lo, hi):
        span = hi - lo
        if not math.isfinite(span):
            raise OverflowError("Range exceeds valid bounds")  # as Generator.uniform
        return lo + span * self.u()


def _lemire_threshold(m: int) -> int:
    """The low product below which rng.integers(1, m + 1) rejects a 32-bit draw."""
    return (2**32 - m) % m


def _decoded_draws(rng: np.random.Generator, count: int, m: int, doubles: int):
    """count samples of one k in [1, m] and then doubles uniforms each,
    decoded from rng's raw PCG64 words; None where the stream cannot be
    decoded, with rng as it was.

    numpy draws the k with Lemire's multiply-shift method on 32-bit halves
    of a word (Lemire, ACM TOMACS 29, 2019): a sample whose k finds no half
    buffered takes the low half of a fresh word and leaves the high half
    for the next sample's k, so each pair of samples spends 2 doubles + 1
    words.  A uniform is the top 53 bits of its own word times 2^-53.  A k
    whose low product u m mod 2^32 falls below _lemire_threshold(m) is
    drawn again by numpy, a chance of at most m / 2^32 per sample, and a
    generator that holds a buffered half starts the pairs one half later:
    both return None.  Returns K (int64) and a (doubles, count) array of
    uniforms, and leaves rng where the scalar draws would.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    if state["has_uint32"]:
        return None
    width = 2 * doubles + 1
    pairs = -(-count // 2)
    used = count // 2 * width + count % 2 * (doubles + 1)
    words = np.zeros(pairs * width, dtype=np.uint64)
    words[:used] = bitgen.random_raw(used)
    words = words.reshape(pairs, width)
    halves = np.stack((words[:, 0] & 0xFFFFFFFF, words[:, 0] >> 32), axis=1).reshape(-1)[:count]
    product = halves * np.uint64(m)
    if np.any((product & 0xFFFFFFFF) < _lemire_threshold(m)):
        bitgen.state = state
        return None
    # the scalar draws leave the last k-word's high half in the buffer, used
    # up by the last k at an even count
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = count % 2, int(words[-1, 0] >> 32)
    bitgen.state = state
    K = (product >> 32).astype(np.int64) + 1
    D = (words[:, 1:].reshape(2 * pairs, doubles)[:count] >> 11) * 2.0**-53
    return K, D.T


def _draw(rng: np.random.Generator, count: int, m: int, n: int, doubles: int, draw):
    """count samples of draw(source) -> (k, u1, u2, *extra), taken in order
    from the stream and returned as arrays K, U1, U2 and extra (None when
    draw returns no extra values).

    draw writes a condition's sampling formula once, over a source with
    k() (a period index in [1, m]), u() (a uniform in [0, 1)),
    point(magnitude) (a point of that magnitude with a random sign, or a
    random direction at n > 1) and box(lo, hi) (a point uniform in
    [lo, hi)^n); doubles is the number of uniforms one sample spends, one
    per u(), point (at n = 1) and box.  At n = 1 the whole block is decoded
    at once (_decoded_draws) and draw runs once on its columns; otherwise,
    or where the block cannot be decoded, draw runs once per sample on
    scalar draws.  Both give the same bits.
    """
    if n == 1:
        block = _decoded_draws(rng, count, m, doubles)
        if block is not None:
            K, u1, u2, *rest = draw(_BlockDraws(*block))
            return K, u1[:, None], u2[:, None], np.stack(rest, axis=1) if rest else None
    source = _ScalarDraws(rng, m, n)
    K = np.empty(count, dtype=np.int64)
    U1 = np.empty((count, n))
    U2 = np.empty((count, n))
    extra = None
    for i in range(count):
        K[i], U1[i], U2[i], *rest = draw(source)
        if rest:
            if extra is None:
                extra = np.empty((count, len(rest)))
            extra[i] = rest
    return K, U1, U2, extra


def _sampled_condition(
    name: str,
    nl: Nonlinearity,
    rng: np.random.Generator,
    count: int,
    seed: int,
    doubles: int,
    draw,
    margin,
) -> CheckReport:
    """Shared sampling step of A.4, A.5 and A.7 - A.9.

    Draws count samples with draw, each spending doubles uniforms (see
    _draw: one block at n = 1, one sample at a time at n > 1), evaluates F
    on all of them with one F_many call and gets the per-sample margins
    and witness fields from margin(F, K, extra) -> (margins, {field:
    values}).  The worst margin is the first minimum; NaN margins are
    ignored.  The condition holds when the worst margin is >=
    -SAMPLE_SLACK, and a violation carries its sample as the witness.  An
    overflow shows as an inf or NaN margin, not as a numpy warning.  When
    every margin is NaN no sample decided the condition: the verdict is
    inconclusive and the margin stays inf.
    """
    K, U1, U2, extra = _draw(rng, count, nl.m, nl.n, doubles, draw)
    with np.errstate(over="ignore", invalid="ignore"):
        vals, fields = margin(nl.F_many(K, U1, U2), K, extra)
    undecided = np.isnan(vals)
    candidates = np.where(undecided, math.inf, vals)
    i = int(np.argmin(candidates))
    worst = math.inf
    witness = None
    if candidates[i] < math.inf:
        worst = float(vals[i])
        witness = {"k": int(K[i]), "u1": U1[i].copy(), "u2": U2[i].copy()}
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
        samples=count,
        seed=seed,
    )


def check_growth(
    nl: Nonlinearity,
    g: GrowthProfile,
    sample_budget: int = 4000,
    seed: int = 0,
) -> list[CheckReport]:
    """Sampled verification of A.4, A.5 and the quotient limits A.6.1 - A.6.3.

    Samples are drawn from seeded streams, and F is evaluated on each
    condition's samples with one Nonlinearity.F_many call (one per variant
    for A.6.x).  At n = 1, A.4 and A.5 decode all their samples from one
    block of raw words, and at n > 1 they draw point by point (see _draw);
    A.6.x draws each shell's t values, signs (n = 1) or directions (n > 1)
    with one call each.  Either way the stream is that of point-by-point
    draws.  The bound of A.4 and the quotient denominators are computed
    with C pow, as Python's ** does, so the margins are bitwise those of a
    point-by-point loop.
    """
    if nl.m != g.m:
        raise ValueError("nonlinearity and profile periods differ")
    m, n = nl.m, nl.n
    count = max(sample_budget, 100)

    # A.4: lower growth bound for |u1|, |u2| >= M.
    def draw_a4(src):
        k = src.k()
        m1 = g.M + 10.0 * src.u()
        m2 = g.M + 10.0 * src.u()
        return k, src.point(m1), src.point(m2), m1, m2

    def margin_a4(F, K, extra):
        i = K - 1
        bound = (
            g.alpha1[i] * np.float_power(extra[:, 0], g.s.values[i])
            + g.alpha2[i] * np.float_power(extra[:, 1], g.r.values[i])
            + g.alpha3[i]
        )
        vals = F - bound
        return vals, {"F": vals + bound, "bound": bound}

    # A.5: F >= 0 on |u1| + |u2| <= 2*eta.
    def draw_a5(src):
        k = src.k()
        total = 2.0 * g.eta * src.u()
        t = src.u()
        return k, src.point(t * total), src.point((1.0 - t) * total)

    reports = [
        _sampled_condition("A.4", nl, rng_for(seed, 4), count, seed, 4, draw_a4, margin_a4),
        _sampled_condition(
            "A.5", nl, rng_for(seed, 5), count, seed, 4, draw_a5, lambda F, K, x: (F, {"F": F})
        ),
    ]

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
            # each t is shared by m samples, and each sample draws its u1,
            # then its u2, as _signed_point does
            t = np.repeat(np.concatenate(([0.0, 0.5, 1.0], rng.random(per_shell))), m)
            mags = np.stack((t * shell, (1.0 - t) * shell), axis=1).reshape(-1, 1)
            if n == 1:
                points = mags * np.where(rng.random(2 * rows) < 0.5, 1.0, -1.0)[:, None]
            else:
                points = mags * _unit_directions(rng, 2 * rows, n)
            block = slice(j * rows, (j + 1) * rows)
            U1[block], U2[block], T[block] = points[0::2], points[1::2], t
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
    merely touches zero on the sampled region still passes.  Each
    condition's samples come from its own seeded stream, decoded in one
    block at n = 1 and drawn point by point at n > 1, with the same values
    either way (see _draw), and F is evaluated on them with one
    Nonlinearity.F_many call.
    """
    count = max(sample_budget, 100)

    # A.7: F <= C on a large box.
    def draw_a7(src):
        k = src.k()
        u1 = src.box(-box_halfwidth, box_halfwidth)
        return k, u1, src.box(-box_halfwidth, box_halfwidth)

    def margin_a7(F, K, extra):
        vals = b.C - F
        return vals, {"F": b.C - vals}

    # A.8: F < 0 for 0 < |u1|, |u2| <= rho1.
    def draw_a8(src):
        k = src.k()
        u1 = src.point(b.rho1 * (1.0 - src.u() * 0.999999))
        return k, u1, src.point(b.rho1 * (1.0 - src.u() * 0.999999))

    def margin_a8(F, K, extra):
        vals = -F
        return vals, {"F": -vals}

    # A.9: F > 0 for rho2 < |u1|, |u2| <= rho3.
    def draw_a9(src):
        k = src.k()
        r1 = b.rho2 + (b.rho3 - b.rho2) * (1.0 - src.u() * 0.999999)
        r2 = b.rho2 + (b.rho3 - b.rho2) * (1.0 - src.u() * 0.999999)
        return k, src.point(r1), src.point(r2)

    return [
        _sampled_condition("A.7", nl, rng_for(seed, 7), count, seed, 2, draw_a7, margin_a7),
        _sampled_condition("A.8", nl, rng_for(seed, 8), count, seed, 4, draw_a8, margin_a8),
        _sampled_condition(
            "A.9", nl, rng_for(seed, 9), count, seed, 4, draw_a9, lambda F, K, x: (F, {"F": F})
        ),
    ]


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


# The ascent's iteration cap, and its line search's trials step * 2^-j,
# tried in blocks of these sizes: every row still searching puts its next
# block into one action call.  A step never exceeds 1, so its at most 54
# trials above 1e-16 fit in the 62 of the blocks.
_ASCENT_MAX_ITER = 400
_ASCENT_BLOCKS = (2, 4, 8, 16, 32)


def _ascend_rows(D0: np.ndarray, prob: Problem, t_last: float) -> np.ndarray:
    """Gradient ascent of d -> action(t_last * d) over the unit sphere, from each row of D0.

    Used to hunt for worst-case directions where the action fails to fall
    off; random directions almost surely miss them when they form a
    measure-zero set.  All rows of the (S, dim) stack ascend in lock step,
    each with its own step, value and active flag: a round evaluates the
    residual of every row still ascending in one call, and its line search
    (_block_search) evaluates the trials of every row still searching in one
    action call per block of _ASCENT_BLOCKS.  Row i tries d_i + s g_i /
    |g_i|, normalised, for s = step_i * 2^-j while s > 1e-16, moves to its
    first trial above its value, and sets its step to min(1.5 s, 1).  Dots
    and norms are one dot product per row (_row_dots, _row_norms), so each
    row follows the iterates of the ascent run alone bit for bit.  Where
    |g_i| overflows, g_i is first divided by its largest |entry|.  A row
    stops when its residual fails, when its projected gradient is below
    1e-10 max(1, |J|), when no trial above step 1e-16 increases J, or after
    _ASCENT_MAX_ITER rounds.  Returns the final directions as an (S, dim)
    array.
    """
    # the probe reports the values the rows reach, not overflow warnings
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = D0 / _row_norms(D0)[:, None]
        val = _action_or_limit_rows(t_last * d, prob)
        step = np.full(len(d), 0.1)
        ids = np.arange(len(d))  # the rows still ascending

        # the line search of the rows ids of a round, along g / gnorm
        def trial(k, s):
            return d[ids[k], None] + s[:, :, None] * g[k, None] / gnorm[k, None, None]

        def evaluate(cand, k, s):
            cand = cand / _row_norms(cand)[:, None]
            cand_val = _action_or_limit_rows(t_last * cand, prob)
            return cand_val > val[ids[k]], cand, cand_val

        def take(k, s, cand, cand_val):
            i = ids[k]
            d[i], val[i], step[i] = cand, cand_val, np.minimum(s * 1.5, 1.0)

        for _ in range(_ASCENT_MAX_ITER):
            if ids.size == 0:
                break
            try:
                r, ok = _residual_rows((t_last * d[ids]).reshape(-1, prob.m, prob.n), prob)
            except EvaluationError:  # a malformed callback value fails every row
                break
            ids, dk = ids[ok], d[ids[ok]]
            g = -t_last * r[ok].reshape(len(ids), prob.dim)
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
    hits.  The ascended rays follow the sampled ones, and the report stops
    at its first failing ray, so the ascent runs only when every sampled ray
    passes; samples counts the ascended rays either way.  Raises ValueError
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
    sampled = np.reshape(
        [_unit_direction(rng, prob.m, prob.n, zero_mean=False) for _ in range(directions)],
        (-1, prob.dim),
    )
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
        dirs.append(_unit_direction(rng, prob.m, prob.n, zero_mean=True))
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

    Per radius, the directions of all samples are drawn first and their
    level radii found in one _level_radii call; then each sample draws its
    interior t.  The level and interior points of all samples go through
    one stacked call.  The first sample, in sample order, whose level
    radius fails raises its error after the points before it are
    evaluated.
    """
    r_grid = [float(r) for r in r_grid]
    if not r_grid or any(r <= 0 for r in r_grid):
        raise ValueError("r_grid must contain positive radii")
    phi_values = []
    sup_values = []
    for ir, r in enumerate(r_grid):
        rngs = [rng_for(seed, ir, i) for i in range(samples_per_r)]
        V = np.reshape(
            [_unit_direction(rng, prob.m, prob.n, zero_mean=True) for rng in rngs],
            (samples_per_r, prob.m, prob.n),
        )
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
