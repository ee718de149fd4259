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
    euclidean_norm,
)
from .functional import action, mu, potential
from .operators import residual_values

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


def _entry_norms(u: PeriodicSequence) -> np.ndarray:
    return np.linalg.norm(u.values, axis=1)


def _inequality_report(name: str, margin: float, slack: float, witness: dict) -> CheckReport:
    """Report of one norm inequality, keeping the witness only for a violation.

    A NaN margin (both sides overflowed) decides nothing, and C.1 - C.3 are
    theorems, so it is inconclusive rather than a violation.  The scalar
    right-hand sides use np.float_power, the C pow that Python's float **
    calls: finite values keep their bits, and an overflow gives inf.
    """
    if math.isnan(margin):
        verdict = INCONCLUSIVE
    else:
        verdict = HOLDS if margin >= -slack else VIOLATED
    return CheckReport(name, verdict, margin, witness if verdict == VIOLATED else None, samples=1)


def check_c1(u: PeriodicSequence, s: float, slack: float = 1e-10) -> CheckReport:
    """sum_k |u(k)|^s <= m * ||u||^s for any s > 0."""
    if not s > 0:
        raise ValueError(f"C.1 requires s > 0, got {s}")
    lhs = float(np.sum(_entry_norms(u) ** s))
    rhs = u.m * float(np.float_power(euclidean_norm(u), s))
    witness = {"u": u.values, "s": s, "lhs": lhs, "rhs": rhs}
    return _inequality_report("C.1", rhs - lhs, slack, witness)


def check_c2(u: PeriodicSequence, s: float, slack: float = 1e-10) -> CheckReport:
    """sum_k |u(k)|^s >= m^((2-s)/2) * ||u||^s for s >= 2."""
    if s < 2:
        raise ValueError(f"C.2 requires s >= 2, got {s}")
    lhs = float(np.sum(_entry_norms(u) ** s))
    rhs = float(np.float_power(u.m, (2.0 - s) / 2.0) * np.float_power(euclidean_norm(u), s))
    witness = {"u": u.values, "s": s, "lhs": lhs, "rhs": rhs}
    return _inequality_report("C.2", lhs - rhs, slack, witness)


def check_c3(u: PeriodicSequence, p: ExponentFunction, slack: float = 1e-10) -> CheckReport:
    """sum_k |Delta u(k)|^p(k) <= m * (2^p_plus * ||u||^p_plus + 1)."""
    if p.m != u.m:
        raise ValueError("exponent and sequence periods differ")
    d = np.roll(u.values, -1, axis=0) - u.values
    lhs = float(np.sum(np.linalg.norm(d, axis=1) ** p.values))
    pp = p.p_plus
    rhs = u.m * float(np.float_power(2.0, pp) * np.float_power(euclidean_norm(u), pp) + 1.0)
    return _inequality_report("C.3", rhs - lhs, slack, {"u": u.values, "lhs": lhs, "rhs": rhs})


# ---------------------------------------------------------------------------
# Sharp discrete embedding constant on the zero-mean subspace
# ---------------------------------------------------------------------------


# The descent below works on a stack u of shape (starts, m, n); every
# reduction is taken per start, so a start's arithmetic does not depend on
# which other starts share the stack.


def _difference_energy(u: np.ndarray, p: float) -> np.ndarray:
    d = np.roll(u, -1, axis=1) - u
    return np.sum(np.linalg.norm(d, axis=2) ** p, axis=1)


def _difference_energy_grad(u: np.ndarray, p: float) -> np.ndarray:
    d = np.roll(u, -1, axis=1) - u
    norms = np.linalg.norm(d, axis=2)
    with np.errstate(divide="ignore"):
        mags = np.where(norms > 0.0, norms ** (p - 2.0), 0.0)
    a = mags[:, :, None] * d
    return p * (np.roll(a, 1, axis=1) - a)


def _start_norms(u: np.ndarray) -> np.ndarray:
    """Euclidean norm of each start.

    A stacked matmul of 1 x mn by mn x 1 takes one BLAS dot per start, the
    same sum np.linalg.norm takes of a single start; norm(..., axis=(1, 2))
    and einsum sum in another order and differ in the last bits.
    """
    f = u.reshape(len(u), math.prod(u.shape[1:]))
    return np.sqrt(f[:, None, :] @ f[:, :, None]).reshape(-1)


def _projected_gradient(u: np.ndarray, p: float) -> np.ndarray:
    """Gradient of the difference energy projected onto the sphere's tangent space."""
    g = _difference_energy_grad(u, p)
    g = g - g.mean(axis=1, keepdims=True)
    return g - np.sum(g * u, axis=(1, 2))[:, None, None] * u


def _xi_descent(u0: np.ndarray, p_plus: float, tol: float, max_iter: int):
    """Projected gradient descent on the unit sphere of the zero-mean subspace.

    Runs every start of the stack u0 at once.  Each start keeps its own step
    size and Armijo line search, and leaves the descent when its projected
    gradient meets tol, when its line search halves the step below 1e-18, or
    after max_iter steps.  Returns each start's final value and whether it
    converged.
    """
    u = u0 - u0.mean(axis=1, keepdims=True)
    u = u / _start_norms(u)[:, None, None]
    val = _difference_energy(u, p_plus)
    step = np.full(len(u), 0.1)
    g = np.empty_like(u)
    gnorm_sq = np.empty(len(u))
    met_tol = np.zeros(len(u), dtype=bool)
    active = np.ones(len(u), dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        g[active] = _projected_gradient(u[active], p_plus)
        gnorm = _start_norms(g[active])
        met_tol[active] = gnorm <= tol
        # squared by C pow on Python floats, not numpy's x*x: the two differ
        # in the last bit for about one value in a thousand, and at a near
        # tie the Armijo test could then accept another step
        gnorm_sq[active] = [x**2 for x in gnorm.tolist()]
        active &= ~met_tol
        searching = active.copy()
        while searching.any():
            ids = np.flatnonzero(searching)
            cand = u[ids] - step[ids, None, None] * g[ids]
            cand = cand - cand.mean(axis=1, keepdims=True)
            nc = _start_norms(cand)
            with np.errstate(divide="ignore", invalid="ignore"):
                cand = cand / nc[:, None, None]
            cand_val = _difference_energy(cand, p_plus)
            accept = (nc > 1e-12) & (
                cand_val < val[ids] - 1e-4 * step[ids] * gnorm_sq[ids]
            )
            took = ids[accept]
            u[took] = cand[accept]
            val[took] = cand_val[accept]
            step[took] = np.minimum(step[took] * 1.3, 1.0)
            missed = ids[~accept]
            step[missed] *= 0.5
            spent = missed[step[missed] <= 1e-18]
            active[spent] = False
            searching[took] = False
            searching[spent] = False
    converged = met_tol.copy()
    rest = ~met_tol
    gnorm = _start_norms(_projected_gradient(u[rest], p_plus))
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
    random starts (at least 1), all run at once as one stacked array.  For
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
    F > 0 on the annulus rho2 < |u1|, |u2| <= rho3.
    """

    C: float
    rho1: float
    rho2: float
    rho3: float

    def __post_init__(self):
        if not self.C > 0:
            raise ValueError(f"C must be positive, got {self.C}")
        if not (0.0 < self.rho1 < self.rho2 <= self.rho3):
            raise ValueError(
                f"radii must satisfy 0 < rho1 < rho2 <= rho3, got "
                f"({self.rho1}, {self.rho2}, {self.rho3})"
            )


@dataclasses.dataclass(frozen=True)
class Thresholds:
    """Lambda thresholds and constants derived from a problem and its profile."""

    lambda1: float
    lambda2: float
    lambda3: float
    xi: float
    r2: Optional[float] = None
    # False when xi's descent did not converge and xi is only an upper bound
    xi_converged: bool = True


def thresholds(prob: Problem, growth: GrowthProfile, rho1: float | None = None) -> Thresholds:
    """Sufficient lambda thresholds from the growth profile.

    lambda_i = 2^p_plus * m^(p_plus/2) / (p_minus * a) with a the relevant
    minimum of alpha1, alpha2 or their sum; infinite when a vanishes.  Also
    computes the sharp embedding constant xi with xi_constant's defaults
    (2 - 2*cos(2*pi/m) in closed form at p_plus = 2, otherwise a 32-start
    projected descent run on all starts at once), and, when rho1 is given,
    the sublevel radius r2 = sum_k (1/p(k)) (2*rho1)^p(k).  `pklap check`
    takes xi from here rather than computing it a second time.  When no
    start of the descent converges, xi is only an upper bound on the sharp
    constant: a RuntimeWarning is issued and xi_converged is False.
    """
    pp = prob.exponent.p_plus
    pm = prob.exponent.p_minus
    # C pow, so a huge p_plus gives an infinite threshold instead of raising
    num = float(np.float_power(2.0, pp) * np.float_power(prob.m, pp / 2.0))

    def ratio(denom: float) -> float:
        return num / (pm * denom) if denom > 0.0 else math.inf

    a1 = growth.alpha1_min
    a2 = growth.alpha2_min
    r2 = None
    if rho1 is not None:
        if not rho1 > 0:
            raise ValueError(f"rho1 must be positive, got {rho1}")
        p = prob.exponent.values
        r2 = float(np.sum((2.0 * rho1) ** p / p))
    xi, xi_converged = _xi_search(prob.m, prob.n, pp)
    return Thresholds(
        lambda1=ratio(a1),
        lambda2=ratio(a2),
        lambda3=ratio(a1 + a2),
        xi=xi,
        r2=r2,
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


def _draw(rng: np.random.Generator, count: int, n: int, draw):
    """count samples of draw(rng) -> (k, u1, u2, *extra), taken in order
    from the stream and stored in preallocated arrays K, U1, U2, extra."""
    K = np.empty(count, dtype=np.int64)
    U1 = np.empty((count, n))
    U2 = np.empty((count, n))
    extra = None
    for i in range(count):
        K[i], U1[i], U2[i], *rest = draw(rng)
        if rest:
            if extra is None:
                extra = np.empty((count, len(rest)))
            extra[i] = rest
    return K, U1, U2, extra


def _sampled_condition(
    name: str, nl: Nonlinearity, rng: np.random.Generator, count: int, seed: int, draw, margin
) -> CheckReport:
    """Shared sampling loop of A.4, A.5 and A.7 - A.9.

    Draws count samples with draw (see _draw), evaluates F on all of them
    with one F_many call and gets the per-sample margins and witness
    fields from margin(F, K, extra) -> (margins, {field: values}).  The
    worst margin is the first minimum; NaN margins are ignored.  The
    condition holds when the worst margin is >= -SAMPLE_SLACK, and a
    violation carries its sample as the witness.
    """
    K, U1, U2, extra = _draw(rng, count, nl.n, draw)
    vals, fields = margin(nl.F_many(K, U1, U2), K, extra)
    candidates = np.where(np.isnan(vals), math.inf, vals)
    i = int(np.argmin(candidates))
    worst = math.inf
    witness = None
    if candidates[i] < math.inf:
        worst = float(vals[i])
        witness = {"k": int(K[i]), "u1": U1[i].copy(), "u2": U2[i].copy()}
        witness.update({key: float(v[i]) for key, v in fields.items()})
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

    Samples are drawn point by point from seeded streams, and F is
    evaluated on each condition's samples with one Nonlinearity.F_many call
    (one per variant for A.6.x); the bound of A.4 and the quotient
    denominators are computed with C pow, as Python's ** does, so the
    margins are bitwise those of a point-by-point loop.
    """
    if nl.m != g.m:
        raise ValueError("nonlinearity and profile periods differ")
    m, n = nl.m, nl.n
    count = max(sample_budget, 100)

    # A.4: lower growth bound for |u1|, |u2| >= M.
    def draw_a4(rng):
        k = int(rng.integers(1, m + 1))
        m1 = g.M + 10.0 * rng.random()
        m2 = g.M + 10.0 * rng.random()
        return k, _signed_point(rng, m1, n), _signed_point(rng, m2, n), m1, m2

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
    def draw_a5(rng):
        k = int(rng.integers(1, m + 1))
        total = 2.0 * g.eta * rng.random()
        t = rng.random()
        return k, _signed_point(rng, t * total, n), _signed_point(rng, (1.0 - t) * total, n)

    reports = [
        _sampled_condition("A.4", nl, rng_for(seed, 4), count, seed, draw_a4, margin_a4),
        _sampled_condition(
            "A.5", nl, rng_for(seed, 5), count, seed, draw_a5, lambda F, K, x: (F, {"F": F})
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
        i = 0
        for shell in shells:
            for t in [0.0, 0.5, 1.0] + [rng.random() for _ in range(per_shell)]:
                for _ in range(m):
                    U1[i] = _signed_point(rng, t * shell, n)
                    U2[i] = _signed_point(rng, (1.0 - t) * shell, n)
                    T[i] = t
                    i += 1
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
    merely touches zero on the sampled region still passes.  F is evaluated
    on each condition's samples with one Nonlinearity.F_many call.
    """
    m, n = nl.m, nl.n
    count = max(sample_budget, 100)

    # A.7: F <= C on a large box.
    def draw_a7(rng):
        k = int(rng.integers(1, m + 1))
        u1 = rng.uniform(-box_halfwidth, box_halfwidth, size=n)
        return k, u1, rng.uniform(-box_halfwidth, box_halfwidth, size=n)

    def margin_a7(F, K, extra):
        vals = b.C - F
        return vals, {"F": b.C - vals}

    # A.8: F < 0 for 0 < |u1|, |u2| <= rho1.
    def draw_a8(rng):
        k = int(rng.integers(1, m + 1))
        u1 = _signed_point(rng, b.rho1 * (1.0 - rng.random() * 0.999999), n)
        return k, u1, _signed_point(rng, b.rho1 * (1.0 - rng.random() * 0.999999), n)

    def margin_a8(F, K, extra):
        vals = -F
        return vals, {"F": -vals}

    # A.9: F > 0 for rho2 < |u1|, |u2| <= rho3.
    def draw_a9(rng):
        k = int(rng.integers(1, m + 1))
        r1 = b.rho2 + (b.rho3 - b.rho2) * (1.0 - rng.random() * 0.999999)
        r2 = b.rho2 + (b.rho3 - b.rho2) * (1.0 - rng.random() * 0.999999)
        return k, _signed_point(rng, r1, n), _signed_point(rng, r2, n)

    return [
        _sampled_condition("A.7", nl, rng_for(seed, 7), count, seed, draw_a7, margin_a7),
        _sampled_condition("A.8", nl, rng_for(seed, 8), count, seed, draw_a8, margin_a8),
        _sampled_condition(
            "A.9", nl, rng_for(seed, 9), count, seed, draw_a9, lambda F, K, x: (F, {"F": F})
        ),
    ]


# ---------------------------------------------------------------------------
# Anti-coercivity probe along rays
# ---------------------------------------------------------------------------


def _action_or_neg_inf(x: np.ndarray, prob: Problem) -> float:
    try:
        val = action(x.reshape(prob.m, prob.n), prob)
    except EvaluationError:
        return -math.inf
    return val


def _ascend_terminal_action(
    d0: np.ndarray, prob: Problem, t_last: float, max_iter: int = 400
) -> np.ndarray:
    """Gradient ascent of d -> action(t_last * d) over the unit sphere.

    Used to hunt for worst-case directions where the action fails to fall
    off; random directions almost surely miss them when they form a
    measure-zero set.
    """
    d = d0 / np.linalg.norm(d0)
    val = _action_or_neg_inf(t_last * d, prob)
    step = 0.1
    for _ in range(max_iter):
        try:
            g = -t_last * residual_values((t_last * d).reshape(prob.m, prob.n), prob).reshape(-1)
        except EvaluationError:
            break
        g = g - float(np.dot(g, d)) * d
        gnorm = float(np.linalg.norm(g))
        if gnorm <= 1e-10 * max(1.0, abs(val)):
            break
        improved = False
        while step > 1e-16:
            cand = d + step * g / max(gnorm, 1e-300)
            cand = cand / np.linalg.norm(cand)
            cand_val = _action_or_neg_inf(t_last * cand, prob)
            if cand_val > val:
                d, val = cand, cand_val
                step = min(step * 1.5, 1.0)
                improved = True
                break
            step *= 0.5
        if not improved:
            break
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
    given increasing radii t.  A direction passes when the values strictly
    decrease from the second radius onward and the last value undercuts the
    first by drop_margin.  Overflow of the potential at large radii counts
    as decrease (the ray provides -infinity evidence).

    With optimize_worst the direction pool is augmented by gradient-ascent
    maximisation of the terminal value, which can expose rays of
    non-decrease that random sampling almost never hits.
    """
    radii = [float(t) for t in radii]
    if len(radii) < 2 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing with at least two entries")
    rng = rng_for(seed, 17)
    pool = [
        _unit_direction(rng, prob.m, prob.n, zero_mean=False).reshape(-1)
        for _ in range(directions)
    ]
    if optimize_worst:
        ranked = sorted(pool, key=lambda d: -_action_or_neg_inf(radii[-1] * d, prob))
        for d0 in ranked[:4]:
            pool.append(_ascend_terminal_action(d0, prob, radii[-1]))

    def decreases(a: float, c: float) -> bool:
        if c == -math.inf:
            return True
        return c < a

    worst_margin = math.inf
    witness = None
    overflow = False
    for idx, d in enumerate(pool):
        vals = [_action_or_neg_inf(t * d, prob) for t in radii]
        overflow = overflow or any(v == -math.inf for v in vals)
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
                samples=len(pool),
                seed=seed,
                detail={"overflow": overflow},
            )
        worst_margin = min(worst_margin, drop)
    return CheckReport(
        "anticoercivity",
        HOLDS,
        worst_margin,
        None,
        samples=len(pool),
        seed=seed,
        detail={"overflow": overflow},
    )


# ---------------------------------------------------------------------------
# Strict-inequality conditions on the potential over the zero-mean subspace
# ---------------------------------------------------------------------------


def _level_radius(prob: Problem, v: np.ndarray, r: float) -> float:
    """t > 0 with mu(t*v) = r, for a nonzero zero-mean direction v."""
    from scipy.optimize import brentq

    t_hi = 1.0
    while mu(t_hi * v, prob) < r:
        t_hi *= 2.0
        if t_hi > 1e12:
            raise EvaluationError("could not bracket the sublevel radius")
    if mu(t_hi * v, prob) == r:
        return t_hi
    return float(brentq(lambda t: mu(t * v, prob) - r, 0.0, t_hi, xtol=1e-14))


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
    for _ in range(ndirs):
        v = _unit_direction(rng, prob.m, prob.n, zero_mean=True)
        t_r = _level_radius(prob, v, r)
        jl = potential(t_r * v, prob)
        inf_level = min(inf_level, jl)
        for _ in range(per_dir):
            t = rng.random() * t_r
            val = potential(t * v, prob)
            if val < inf_sub:
                inf_sub = val
                arg_sub = t * v
            if val < inf_global:
                inf_global = val
                arg_global = t * v
            t_big = rng.random() * expand * t_r
            val_big = potential(t_big * v, prob)
            if val_big < inf_global:
                inf_global = val_big
                arg_global = t_big * v

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
    """
    r_grid = [float(r) for r in r_grid]
    if not r_grid or any(r <= 0 for r in r_grid):
        raise ValueError("r_grid must contain positive radii")
    phi_values = []
    sup_values = []
    for ir, r in enumerate(r_grid):
        sup_j = potential(np.zeros((prob.m, prob.n)), prob)
        interior: list[tuple[float, float]] = [(sup_j, 0.0)]
        for i in range(samples_per_r):
            rng = rng_for(seed, ir, i)
            v = _unit_direction(rng, prob.m, prob.n, zero_mean=True)
            t_r = _level_radius(prob, v, r)
            sup_j = max(sup_j, potential(t_r * v, prob))
            t = rng.random() * t_r
            u = t * v
            interior.append((potential(u, prob), mu(u, prob)))
            sup_j = max(sup_j, interior[-1][0])
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
