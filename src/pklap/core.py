"""Domain types for m-periodic vector sequences.

The state space is the set of m-periodic sequences u with values in R^n,
identified with an (m*n)-dimensional Euclidean space.  Sequence entries are
addressed by logical indices k = 1..m; any integer index is accepted and
wrapped periodically.  The space splits orthogonally into the constant
sequences W and the zero-mean sequences Y.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Optional

import numpy as np

# Construction's zero-at-zero check is essentially exact for sane potentials.
ZERO_AT_ZERO_TOL = 1e-12
MEAN_TOL = 1e-8


class EvaluationError(RuntimeError):
    """A user-supplied callable produced a non-finite or malformed value."""


def wrap_index(k: int, m: int) -> int:
    """Map an arbitrary integer index to its representative in 1..m."""
    if m < 2:
        raise ValueError(f"period m must be >= 2, got {m}")
    return (int(k) - 1) % m + 1


def _as_values(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"sequence values must be (m,) or (m, n), got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError(f"period m must be >= 2, got {arr.shape[0]}")
    if arr.shape[1] < 1:
        raise ValueError("component dimension n must be >= 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sequence values must be finite")
    return arr


@dataclasses.dataclass(frozen=True)
class PeriodicSequence:
    """An m-periodic sequence of vectors in R^n, stored as an (m, n) array.

    Instances are immutable; the backing array is marked read-only.  A 1-D
    input of length m is promoted to shape (m, 1).
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _as_values(self.values).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @classmethod
    def zeros(cls, m: int, n: int = 1) -> "PeriodicSequence":
        return cls(np.zeros((m, n)))

    @classmethod
    def constant(cls, a, m: int) -> "PeriodicSequence":
        """The constant sequence whose every entry equals the vector a."""
        row = np.atleast_1d(np.asarray(a, dtype=float)).reshape(-1)
        return cls(np.tile(row, (m, 1)))

    @classmethod
    def from_flat(cls, x, m: int, n: int = 1) -> "PeriodicSequence":
        arr = np.asarray(x, dtype=float).reshape(m, n)
        return cls(arr)

    def value(self, k: int) -> np.ndarray:
        """Entry at logical index k (any integer), as a vector of length n."""
        return self.values[wrap_index(k, self.m) - 1]

    def flat(self) -> np.ndarray:
        """A writable flat copy of the values, row-major over k."""
        return self.values.reshape(-1).copy()

    def __add__(self, other: "PeriodicSequence") -> "PeriodicSequence":
        return PeriodicSequence(self.values + other.values)

    def __sub__(self, other: "PeriodicSequence") -> "PeriodicSequence":
        return PeriodicSequence(self.values - other.values)

    def __mul__(self, scalar) -> "PeriodicSequence":
        return PeriodicSequence(self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "PeriodicSequence":
        return PeriodicSequence(-self.values)


def euclidean_norm(u: PeriodicSequence) -> float:
    """Euclidean norm over one period, sqrt(sum_k |u(k)|^2)."""
    return float(np.linalg.norm(u.values))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b, two (B, d) stacks.

    np.vecdot (numpy >= 2.0) runs, per row, the dot loop that np.dot runs
    on two vectors, as a stacked 1 x d by d x 1 matmul does at about twice
    the cost per row, so entry i is bitwise float(np.dot(a[i], b[i])); a
    sum of a * b along the rows adds in another order and differs in the
    last bits.
    """
    return np.vecdot(a, b)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (B, ...) stack, such as (B, dim) or (B, m, n).

    One dot product per row (_row_dots) and its square root, so entry b is
    bitwise float(np.linalg.norm(rows[b])), which also takes one dot
    product; norm(..., axis=1) and einsum sum in another order and differ
    in the last bits.
    """
    f = rows.reshape(len(rows), math.prod(rows.shape[1:]))
    return np.sqrt(_row_dots(f, f))


def _shifted(x: np.ndarray) -> np.ndarray:
    """A (B, m, n) stack shifted by one period, row k-1 holding u(k+1): the
    copy np.roll(x, -1, axis=1) makes, bitwise, at less cost per call;
    _shifted_back is np.roll(x, 1, axis=1), row k-1 holding u(k-1)."""
    return np.concatenate((x[:, 1:], x[:, :1]), axis=1)


def _shifted_back(x: np.ndarray) -> np.ndarray:
    return np.concatenate((x[:, -1:], x[:, :-1]), axis=1)


def _entry_norms(d: np.ndarray) -> np.ndarray:
    """np.linalg.norm(d, axis=-1) as numpy computes it for real d, bitwise, without its checks."""
    return np.sqrt(np.add.reduce(d * d, axis=-1))


@functools.lru_cache(maxsize=16)
def _block_halvings(blocks: tuple) -> tuple:
    """2^-j, j = 0 .. sum(blocks) - 1, one read-only slice per block, made once per blocks."""
    halvings = np.ldexp(1.0, -np.arange(sum(blocks)))
    halvings.flags.writeable = False
    return tuple(np.split(halvings, np.cumsum(blocks)[:-1]))


def _block_search(step, blocks, trial, evaluate, take, floor=None, base=None) -> np.ndarray:
    """Backtracking search of B rows in lock step, their trials tried in blocks.

    Row i tries t = step[i] * 2^-j, j = 0 .. sum(blocks) - 1, in order and
    takes its first accepted trial, as its own sequential loop would.  A
    trial is live while t > floor or, given base instead, while no trial of
    the row so far equals base[i] byte for byte; a row stops unaccepted when
    its live trials end.  Per block, trial(k, t) gives the (R, size, ...)
    points of the rows k still searching (an index array that shrinks from
    block to block), one evaluate(points, k, t) call gets their live trials
    flattened in row order and returns (accepted, *outputs) per trial, and
    take(k, t, *outputs) gets each accepting row's first accepted trial.
    A block whose trials are all live, the common case, is passed on as it
    is, with no mask gathered or scattered.  Returns the accepted mask.
    """
    if base is not None:
        base = base.reshape(len(base), 1, math.prod(base.shape[1:])).view(np.uint64)
    found = np.zeros(len(step), dtype=bool)
    k = np.arange(len(step))
    for halvings in _block_halvings(blocks):
        if k.size == 0:
            break
        t = step[k][:, None] * halvings
        points = trial(k, t)
        if base is None:
            live = t > floor
        else:
            same = (points.reshape(*t.shape, -1).view(np.uint64) == base[k]).all(axis=2)
            live = same.cumsum(axis=1) == 0 if same.any() else None
        if live is None or live.all():
            size, t_live = t.shape[1], t.reshape(-1)
            good, *outs = evaluate(points.reshape(-1, *points.shape[2:]), k.repeat(size), t_live)
            accepted, starts, last_live = good.reshape(t.shape), np.arange(0, t_live.size, size), True
        else:
            t_live = t[live]
            if t_live.size == 0:
                break
            counts = live.sum(axis=1)  # live trials are a prefix of each row's block
            good, *outs = evaluate(points[live], k.repeat(counts), t_live)
            accepted = np.zeros(live.shape, dtype=bool)
            accepted[live] = good
            starts, last_live = counts.cumsum() - counts, live[:, -1]
        hit = accepted.any(axis=1)
        pos = (starts + accepted.argmax(axis=1))[hit]
        taking = k[hit]
        take(taking, t_live[pos], *(out[pos] for out in outs))
        found[taking] = True
        k = k[last_live & ~hit]
    return found


def in_Y(u: PeriodicSequence, tol: float = MEAN_TOL) -> bool:
    """Whether u has (numerically) zero mean, relative to its size."""
    mean_norm = float(np.linalg.norm(u.values.mean(axis=0))) * math.sqrt(u.m)
    return mean_norm <= tol * max(1.0, euclidean_norm(u))


@dataclasses.dataclass(frozen=True)
class ExponentFunction:
    """An m-periodic variable exponent k -> p(k), with every p(k) >= 1.

    all_two records whether every p(k) is exactly 2, where phi_p is the
    identity and the residual takes the differences themselves as the flux.
    """

    values: np.ndarray
    all_two: bool = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).reshape(-1).copy()
        if arr.size < 2:
            raise ValueError("exponent function needs at least m = 2 entries")
        if not np.all(np.isfinite(arr)):
            raise ValueError("exponents must be finite")
        if np.any(arr < 1.0):
            raise ValueError(f"exponents must be >= 1, got min {arr.min()}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "all_two", bool((arr == 2.0).all()))

    @property
    def m(self) -> int:
        return self.values.size

    @property
    def p_minus(self) -> float:
        return float(self.values.min())

    @property
    def p_plus(self) -> float:
        return float(self.values.max())

    @classmethod
    def constant(cls, p: float, m: int) -> "ExponentFunction":
        return cls(np.full(m, float(p)))

    def at(self, k: int) -> float:
        return float(self.values[wrap_index(k, self.m) - 1])


def _scalar(value, what: str) -> float:
    try:
        out = float(np.asarray(value, dtype=float).reshape(()))
    except (TypeError, ValueError) as exc:
        raise EvaluationError(f"{what} did not return a scalar: {value!r}") from exc
    return out


def _vector(value, n: int, what: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float)).reshape(-1)
    if arr.size != n:
        raise EvaluationError(f"{what} returned {arr.size} components, expected {n}")
    return arr


def _rows(value, shape: tuple, what: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise EvaluationError(f"{what} returned shape {arr.shape}, expected {shape}")
    return arr


def _read_only(arr, dtype=float) -> np.ndarray:
    view = np.asarray(arr, dtype=dtype).view()
    view.flags.writeable = False
    return view


def _point_kernel(fn: Callable, shape: tuple) -> Callable:
    """An array kernel (K, U1, U2) -> (N, *shape) over a per-point callback:
    it stores fn(k, u1, u2) at each point."""

    def kernel(K, U1, U2):
        out = np.empty((K.size, *shape))
        for i, k in enumerate(K.tolist()):
            out[i] = fn(k, U1[i], U2[i])
        return out

    return kernel


_PERIODS: dict = {}  # m -> K of the largest stack coupling has seen


def _stack_periods(m: int, count: int) -> np.ndarray:
    """The periods 1..m of count stacked sequences: a read-only prefix of an
    array made once per m, grown for a larger stack."""
    K = _PERIODS.get(m)
    if K is None or K.size < m * count:
        K = np.tile(np.arange(1, m + 1), count)
        K.flags.writeable = False
        _PERIODS[m] = K
    return K[: m * count]


@dataclasses.dataclass(frozen=True)
class Nonlinearity:
    """A discrete potential F(k, u1, u2), m-periodic in k with u1, u2 in R^n,
    given by two array kernels on N pairs (K, U1, U2).

    K is an int array of N periods in 1..m, U1 and U2 are (N, n) arrays.  F
    returns the N values of F, and dF the tuple (F2, F3) of the (N, n)
    gradients of F in u1 and u2 at the same pairs, so the terms the two
    partials share are computed once.  The coupling term entering the
    difference equation is assembled from the two partials of consecutive
    periods:

        f(k, u1, u2, u3) = F2(k-1, u2, u3) + F3(k, u1, u2)

    A family given by per-point callbacks (k, u1, u2) is built with
    from_points, which wraps them into kernels of the same form.

    An optional closed form f_direct can be attached.  Construction does not
    call it: the test suite compares it with the assembled expression for
    every built-in that has one.

    Construction enforces F(k, 0, 0) = 0 for every k (the potential is
    normalised at the origin), with one call of the F kernel on those m pairs.

    Every caller evaluates the potential through F_many (F on N points at
    once) and coupling (f on every row of a sequence, or of a stack of
    sequences), or, on the pairs (k, u(k+1), u(k)) whose periods and shifted
    copies it has made (operators._stack_pass, and the sampled checks of
    analysis), through _F_points and _assembled, which those two call; no
    other module calls the kernels.  F_at and f are one-pair calls of
    F_many and _assembled.
    """

    m: int
    F: Callable
    dF: Callable
    f_direct: Optional[Callable] = None
    n: int = 1
    name: str = ""
    is_zero: bool = False
    even_symmetric: bool = False

    @classmethod
    def from_points(
        cls, m: int, F: Callable, F2_prime: Callable, F3_prime: Callable, n: int = 1, **kwargs
    ) -> "Nonlinearity":
        """A family given by per-point callbacks (k, u1, u2): F returns the
        value of F, F2_prime and F3_prime its gradients in u1 and u2.  The
        two kernels call them at each pair, on a period in 1..m and float
        rows of the (N, n) arrays, and check each value.  Other keyword
        arguments are passed to the constructor.
        """
        partials = _point_kernel(
            lambda k, u1, u2: (
                _vector(F2_prime(k, u1, u2), n, "F2_prime"),
                _vector(F3_prime(k, u1, u2), n, "F3_prime"),
            ),
            (2, n),
        )
        return cls(
            m,
            _point_kernel(lambda k, u1, u2: _scalar(F(k, u1, u2), f"F({k},.,.)"), ()),
            lambda K, U1, U2: tuple(partials(K, U1, U2).swapaxes(0, 1)),
            n=n,
            **kwargs,
        )

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"period m must be >= 2, got {self.m}")
        if self.n < 1:
            raise ValueError(f"component dimension n must be >= 1, got {self.n}")
        # one F-kernel call on the m pairs (k, 0, 0); a malformed F raises
        # the EvaluationError evaluation would
        zero = _read_only(np.zeros((self.m, self.n)))
        vals = np.abs(self._F_points(_stack_periods(self.m, 1), zero, zero))
        bad = np.flatnonzero(~(vals <= ZERO_AT_ZERO_TOL))  # NaN included
        if bad.size:
            raise ValueError(
                f"potential must vanish at the origin: |F({bad[0] + 1},0,0)| = {vals[bad[0]]:.3e}"
            )

    def F_at(self, k: int, u1, u2) -> float:
        """F at one pair: F_many on (k, u1, u2)."""
        return float(self.F_many([k], np.reshape(u1, (1, -1)), np.reshape(u2, (1, -1)))[0])

    def f(self, k: int, u1, u2, u3) -> np.ndarray:
        """Coupling term at one period: one dF call on the pairs (k, u1, u2)
        and (k-1, u2, u3), F2 of the second plus F3 of the first."""
        U = _read_only(np.stack([np.reshape(u, self.n) for u in (u1, u2, u3)]))
        K = (np.array([k, k - 1], dtype=np.int64) - 1) % self.m + 1
        return self._assembled(K, U[None, :2], U[None, 1:])[0, 0]

    def F_many(self, K, U1, U2) -> np.ndarray:
        """F at N points at once: K holds N periods (any integers, wrapped
        into 1..m), U1 and U2 are (N, n).  One F-kernel call, of which F_at is
        the one-point form, so a kernel that computes each pair on its own
        (every built-in's, and from_points') gives F_at's bits at every point.
        Raises ValueError on point arrays of another shape and EvaluationError
        on a malformed return value.
        """
        K = (np.asarray(K, dtype=np.int64).reshape(-1) - 1) % self.m + 1
        shape = (K.size, self.n)
        U1, U2 = _read_only(U1), _read_only(U2)
        if U1.shape != shape or U2.shape != shape:
            raise ValueError(f"point arrays {U1.shape}, {U2.shape} do not match {shape}")
        return self._F_points(K, U1, U2)

    def _F_points(self, K, U1, U2) -> np.ndarray:
        """F_many without its checks, for int64 periods K already in 1..m and
        (N, n) arrays U1 and U2, read-only views the caller made: one kernel
        call."""
        return _rows(self.F(K, U1, U2), (K.size,), "F")

    def coupling(self, vals) -> np.ndarray:
        """Coupling term f(k, u(k+1), u(k), u(k-1)) on every row of an (m, n)
        sequence array, or of each sequence in a (B, m, n) stack; row k-1
        holds entry k.  One dF call, so a kernel that computes each pair on
        its own gives f's bits row by row.
        """
        vals = _read_only(vals)
        if vals.ndim not in (2, 3) or vals.shape[-2:] != (self.m, self.n):
            raise ValueError(f"sequence shape {vals.shape} does not match ({self.m}, {self.n})")
        stack = vals.reshape(-1, self.m, self.n)
        K = _stack_periods(self.m, len(stack))
        return self._assembled(K, _shifted(stack), stack).reshape(vals.shape)

    def _assembled(self, K, up, u) -> np.ndarray:
        """The coupling term F2(k-1, u(k), u(k-1)) + F3(k, u(k+1), u(k))
        on every row of a (B, L, n) stack u of sequences, up holding u(k+1)
        in row k-1 and K the B * L periods in 1..m: one dF call on the pairs
        (K, up, u), whose F2 is then shifted by one row within each sequence,
        as the row before k holds the pair k-1.  Raises EvaluationError on a
        malformed kernel value."""
        flat = (K.size, u.shape[-1])
        pair = self.dF(K, up.reshape(flat), u.reshape(flat))
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise EvaluationError(f"dF returned a {type(pair).__name__}, expected the tuple (F2, F3)")
        a = _rows(pair[0], flat, "dF's F2").reshape(u.shape)
        b = _rows(pair[1], flat, "dF's F3").reshape(u.shape)
        return _shifted_back(a) + b


@dataclasses.dataclass(frozen=True)
class Problem:
    """One fully specified instance of the periodic difference system.

    Couples a period m, component dimension n, a variable exponent p(k),
    a nonlinearity and a positive parameter lam (the lambda multiplying
    the coupling term).
    """

    m: int
    n: int
    exponent: ExponentFunction
    nonlinearity: Nonlinearity
    lam: float

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"period m must be >= 2, got {self.m}")
        if self.n < 1:
            raise ValueError(f"component dimension n must be >= 1, got {self.n}")
        if self.exponent.m != self.m:
            raise ValueError(
                f"exponent period {self.exponent.m} does not match problem period {self.m}"
            )
        if self.nonlinearity.m != self.m:
            raise ValueError(
                f"nonlinearity period {self.nonlinearity.m} does not match problem period {self.m}"
            )
        if self.nonlinearity.n != self.n:
            raise ValueError(
                f"nonlinearity dimension {self.nonlinearity.n} does not match problem n {self.n}"
            )
        if not (self.lam > 0.0) or not math.isfinite(self.lam):
            raise ValueError(f"lambda must be a positive real, got {self.lam}")

    @property
    def dim(self) -> int:
        return self.m * self.n

    def with_lambda(self, lam: float) -> "Problem":
        return dataclasses.replace(self, lam=float(lam))


@dataclasses.dataclass(frozen=True)
class SolutionRecord:
    """One located critical point together with its verification data.

    residual_norm is the Euclidean norm of the full difference-equation
    residual re-evaluated at u.  classification comes from the eigenvalue
    signs of the finite-difference Hessian of the action; morse_index is the
    number of negative eigenvalues.
    """

    u: PeriodicSequence
    residual_norm: float
    action_value: float
    morse_index: int
    in_Y: bool
    classification: str
    method: str = ""
    start_index: Optional[int] = None
    converged: bool = True
    flags: tuple = ()


# The subspaces a solver works on: all of H_m, or the zero-mean sequences Y.
SUBSPACE_FULL = "H_m"
SUBSPACE_Y = "Y"


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Settings shared by every solver of `pklap.solvers`: random starts per
    stage (>= 1), the residual norm a solution must meet, the relative
    distance under which two solutions are one, and the seed of every random
    draw, in [0, 2**32), as the generators take it modulo 2**32.  int fields
    reject bools; float fields must be finite and positive.
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
            if field.type != "float":
                continue
            try:
                good = math.isfinite(value) and value > 0
            except OverflowError:
                raise ValueError(f"{field.name} is an integer too large for a float") from None
            if not good:
                raise ValueError(f"{field.name} must be finite and positive, got {value!r}")
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if not 0 <= self.seed < 2**32:
            raise ValueError(f"seed must lie in [0, 2**32), got {self.seed}")
