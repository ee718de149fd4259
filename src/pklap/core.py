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

# Tolerances used by construction-time checks.  The zero-at-zero check is
# essentially exact for sane potentials; the assembled-derivative check
# allows for rounding in user-supplied closed forms.
ZERO_AT_ZERO_TOL = 1e-12
ASSEMBLY_TOL = 1e-9
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

    A stacked matmul of 1 x d by d x 1, which numpy computes as one dot
    product per row, so entry i is bitwise float(np.dot(a[i], b[i])); a
    sum of a * b along the rows adds in another order and differs in the
    last bits.
    """
    return (a[:, None, :] @ b[:, :, None]).reshape(-1)


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
    Returns the accepted mask.
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
            live = same.cumsum(axis=1) == 0
        t_live = t[live]
        if t_live.size == 0:
            break
        counts = live.sum(axis=1)  # live trials are a prefix of each row's block
        good, *outs = evaluate(points[live], k.repeat(counts), t_live)
        accepted = np.zeros(live.shape, dtype=bool)
        accepted[live] = good
        j = accepted.argmax(axis=1)
        hit = accepted.any(axis=1)
        pos = (counts.cumsum() - counts + j)[hit]
        taking = k[hit]
        take(taking, t_live[pos], *(out[pos] for out in outs))
        found[taking] = True
        k = k[live[:, -1] & ~hit]
    return found


def in_Y(u: PeriodicSequence, tol: float = MEAN_TOL) -> bool:
    """Whether u has (numerically) zero mean, relative to its size."""
    mean_norm = float(np.linalg.norm(u.values.mean(axis=0))) * math.sqrt(u.m)
    return mean_norm <= tol * max(1.0, euclidean_norm(u))


@dataclasses.dataclass(frozen=True)
class ExponentFunction:
    """An m-periodic variable exponent k -> p(k), with every p(k) >= 1."""

    values: np.ndarray

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


def _read_only(arr) -> np.ndarray:
    view = np.asarray(arr, dtype=float).view()
    view.flags.writeable = False
    return view


def _point_kernel(fn: Callable, shape: tuple, check: Callable) -> Callable:
    """An array kernel (K, U1, U2) -> (N, *shape) over a per-point callback:
    it calls fn at each point and stores check(value, k)."""

    def kernel(K, U1, U2):
        out = np.empty((K.size, *shape))
        for i, k in enumerate(K.tolist()):
            out[i] = check(fn(k, U1[i], U2[i]), k)
        return out

    return kernel


_PERIODS: dict = {}  # m -> (K, K_prev) of the largest stack coupling has seen


def _stack_periods(m: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The periods 1..m of count stacked sequences, and each k - 1 wrapped into
    1..m: read-only prefixes of arrays made once per m, grown for a larger stack."""
    K, K_prev = _PERIODS.get(m, (None, None))
    if K is None or K.size < m * count:
        K = np.tile(np.arange(1, m + 1), count)
        K_prev = K - 1
        K_prev[::m] = m
        K.flags.writeable = K_prev.flags.writeable = False
        _PERIODS[m] = K, K_prev
    return K[: m * count], K_prev[: m * count]


@dataclasses.dataclass(frozen=True)
class Nonlinearity:
    """A discrete potential F(k, u1, u2) together with its partial gradients.

    F maps (k, u1, u2) with u1, u2 in R^n to a real number and is m-periodic
    in k.  F2_prime and F3_prime are the gradients of F with respect to u1
    and u2.  The coupling term entering the difference equation is assembled
    from the two partials of consecutive periods:

        f(k, u1, u2, u3) = F2_prime(k-1, u2, u3) + F3_prime(k, u1, u2)

    An optional closed form f_direct can be attached; it is cross-checked
    against the assembled expression at construction time.

    Construction enforces F(k, 0, 0) = 0 for every k (the potential is
    normalised at the origin).

    Every hot caller evaluates the potential through the batched methods
    F_many (F on N points at once) and coupling (f on every row of a
    sequence, or of a stack of sequences).  Both call three array kernels
    (K, U1, U2) -> values, chosen once at construction: the callables of a
    from_arrays family, or, for a family given only the per-point callbacks
    above, adapters that call them point by point with the same checks.
    """

    m: int
    F: Callable
    F2_prime: Callable
    F3_prime: Callable
    f_direct: Optional[Callable] = None
    n: int = 1
    name: str = ""
    is_zero: bool = False
    even_symmetric: bool = False
    # (F, F2_prime, F3_prime) in array form, set by from_arrays
    arrays: Optional[tuple] = dataclasses.field(default=None, repr=False)
    # the array kernels F_many and coupling call: arrays, or adapters over the
    # per-point callbacks; not an init field, so dataclasses.replace rebuilds it
    _kernels: tuple = dataclasses.field(init=False, repr=False, compare=False)

    @classmethod
    def from_arrays(
        cls, m: int, F: Callable, F2: Callable, F3: Callable, n: int = 1, **kwargs
    ) -> "Nonlinearity":
        """A family given by array callables (K, U1, U2) -> values.

        K is an int array of N periods in 1..m, U1 and U2 are (N, n) arrays.
        F returns N values, F2 and F3 return (N, n) gradients.  The per-point
        F, F2_prime and F3_prime are adapters over these, so each formula is
        written once.  Other keyword arguments are passed to the constructor.
        """

        def point(fn):
            def at(k, u1, u2):
                rows = [np.asarray(u, dtype=float).reshape(1, n) for u in (u1, u2)]
                return fn(np.array([wrap_index(k, m)]), *rows)[0]

            return at

        return cls(
            m=m,
            F=point(F),
            F2_prime=point(F2),
            F3_prime=point(F3),
            n=n,
            arrays=(F, F2, F3),
            **kwargs,
        )

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"period m must be >= 2, got {self.m}")
        if self.n < 1:
            raise ValueError(f"component dimension n must be >= 1, got {self.n}")
        n = self.n
        kernels = self.arrays or (
            _point_kernel(self.F, (), lambda v, k: _scalar(v, f"F({k},.,.)")),
            _point_kernel(self.F2_prime, (n,), lambda v, k: _vector(v, n, "F2_prime")),
            _point_kernel(self.F3_prime, (n,), lambda v, k: _vector(v, n, "F3_prime")),
        )
        object.__setattr__(self, "_kernels", kernels)
        # per point: F_many would reject an array F of a malformed shape
        # here, which evaluation reports when it is first called
        zero = np.zeros(self.n)
        for k in range(1, self.m + 1):
            val = _scalar(self.F(k, zero, zero), f"F({k}, 0, 0)")
            if abs(val) > ZERO_AT_ZERO_TOL:
                raise ValueError(
                    f"potential must vanish at the origin: |F({k},0,0)| = {abs(val):.3e}"
                )
        if self.f_direct is not None:
            self._check_assembly()

    def _check_assembly(self, points: int = 100, seed: int = 20240) -> None:
        """Compare f_direct with the assembled coupling term at random points,
        each drawn as a period k and then a (3, n) normal block.  f_direct is
        called per point; the partial gradients take all points in one kernel
        call each.  A non-finite deviation fails the check."""
        rng = np.random.default_rng(seed)
        K = np.empty(points, dtype=np.int64)
        U = np.empty((points, 3, self.n))
        for i in range(points):
            K[i] = rng.integers(-2 * self.m, 2 * self.m + 1)
            U[i] = rng.normal(size=(3, self.n))
        direct = np.array(
            [_vector(self.f_direct(k, *u), self.n, "f_direct") for k, u in zip(K.tolist(), U)]
        )
        flat = (points, self.n)
        a = self._kernels[1]((K - 2) % self.m + 1, U[:, 1], U[:, 2])
        b = self._kernels[2]((K - 1) % self.m + 1, U[:, 0], U[:, 1])
        assembled = _rows(a, flat, "F2_prime") + _rows(b, flat, "F3_prime")
        deviation = np.max(np.abs(direct - assembled), axis=1)
        bad = np.count_nonzero(~np.isfinite(deviation))
        if bad:
            raise ValueError(
                f"f_direct disagrees with the assembled coupling term "
                f"(deviation not finite at {bad} of {points} check points)"
            )
        worst = float(deviation.max())
        if worst > ASSEMBLY_TOL:
            raise ValueError(
                f"f_direct disagrees with the assembled coupling term "
                f"(max abs deviation {worst:.3e} > {ASSEMBLY_TOL})"
            )

    def F_at(self, k: int, u1, u2) -> float:
        kk = wrap_index(k, self.m)
        return _scalar(self.F(kk, np.atleast_1d(u1), np.atleast_1d(u2)), f"F({kk},.,.)")

    def f(self, k: int, u1, u2, u3) -> np.ndarray:
        """Coupling term assembled from the two partial gradients of F."""
        u1 = np.atleast_1d(np.asarray(u1, dtype=float))
        u2 = np.atleast_1d(np.asarray(u2, dtype=float))
        u3 = np.atleast_1d(np.asarray(u3, dtype=float))
        k2 = wrap_index(k, self.m)
        k1 = wrap_index(k - 1, self.m)
        a = _vector(self.F2_prime(k1, u2, u3), self.n, "F2_prime")
        b = _vector(self.F3_prime(k2, u1, u2), self.n, "F3_prime")
        return a + b

    def F_many(self, K, U1, U2) -> np.ndarray:
        """F at N points at once: K holds N periods (any integers, wrapped
        into 1..m), U1 and U2 are (N, n).  Bitwise equal to calling F_at on
        each point.  Raises EvaluationError on a malformed return value.
        """
        K = (np.asarray(K, dtype=np.int64).reshape(-1) - 1) % self.m + 1
        shape = (K.size, self.n)
        U1, U2 = _read_only(U1), _read_only(U2)
        if U1.shape != shape or U2.shape != shape:
            raise ValueError(f"point arrays {U1.shape}, {U2.shape} do not match {shape}")
        return _rows(self._kernels[0](K, U1, U2), (K.size,), "F")

    def coupling(self, vals) -> np.ndarray:
        """Coupling term f(k, u(k+1), u(k), u(k-1)) on every row of an (m, n)
        sequence array, or of each sequence in a (B, m, n) stack; row k-1
        holds entry k.  Bitwise equal to calling f row by row.
        """
        vals = _read_only(vals)
        if vals.ndim not in (2, 3) or vals.shape[-2:] != (self.m, self.n):
            raise ValueError(f"sequence shape {vals.shape} does not match ({self.m}, {self.n})")
        stack = vals.reshape(-1, self.m, self.n)
        up, um = _shifted(stack), _shifted_back(stack)
        K, K_prev = _stack_periods(self.m, len(stack))
        flat = (K.size, self.n)
        a = _rows(self._kernels[1](K_prev, stack.reshape(flat), um.reshape(flat)), flat, "F2_prime")
        b = _rows(self._kernels[2](K, up.reshape(flat), stack.reshape(flat)), flat, "F3_prime")
        return (a + b).reshape(vals.shape)


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
