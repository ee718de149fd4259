import ast
import dataclasses
import functools
import pathlib

import numpy as np
import pytest

import pklap
from pklap.core import (
    ExponentFunction,
    Nonlinearity,
    PeriodicSequence,
    Problem,
    _vector,
    euclidean_norm,
    in_Y,
    wrap_index,
)
from pklap.nonlinearities import make_builtin
from pklap.solvers import SUBSPACE_Y, subspace_basis


def test_wrap_index_one_based():
    assert wrap_index(1, 4) == 1
    assert wrap_index(4, 4) == 4
    assert wrap_index(5, 4) == 1
    assert wrap_index(0, 4) == 4
    assert wrap_index(-3, 4) == 1
    assert wrap_index(8, 4) == 4


def test_wrap_index_full_period_shift():
    for m in (2, 3, 7):
        for k in range(-2 * m, 2 * m + 1):
            assert wrap_index(k + m, m) == wrap_index(k, m)


class TestPeriodicSequence:
    def test_one_dimensional_promotion(self):
        u = PeriodicSequence(np.array([1.0, 2.0, 3.0]))
        assert u.values.shape == (3, 1)
        assert u.m == 3 and u.n == 1

    def test_value_wraps_the_index(self):
        u = PeriodicSequence(np.array([1.0, 2.0, 4.0, 1.0]))
        assert u.value(1)[0] == 1.0
        assert u.value(5)[0] == 1.0
        assert u.value(0)[0] == 1.0
        assert u.value(-1)[0] == 4.0

    def test_flat_round_trip(self):
        vals = np.arange(6.0).reshape(3, 2)
        u = PeriodicSequence(vals)
        again = PeriodicSequence.from_flat(u.flat(), 3, 2)
        assert np.array_equal(again.values, vals)

    def test_values_are_read_only(self):
        u = PeriodicSequence.zeros(3, 2)
        with pytest.raises(ValueError):
            u.values[0, 0] = 1.0

    def test_constant_and_zeros(self):
        c = PeriodicSequence.constant(np.array([2.0, -1.0]), 4)
        assert c.m == 4 and c.n == 2
        assert np.all(c.values == np.array([2.0, -1.0]))
        assert np.all(PeriodicSequence.zeros(2, 3).values == 0.0)

    def test_arithmetic(self):
        a = PeriodicSequence(np.array([1.0, 2.0]))
        b = PeriodicSequence(np.array([3.0, -1.0]))
        assert np.array_equal((a + b).values.reshape(-1), [4.0, 1.0])
        assert np.array_equal((a - b).values.reshape(-1), [-2.0, 3.0])
        assert np.array_equal((2.0 * a).values.reshape(-1), [2.0, 4.0])
        assert np.array_equal((-a).values.reshape(-1), [-1.0, -2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PeriodicSequence(np.array([1.0, np.nan]))


def test_euclidean_norm_oracle():
    # sqrt(1 + 4 + 16 + 1) = sqrt(22)
    u = PeriodicSequence(np.array([1.0, 2.0, 4.0, 1.0]))
    assert euclidean_norm(u) == pytest.approx(np.sqrt(22.0), abs=0.0)


def test_projection_splits_mean_and_oscillation():
    """The Y basis the solvers reduce onto is orthogonal to the constants,
    so projecting on it splits a sequence into its oscillation and its mean,
    orthogonally."""
    u = PeriodicSequence(np.array([1.0, 2.0, 4.0, 1.0]))
    qy = subspace_basis(4, 1, SUBSPACE_Y)
    assert np.abs(qy.T @ np.ones(4)).max() < 1e-15
    y = PeriodicSequence(qy @ (qy.T @ u.flat()))
    w = u - y
    assert in_Y(y) and not in_Y(w)
    assert np.allclose(w.values.reshape(-1), [2.0, 2.0, 2.0, 2.0])
    assert np.allclose(y.values.reshape(-1), [-1.0, 0.0, 2.0, -1.0])
    # orthogonal decomposition
    assert np.allclose((w + y).values, u.values)
    assert abs(float(np.sum(w.values * y.values))) < 1e-12
    assert euclidean_norm(u) ** 2 == pytest.approx(
        euclidean_norm(w) ** 2 + euclidean_norm(y) ** 2
    )


def test_in_Y_relative_tolerance():
    assert in_Y(PeriodicSequence(np.array([1.0, -1.0])))
    assert not in_Y(PeriodicSequence(np.array([1.0, 1.0])))
    # mean 1e-5 relative to norm 1e3 is below the 1e-8 relative cut
    big = PeriodicSequence(np.array([1e3 + 1e-5, -1e3]))
    assert in_Y(big)
    # tiny but proportionally large mean
    assert not in_Y(PeriodicSequence(np.array([1e-7, 3e-7])))


class TestExponentFunction:
    def test_bounds_and_lookup(self):
        p = ExponentFunction(np.array([2.0, 3.0, 2.5]))
        assert p.p_minus == 2.0
        assert p.p_plus == 3.0
        assert p.at(2) == 3.0
        assert p.at(5) == 3.0  # wraps
        assert p.at(0) == 2.5

    def test_constant_constructor(self):
        p = ExponentFunction.constant(2.0, 5)
        assert p.m == 5
        assert np.all(p.values == 2.0)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            ExponentFunction(np.array([2.0, 0.5]))


def _linear_nl(m, slope=1.0):
    """F(k, u1, u2) = slope/2 * |u2|^2, a well-behaved scalar potential."""

    def F(k, u1, u2):
        t = float(np.asarray(u2).reshape(()))
        return 0.5 * slope * t * t

    def F2(k, u1, u2):
        return 0.0

    def F3(k, u1, u2):
        return slope * float(np.asarray(u2).reshape(()))

    return Nonlinearity.from_points(m=m, F=F, F2_prime=F2, F3_prime=F3, n=1)


ASSEMBLY_TOL = 1e-9  # allows for rounding in a closed form


def check_assembly(nl, points=100, seed=20240):
    """Compare nl.f_direct with the assembled coupling term at random points;
    raise ValueError when they disagree.  All periods are drawn with one
    call, and then all (3, n) normal blocks with one call.  f_direct is
    called per point, as the independent derivation; the coupling term is
    assembled on one window of two pairs per point, (k, u1, u2) and
    (k-1, u2, u3), so both partial gradients take all points in one kernel
    call.  A non-finite deviation fails the check."""
    rng = np.random.default_rng(seed)
    K = rng.integers(-2 * nl.m, 2 * nl.m + 1, size=points)
    U = rng.normal(size=(points, 3, nl.n))
    direct = np.array(
        [_vector(nl.f_direct(k, *u), nl.n, "f_direct") for k, u in zip(K.tolist(), U)]
    )
    # a window of two rows is its own cycle: the shift takes row 1's F2 to row 0
    windows = np.stack(((K - 1) % nl.m + 1, (K - 2) % nl.m + 1), axis=1).reshape(-1)
    assembled = nl._assembled(windows, U[:, :2], U[:, 1:])[:, 0]
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


_WEIGHTS = np.array([1.0, 2.0, 3.0])


def _bilinear_nl(kind, f_direct, swap_partials=False):
    """F(k, u1, u2) = w_k u1 u2 at m = 3, n = 1, as per-point callbacks or
    from arrays; its period dependence makes a shifted k visible.  With
    swap_partials the gradients in u1 and u2 trade places, a wrong dF."""
    w = _WEIGHTS
    if kind == "arrays":

        def dF(K, U1, U2):
            a, b = w[K - 1, None] * U2, w[K - 1, None] * U1
            return (b, a) if swap_partials else (a, b)

        return Nonlinearity(
            3, lambda K, U1, U2: w[K - 1] * U1[:, 0] * U2[:, 0], dF, f_direct=f_direct
        )
    F2, F3 = (lambda k, u1, u2: w[k - 1] * u2), (lambda k, u1, u2: w[k - 1] * u1)
    if swap_partials:
        F2, F3 = F3, F2
    return Nonlinearity.from_points(
        m=3,
        F=lambda k, u1, u2: w[k - 1] * u1[0] * u2[0],
        F2_prime=F2,
        F3_prime=F3,
        f_direct=f_direct,
    )


def _bilinear_coupling(k, u1, u2, u3, swap=False):
    """f = w_{k-1} u3 + w_k u1, or with the two weights swapped."""
    a, b = _WEIGHTS[(k - 2) % 3], _WEIGHTS[(k - 1) % 3]
    if swap:
        a, b = b, a
    return a * u3 + b * u1


class TestNonlinearity:
    def test_assembled_coupling(self):
        nl = _linear_nl(3)
        # f(k, u1, u2, u3) = F2'(k-1, u2, u3) + F3'(k, u1, u2) = 0 + u2
        val = nl.f(2, np.array([5.0]), np.array([2.0]), np.array([-1.0]))
        assert val == pytest.approx(np.array([2.0]))

    def test_zero_at_zero_enforced(self):
        def bad_F(k, u1, u2):
            return 1.0

        with pytest.raises(ValueError):
            Nonlinearity.from_points(m=2, F=bad_F, F2_prime=lambda *a: 0.0, F3_prime=lambda *a: 0.0)

    def test_non_finite_at_zero_is_rejected(self):
        """NaN > tol is false, so a NaN F(k, 0, 0) once built (the first
        family below).  A value that is not finite is rejected, and the first
        such k named, for an array family and a per-point one alike."""
        with pytest.raises(ValueError, match=r"\|F\(1,0,0\)\| = nan$"):
            Nonlinearity(
                2, lambda K, U1, U2: np.full(K.size, np.nan), lambda K, U1, U2: (U1 * 0, U2 * 0)
            )
        for value in (np.nan, np.inf, -np.inf):
            F = np.array([0.0, value, np.nan])
            message = rf"^potential must vanish at the origin: \|F\(2,0,0\)\| = {abs(value)}$"
            with pytest.raises(ValueError, match=message):
                Nonlinearity(3, lambda K, U1, U2: F[K - 1], lambda K, U1, U2: (U1 * 0, U2 * 0))
            with pytest.raises(ValueError, match=message):
                Nonlinearity.from_points(m=3, F=lambda k, u1, u2: F[k - 1], F2_prime=lambda *a: 0.0, F3_prime=lambda *a: 0.0)

    def test_direct_formula_mismatch_is_caught(self):
        def wrong_f(k, u1, u2, u3):
            return 2.0 * float(np.asarray(u2).reshape(()))  # off by a factor

        def F(k, u1, u2):
            t = float(np.asarray(u2).reshape(()))
            return 0.5 * t * t

        nl = Nonlinearity.from_points(
            m=3,
            F=F,
            F2_prime=lambda *a: 0.0,
            F3_prime=lambda k, u1, u2: float(np.asarray(u2).reshape(())),
            f_direct=wrong_f,
        )
        with pytest.raises(ValueError, match="f_direct disagrees"):
            check_assembly(nl)

    def test_direct_formula_mismatch_is_caught_on_the_same_points_for_either_kind(self):
        """An array family assembles its check points in one dF call, a
        per-point family one point at a time; both draw the same points, so
        both report the same worst deviation, whether f_direct is wrong or
        the partial gradients are (F2 and F3 traded, in dF or per point)."""
        check_assembly(_bilinear_nl("arrays", _bilinear_coupling))
        check_assembly(_bilinear_nl("per_point", _bilinear_coupling))
        for swap_direct, swap_partials in ((True, False), (False, True)):
            f_direct = functools.partial(_bilinear_coupling, swap=swap_direct)
            messages = []
            for kind in ("per_point", "arrays"):
                nl = _bilinear_nl(kind, f_direct, swap_partials)
                with pytest.raises(ValueError, match="f_direct disagrees") as err:
                    check_assembly(nl)
                messages.append(str(err.value))
            assert messages[0] == messages[1]

    def test_non_finite_direct_formula_is_rejected(self):
        """An f_direct that is NaN at every check point does not pass."""
        nl = make_builtin("example1", 4, {}).nonlinearity
        nl = dataclasses.replace(nl, f_direct=lambda k, u1, u2, u3: np.full(1, np.nan))
        with pytest.raises(ValueError, match="not finite at 100 of 100 check points"):
            check_assembly(nl)

    def test_replace_swaps_the_kernels(self):
        """dataclasses.replace of F and dF reaches F_many and coupling,
        bitwise the new formula and a loop over F_at and f."""
        w, old = _WEIGHTS, _bilinear_nl("arrays", None)
        nl = dataclasses.replace(
            old,
            F=lambda K, U1, U2: w[K - 1] * U1[:, 0] ** 2 * U2[:, 0],
            dF=lambda K, U1, U2: (2.0 * w[K - 1, None] * U1 * U2, w[K - 1, None] * U1**2),
        )
        vals = np.random.default_rng(5).normal(size=(2, 3, 1))
        loop = np.array(
            [[nl.f(k, v[k % 3], v[k - 1], v[k - 2]) for k in range(1, 4)] for v in vals]
        )
        assert np.array_equal(nl.coupling(vals), loop)
        assert not np.array_equal(loop, old.coupling(vals))
        K, U1, U2 = np.array([1, 5, -3]), vals[0], vals[1]  # periods 1, 2 and 3
        loop_F = np.array([nl.F_at(k, a, b) for k, a, b in zip(K.tolist(), U1, U2)])
        assert np.array_equal(nl.F_many(K, U1, U2), w * U1[:, 0] ** 2 * U2[:, 0])
        assert np.array_equal(nl.F_many(K, U1, U2), loop_F)

    @pytest.mark.parametrize("n", [1, 2])
    def test_from_points_matches_the_array_constructor(self, n):
        """F = w_k |u1|^2 |u2|^2, written per point and in array form with
        the same operations, gives bitwise the same F_many, coupling, F_at
        and f either way."""
        w = _WEIGHTS

        def sq(u):
            return np.sum(u * u, axis=-1)

        points = Nonlinearity.from_points(
            3,
            lambda k, u1, u2: w[k - 1] * sq(u1) * sq(u2),
            lambda k, u1, u2: 2.0 * w[k - 1] * sq(u2) * u1,
            lambda k, u1, u2: 2.0 * w[k - 1] * sq(u1) * u2,
            n=n,
        )
        arrays = Nonlinearity(
            3,
            lambda K, U1, U2: w[K - 1] * sq(U1) * sq(U2),
            lambda K, U1, U2: (
                (2.0 * w[K - 1] * sq(U2))[:, None] * U1,
                (2.0 * w[K - 1] * sq(U1))[:, None] * U2,
            ),
            n=n,
        )
        rng = np.random.default_rng(17)
        K, U1, U2 = rng.integers(-6, 7, size=9), rng.normal(size=(9, n)), rng.normal(size=(9, n))
        vals = rng.normal(size=(4, 3, n))
        assert np.array_equal(points.F_many(K, U1, U2), arrays.F_many(K, U1, U2))
        assert np.array_equal(points.coupling(vals), arrays.coupling(vals))
        for k, a, b in zip(K.tolist(), U1, U2):
            assert points.F_at(k, a, b) == arrays.F_at(k, a, b)
            assert np.array_equal(points.f(k, a, b, a - b), arrays.f(k, a, b, a - b))

    def test_one_point_forms_reject_a_point_of_another_size(self):
        nl = _bilinear_nl("arrays", None)
        with pytest.raises(ValueError, match="do not match"):
            nl.F_at(1, [1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="cannot reshape array of size 2"):
            nl.f(1, [1.0], [1.0, 2.0], [1.0])

    def test_F_at_wraps_period(self):
        calls = []

        def F(k, u1, u2):
            calls.append(k)
            return 0.0

        nl = Nonlinearity.from_points(
            m=3, F=F, F2_prime=lambda *a: 0.0, F3_prime=lambda *a: 0.0
        )
        nl.F_at(7, np.array([1.0]), np.array([1.0]))
        assert calls[-1] == 1


class TestProblem:
    def test_dim_and_with_lambda(self):
        nl = _linear_nl(3)
        prob = Problem(
            m=3,
            n=1,
            exponent=ExponentFunction.constant(2.0, 3),
            nonlinearity=nl,
            lam=1.0,
        )
        assert prob.dim == 3
        moved = prob.with_lambda(2.5)
        assert moved.lam == 2.5
        assert prob.lam == 1.0

    def test_period_mismatch_rejected(self):
        nl = _linear_nl(3)
        with pytest.raises(ValueError):
            Problem(
                m=4,
                n=1,
                exponent=ExponentFunction.constant(2.0, 4),
                nonlinearity=nl,
                lam=1.0,
            )

    def test_lambda_must_be_positive(self):
        nl = _linear_nl(2)
        with pytest.raises(ValueError):
            Problem(
                m=2,
                n=1,
                exponent=ExponentFunction.constant(2.0, 2),
                nonlinearity=nl,
                lam=0.0,
            )


def test_only_core_reads_the_array_kernels():
    """A family's F and dF are called in core alone, by _F_points and
    _assembled: every other module reaches the potential through F_many,
    coupling or those two."""

    def kernel_calls(path):
        return [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("F", "dF")
        ]

    modules = sorted(pathlib.Path(pklap.__file__).parent.glob("*.py"))
    core = [path for path in modules if path.name == "core.py"]
    assert len(core) == 1 and len(modules) > 1
    assert len(kernel_calls(core[0])) == 2
    assert [call for path in modules if path.name != "core.py" for call in kernel_calls(path)] == []
