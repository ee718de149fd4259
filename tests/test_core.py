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

    return Nonlinearity(m=m, F=F, F2_prime=F2, F3_prime=F3, n=1)


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

        return Nonlinearity.from_arrays(
            3, lambda K, U1, U2: w[K - 1] * U1[:, 0] * U2[:, 0], dF, f_direct=f_direct
        )
    F2, F3 = (lambda k, u1, u2: w[k - 1] * u2), (lambda k, u1, u2: w[k - 1] * u1)
    if swap_partials:
        F2, F3 = F3, F2
    return Nonlinearity(
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
            Nonlinearity(m=2, F=bad_F, F2_prime=lambda *a: 0.0, F3_prime=lambda *a: 0.0)

    def test_direct_formula_mismatch_is_caught(self):
        def wrong_f(k, u1, u2, u3):
            return 2.0 * float(np.asarray(u2).reshape(()))  # off by a factor

        def F(k, u1, u2):
            t = float(np.asarray(u2).reshape(()))
            return 0.5 * t * t

        with pytest.raises(ValueError):
            Nonlinearity(
                m=3,
                F=F,
                F2_prime=lambda *a: 0.0,
                F3_prime=lambda k, u1, u2: float(np.asarray(u2).reshape(())),
                f_direct=wrong_f,
            )

    def test_direct_formula_mismatch_is_caught_on_the_same_points_for_either_kind(self):
        """An array family assembles its check points in one dF call, a
        per-point family one point at a time; both draw the same points, so
        both report the same worst deviation, whether f_direct is wrong or
        the partial gradients are (F2 and F3 traded, in dF or per point)."""
        _bilinear_nl("arrays", _bilinear_coupling)
        _bilinear_nl("per_point", _bilinear_coupling)
        for swap_direct, swap_partials in ((True, False), (False, True)):
            f_direct = functools.partial(_bilinear_coupling, swap=swap_direct)
            messages = []
            for kind in ("per_point", "arrays"):
                with pytest.raises(ValueError, match="f_direct disagrees") as err:
                    _bilinear_nl(kind, f_direct, swap_partials)
                messages.append(str(err.value))
            assert messages[0] == messages[1]

    def test_non_finite_direct_formula_is_rejected(self):
        """An f_direct that is NaN at every check point does not pass."""
        nl = make_builtin("example1", 4, {}).nonlinearity
        with pytest.raises(ValueError, match="not finite at 100 of 100 check points"):
            dataclasses.replace(nl, f_direct=lambda k, u1, u2, u3: np.full(1, np.nan))

    def test_replace_rebuilds_the_per_point_kernels(self):
        """dataclasses.replace of the per-point partials reaches coupling and
        F_many, bitwise a loop over f and F_at on the new callbacks."""
        nl = dataclasses.replace(
            _bilinear_nl("per_point", None),
            F=lambda k, u1, u2: _WEIGHTS[k - 1] * u1[0] ** 2 * u2[0],
            F2_prime=lambda k, u1, u2: 2.0 * _WEIGHTS[k - 1] * u1 * u2,
            F3_prime=lambda k, u1, u2: _WEIGHTS[k - 1] * u1**2,
        )
        vals = np.random.default_rng(5).normal(size=(2, 3, 1))
        loop = np.array(
            [[nl.f(k, v[k % 3], v[k - 1], v[k - 2]) for k in range(1, 4)] for v in vals]
        )
        assert np.array_equal(nl.coupling(vals), loop)
        K, U1, U2 = np.array([1, 5, -3]), vals[0], vals[1]
        loop_F = np.array([nl.F_at(k, a, b) for k, a, b in zip(K.tolist(), U1, U2)])
        assert np.array_equal(nl.F_many(K, U1, U2), loop_F)
        assert not np.array_equal(loop, _bilinear_nl("per_point", None).coupling(vals))

    def test_F_at_wraps_period(self):
        calls = []

        def F(k, u1, u2):
            calls.append(k)
            return 0.0

        nl = Nonlinearity(
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
    """Nonlinearity._kernels is read in core alone: every other module
    reaches F and its partials through F_many, coupling or _assembled."""
    modules = sorted(pathlib.Path(pklap.__file__).parent.glob("*.py"))
    assert "core.py" in [path.name for path in modules] and len(modules) > 1
    readers = sorted(
        f"{path.name}:{node.lineno}"
        for path in modules
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "_kernels"
    )
    assert readers == []
