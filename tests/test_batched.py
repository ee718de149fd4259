"""Batched evaluation of the potential: Nonlinearity.F_many and coupling.

The batched path must give bitwise the values of the per-point path
(F_at, f) for the array-form built-ins and for families given only
per-point callbacks, and the sampled checks and potential built on it must
reproduce the values computed point by point.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pklap.core as core
from pklap.analysis import check_bounds, check_growth
from pklap.core import EvaluationError, ExponentFunction, Nonlinearity, Problem, _stack_periods
from pklap.functional import action, mu, potential
from pklap.nonlinearities import make_builtin
from pklap.operators import residual_values

BUILTINS = {
    "example1": (4, {}),
    "example2": (3, {}),
    "example3": (4, {}),
    "power": (5, {"a": 1.0, "b": 0.5, "s": [2.0, 2.5, 3.0, 3.5, 4.0], "r": 2.5}),
}


@functools.lru_cache(maxsize=None)
def _builtin(name):
    m, params = BUILTINS[name]
    return make_builtin(name, m, params)


def _product_nl(m):
    """n = 2 per-point family F = |u1|^2 |u2|^2 + k u1.u2, looped over."""

    def F(k, u1, u2):
        a = np.asarray(u1, dtype=float)
        b = np.asarray(u2, dtype=float)
        return float(np.sum(a * a) * np.sum(b * b) + k * np.dot(a, b))

    def F2(k, u1, u2):
        a = np.asarray(u1, dtype=float)
        b = np.asarray(u2, dtype=float)
        return 2.0 * a * float(np.sum(b * b)) + k * b

    def F3(k, u1, u2):
        a = np.asarray(u1, dtype=float)
        b = np.asarray(u2, dtype=float)
        return float(np.sum(a * a)) * 2.0 * b + k * a

    return Nonlinearity.from_points(m=m, F=F, F2_prime=F2, F3_prime=F3, n=2)


def _same_bits(a, b):
    """Equal bit patterns, or NaN in both places."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    assert a.shape == b.shape
    nan = np.isnan(a) & np.isnan(b)
    return bool(np.all(nan | (a.view(np.uint64) == b.view(np.uint64))))


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
# zeros, signed zeros and moderate values next to arbitrary finite doubles
values = st.one_of(finite, st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-20.0, 20.0))


@st.composite
def _points(draw, n):
    count = draw(st.integers(1, 12))
    K = draw(st.lists(st.integers(-20, 20), min_size=count, max_size=count))
    coords = st.lists(values, min_size=count * n, max_size=count * n)
    U1 = np.array(draw(coords)).reshape(count, n)
    U2 = np.array(draw(coords)).reshape(count, n)
    return np.array(K), U1, U2


class TestBatchedEqualsPerPoint:
    @settings(max_examples=150)
    @given(name=st.sampled_from(sorted(BUILTINS)), pts=_points(1))
    def test_F_many_builtins(self, name, pts):
        nl = _builtin(name).nonlinearity
        K, U1, U2 = pts
        with np.errstate(all="ignore"):
            batched = nl.F_many(K, U1, U2)
            looped = [nl.F_at(int(k), u1, u2) for k, u1, u2 in zip(K, U1, U2)]
        assert _same_bits(batched, looped)

    @settings(max_examples=150)
    @given(name=st.sampled_from(sorted(BUILTINS)), data=st.data())
    def test_coupling_builtins(self, name, data):
        nl = _builtin(name).nonlinearity
        m = nl.m
        vals = np.array(data.draw(st.lists(values, min_size=m, max_size=m))).reshape(m, 1)
        with np.errstate(all="ignore"):
            batched = nl.coupling(vals)
            looped = np.array(
                [nl.f(k, vals[k % m], vals[k - 1], vals[k - 2]) for k in range(1, m + 1)]
            )
        assert _same_bits(batched, looped)

    @settings(max_examples=60)
    @given(pts=_points(2), data=st.data())
    def test_per_point_family_n2(self, pts, data):
        nl = _product_nl(3)
        K, U1, U2 = pts
        with np.errstate(all="ignore"):
            looped = [nl.F_at(int(k), u1, u2) for k, u1, u2 in zip(K, U1, U2)]
            assert _same_bits(nl.F_many(K, U1, U2), looped)
            vals = np.array(data.draw(st.lists(values, min_size=6, max_size=6))).reshape(3, 2)
            rows = [nl.f(k, vals[k % 3], vals[k - 1], vals[k - 2]) for k in range(1, 4)]
            assert _same_bits(nl.coupling(vals), np.array(rows))

    @settings(max_examples=100)
    @given(
        name=st.sampled_from(sorted(BUILTINS)),
        k=st.integers(1, 5),
        t1=st.floats(-30.0, 30.0),
        t2=st.floats(-30.0, 30.0),
    )
    def test_builtins_match_python_float_formulas(self, name, k, t1, t2):
        # the array formulas use C pow and libm sin/cos, exactly as Python's
        # ** and math do on floats; numpy's ** would differ in the last bit
        nl = _builtin(name).nonlinearity
        k = (k - 1) % nl.m + 1
        if name == "example1":
            sign = 1.0 if k % 2 == 0 else -1.0
            x = t1**4 + t2**4
            ref = x + sign * math.sin(x)
        elif name == "example2":
            c2 = math.cos(math.pi * (k % nl.m) / nl.m) ** 2
            ref = c2 * t1**4 * t2**4
        elif name == "example3":
            ref = -math.sin(t1**2 + t2**2) * abs(math.sin(math.pi * (k % nl.m) / nl.m))
        else:
            s = [2.0, 2.5, 3.0, 3.5, 4.0][k - 1]
            ref = 1.0 * abs(t1) ** s + 0.5 * abs(t2) ** 2.5
        got = nl.F_many(np.array([k, k]), np.array([[t1], [0.5]]), np.array([[t2], [0.5]]))
        assert _same_bits(got[:1], [ref])


@pytest.mark.parametrize("m", [2, 3, 8])
def test_stack_periods_are_the_tiled_periods_and_read_only(monkeypatch, m):
    """coupling's periods of a stack of count sequences, kept per m and
    grown for a larger stack, are the np.tile construction coupling made
    on every call, and no callable can write into them."""
    monkeypatch.setattr(core, "_PERIODS", {})
    for count in (0, 3, 1, 5, 2, 5):
        K = _stack_periods(m, count)
        ref = np.tile(np.arange(1, m + 1), count)
        assert np.array_equal(K, ref)
        assert K.dtype == ref.dtype
        assert not K.flags.writeable


class TestPinnedValues:
    """Values computed point by point: the A.4, A.5 and A.7 margins by a loop
    of F_at calls over the samples of each condition's stream, one sample at
    a time."""

    def test_example1_growth(self):
        spec = _builtin("example1")
        reports = {
            r.name: r for r in check_growth(spec.nonlinearity, spec.growth, sample_budget=1500)
        }
        assert reports["A.4"].margin == 4.021237572260361e-06
        assert reports["A.6.3"].margin == 0.0009999999999998
        assert reports["A.6.1"].verdict == "violated"
        witness = reports["A.6.1"].witness
        assert witness["k"] == 2
        assert witness["u1"].tolist() == [1e-08]
        assert witness["u2"].tolist() == [0.0]
        assert witness["quotient"] == 2.0

    def test_example3_bounds(self):
        spec = _builtin("example3")
        reports = {r.name: r for r in check_bounds(spec.nonlinearity, spec.bounds, 1500)}
        assert reports["A.7"].margin == 3.554007695583117e-05

    def test_power_growth(self):
        spec = _builtin("power")
        reports = {r.name: r for r in check_growth(spec.nonlinearity, spec.growth, 1000)}
        assert reports["A.5"].margin == 3.4833153159588685e-12
        # the bound holds with equality, and is computed with the same pow
        assert reports["A.4"].margin == 0.0

    @pytest.mark.parametrize(
        "name,m,params,expected",
        [
            ("example1", 4, {}, -1.2865024910936218),
            ("example2", 3, {}, -1.1246613225870215e-05),
            ("example3", 4, {}, 0.7663754436013464),
            ("power", 5, {"a": 1.0, "b": 0.5, "s": 3.0, "r": 2.5}, -1.3356487105280646),
        ],
    )
    def test_potential(self, name, m, params, expected):
        nl = make_builtin(name, m, params).nonlinearity
        prob = Problem(
            m=m, n=1, exponent=ExponentFunction(np.linspace(2, 3, m)), nonlinearity=nl, lam=0.7
        )
        u = np.random.default_rng(7).normal(size=(m, 1))
        assert potential(u, prob) == expected


def _vector_F_nl(m=2):
    """A per-point family whose F wrongly returns a 2-vector away from 0."""

    def F(k, u1, u2):
        t = float(np.asarray(u1).reshape(()))
        return 0.0 if t == 0.0 else np.array([t, t])

    zero = lambda k, u1, u2: 0.0
    return Nonlinearity.from_points(m=m, F=F, F2_prime=zero, F3_prime=zero)


def _array_nl(F_shape, grad_shape, pair=True):
    """An array family with zero F and gradients of the given shapes; dF
    returns the pair (F2, F3), or with pair=False a single array."""

    def F(K, U1, U2):
        return np.zeros(F_shape(K.size))

    def dF(K, U1, U2):
        grad = np.zeros(grad_shape(K.size))
        return (grad, grad) if pair else grad

    return Nonlinearity(2, F, dF)


def _prob(nl):
    return Problem(
        m=nl.m, n=nl.n, exponent=ExponentFunction.constant(2.0, nl.m), nonlinearity=nl, lam=1.0
    )


class TestErrorPaths:
    def test_vector_F_through_check_growth(self):
        spec = make_builtin("power", 2, {"a": 1.0, "b": 1.0, "s": 2.0, "r": 2.0})
        with pytest.raises(EvaluationError, match="scalar"):
            check_growth(_vector_F_nl(), spec.growth, sample_budget=100)

    def test_vector_F_through_potential(self):
        with pytest.raises(EvaluationError, match="scalar"):
            potential(np.ones((2, 1)), _prob(_vector_F_nl()))

    def test_array_F_of_wrong_shape(self):
        """The origin check calls F on the m pairs (k, 0, 0), so a malformed
        F is reported when the family is built, as evaluation would."""
        with pytest.raises(EvaluationError, match=r"F returned shape \(2, 1\), expected \(2,\)"):
            _array_nl(lambda N: (N, 1), lambda N: (N, 1))

    def test_array_gradient_of_wrong_shape(self):
        nl = _array_nl(lambda N: (N,), lambda N: (N,))
        with pytest.raises(EvaluationError, match="dF's F2 returned shape"):
            nl.coupling(np.ones((2, 1)))
        nl = _array_nl(lambda N: (N,), lambda N: (N, 1), pair=False)
        with pytest.raises(EvaluationError, match=r"expected the tuple \(F2, F3\)"):
            nl.coupling(np.ones((2, 1)))
        with pytest.raises(EvaluationError, match="expected the tuple"):
            residual_values(np.ones((2, 1)), _prob(nl))

    def test_point_arrays_must_match(self):
        nl = _builtin("power").nonlinearity
        with pytest.raises(ValueError):
            nl.F_many([1, 2], np.ones((3, 1)), np.ones((3, 1)))
        with pytest.raises(ValueError):
            nl.coupling(np.ones((4, 1)))

    @pytest.mark.parametrize("fn", [mu, potential, action])
    def test_raw_input_validation(self, fn):
        prob = _prob(_builtin("power").nonlinearity)
        bad = np.ones((5, 1))
        bad[2, 0] = np.inf
        with pytest.raises(EvaluationError):
            fn(bad, prob)
        bad[2, 0] = np.nan
        with pytest.raises(EvaluationError):
            fn(bad, prob)
        with pytest.raises(ValueError):
            fn(np.ones((4, 1)), prob)
        with pytest.raises(ValueError):
            fn(np.ones(5), prob)

    def test_callbacks_cannot_write_into_the_input(self):
        def F(k, u1, u2):
            if u1[0] != 0.0:
                u1[0] = 99.0
            return 0.0

        zero = lambda k, u1, u2: 0.0
        nl = Nonlinearity.from_points(m=2, F=F, F2_prime=zero, F3_prime=zero)
        u = np.ones((2, 1))
        with pytest.raises(ValueError, match="read-only"):
            nl.F_many([1, 2], u, u)
        assert np.all(u == 1.0)
