import numpy as np
import pytest

import pklap.operators as operators
from pklap.core import (
    EvaluationError,
    ExponentFunction,
    Nonlinearity,
    PeriodicSequence,
    Problem,
)
from pklap.analysis import _level_radii
from pklap.functional import mu
from pklap.nonlinearities import make_builtin, make_example3
from pklap.operators import _phi_rows, _residual_rows, _stack_pass, phi_p, residual_values


def _zero_nl(m, n=1):
    return Nonlinearity.from_points(
        m=m,
        F=lambda k, u1, u2: 0.0,
        F2_prime=lambda k, u1, u2: np.zeros(n),
        F3_prime=lambda k, u1, u2: np.zeros(n),
        n=n,
    )


def _problem(values, p=2.0, lam=1.0, n=1):
    arr = np.asarray(values, dtype=float)
    m = arr.shape[0]
    return (
        PeriodicSequence(arr),
        Problem(
            m=m,
            n=n,
            exponent=ExponentFunction.constant(p, m),
            nonlinearity=_zero_nl(m, n),
            lam=lam,
        ),
    )


def _product_nl(m):
    """n = 2 coupling F = |u1|^2 |u2|^2 with its two partial gradients."""

    def F(k, u1, u2):
        a = np.asarray(u1, dtype=float)
        b = np.asarray(u2, dtype=float)
        return float(np.sum(a * a) * np.sum(b * b))

    def F2(k, u1, u2):
        a = np.asarray(u1, dtype=float)
        b = np.asarray(u2, dtype=float)
        return 2.0 * a * float(np.sum(b * b))

    def F3(k, u1, u2):
        a = np.asarray(u1, dtype=float)
        b = np.asarray(u2, dtype=float)
        return float(np.sum(a * a)) * 2.0 * b

    return Nonlinearity.from_points(m=m, F=F, F2_prime=F2, F3_prime=F3, n=2)


class TestPhiP:
    def test_p2_is_identity(self):
        v = np.array([3.0, -1.5, 0.0])
        assert np.allclose(phi_p(v, 2.0), v)

    def test_scalar_oracle(self):
        # |2|^{3-2} * 2 = 4
        assert phi_p(2.0, 3.0) == pytest.approx(4.0)
        assert phi_p(-2.0, 3.0) == pytest.approx(-4.0)
        # p=4: |2|^2 * 2 = 8
        assert phi_p(2.0, 4.0) == pytest.approx(8.0)
        assert isinstance(phi_p(2.0, 3.0), float)

    def test_zero_maps_to_zero_for_small_p(self):
        # |0|^{p-2} * 0 would be 0 * inf without the guard
        assert phi_p(0.0, 1.5) == 0.0
        v = phi_p(np.zeros(3), 1.2)
        assert np.all(v == 0.0)

    def test_odd_symmetry(self):
        rng = np.random.default_rng(7)
        for p in (1.3, 2.0, 2.7, 4.0):
            x = rng.normal(size=8)
            assert np.allclose(phi_p(-x, p), -phi_p(x, p))

    def test_vector_uses_euclidean_magnitude(self):
        # |v| = 5, p = 3: phi(v) = 5 * v
        v = np.array([3.0, 4.0])
        assert np.allclose(phi_p(v, 3.0), 5.0 * v)


def test_phi_of_forward_difference():
    u = PeriodicSequence(np.array([1.0, 2.0, 4.0, 1.0]))
    # Delta u(2) = 2, phi_3(2) = 4
    assert phi_p(u.value(3) - u.value(2), 3.0)[0] == pytest.approx(4.0)


class TestResidual:
    def test_frozen_oracle_m4_p2(self):
        """Hand-computed residual for u = (1, 2, 4, 1), p = 2, F = 0.

        Delta u = (1, 2, -3, 0), so the k-th entry is
        Delta u(k) - Delta u(k-1):  1-0=1, 2-1=1, -3-2=-5, 0+3=3.
        """
        u, prob = _problem([1.0, 2.0, 4.0, 1.0])
        r = residual_values(u, prob)
        assert np.allclose(r.reshape(-1), [1.0, 1.0, -5.0, 3.0])
        assert float(np.linalg.norm(r)) == pytest.approx(6.0)

    def test_residual_values_flat_layout(self):
        u, prob = _problem([1.0, 2.0, 4.0, 1.0])
        vals = residual_values(u, prob)
        assert vals.shape == (4, 1)
        assert np.allclose(vals.reshape(-1), [1.0, 1.0, -5.0, 3.0])

    def test_constant_sequence_is_critical_for_zero_forcing(self):
        u, prob = _problem([2.0, 2.0, 2.0])
        assert np.all(residual_values(u, prob) == 0.0)

    def test_coupling_term_enters_with_lambda(self):
        def F(k, u1, u2):
            t = float(np.asarray(u2).reshape(()))
            return 0.5 * t * t

        nl = Nonlinearity.from_points(
            m=2,
            F=F,
            F2_prime=lambda k, u1, u2: 0.0,
            F3_prime=lambda k, u1, u2: float(np.asarray(u2).reshape(())),
        )
        prob = Problem(
            m=2,
            n=1,
            exponent=ExponentFunction.constant(2.0, 2),
            nonlinearity=nl,
            lam=3.0,
        )
        u = PeriodicSequence(np.array([1.0, -1.0]))
        # p=2 part: Delta u = (-2, 2); entries -2-2=-4 and 2+2=4.
        # forcing part: lam * u(k) = (3, -3).
        vals = residual_values(u, prob)
        assert np.allclose(vals.reshape(-1), [-4.0 + 3.0, 4.0 - 3.0])

    def test_small_p_zero_increment_is_finite(self):
        # p < 2 makes phi_p blow up at zero increments without the guard
        u, prob = _problem([1.0, 1.0, 2.0], p=1.5)
        vals = residual_values(u, prob)
        assert np.all(np.isfinite(vals))

    def test_overflow_raises_evaluation_error(self):
        u, prob = _problem([1e200, -1e200], p=4.0)
        with np.errstate(over="ignore"), pytest.raises(EvaluationError):
            residual_values(u, prob)


def test_residual_agrees_with_componentwise_definition():
    """Cross-check the vectorised path against a literal per-index loop."""
    rng = np.random.default_rng(3)
    arr = rng.normal(size=(5, 2))
    u = PeriodicSequence(arr)
    p = ExponentFunction(np.array([2.0, 2.5, 3.0, 2.0, 2.2]))
    nl = _product_nl(5)
    prob = Problem(m=5, n=2, exponent=p, nonlinearity=nl, lam=0.7)
    got = residual_values(u, prob)

    for k in range(1, 6):
        du_k = u.value(k + 1) - u.value(k)
        du_km1 = u.value(k) - u.value(k - 1)
        expect = (
            phi_p(du_k, p.at(k))
            - phi_p(du_km1, p.at(k - 1))
            + prob.lam * nl.f(k, u.value(k + 1), u.value(k), u.value(k - 1))
        )
        assert np.allclose(got[k - 1], expect, atol=1e-12)


def _roll_residual(vals, prob):
    """Reference: the residual written with np.roll shifts, row by row."""
    d = np.roll(vals, -1, axis=0) - vals
    with np.errstate(divide="ignore"):  # |0|^(p-2) at p < 2, which the where() drops
        a = _phi_rows(d, np.linalg.norm(d, axis=1), prob.exponent.values)
    lhs = a - np.roll(a, 1, axis=0)
    up = np.roll(vals, -1, axis=0)
    um = np.roll(vals, 1, axis=0)
    coupling = np.empty_like(vals)
    for k in range(1, prob.m + 1):
        coupling[k - 1] = prob.nonlinearity.f(k, up[k - 1], vals[k - 1], um[k - 1])
    return lhs + prob.lam * coupling


class TestRawArrayInput:
    CASES = [
        ("example1", 4, {}),
        ("example2", 3, {}),
        ("example3", 4, {}),
        ("power", 5, {"a": 1.0, "b": 0.5, "s": 3.0, "r": 2.5}),
        ("product_n2", 4, None),
    ]

    @staticmethod
    def _case(name, m, params):
        if name == "product_n2":
            nl = _product_nl(m)
        else:
            nl = make_builtin(name, m, params).nonlinearity
        p = ExponentFunction(np.linspace(1.5, 3.0, m))
        return Problem(m=m, n=nl.n, exponent=p, nonlinearity=nl, lam=0.7)

    @pytest.mark.parametrize("name,m,params", CASES)
    def test_raw_array_matches_sequence_path_exactly(self, name, m, params):
        prob = self._case(name, m, params)
        rng = np.random.default_rng(11)
        for _ in range(5):
            arr = rng.normal(size=(m, prob.n))
            arr[1] = arr[0]  # a vanishing forward difference
            from_seq = residual_values(PeriodicSequence(arr), prob)
            from_raw = residual_values(arr, prob)
            assert np.array_equal(from_raw, from_seq)
            assert np.array_equal(from_raw, _roll_residual(arr, prob))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raw_input_raises(self, bad):
        _, prob = _problem([1.0, 2.0, 3.0])
        arr = np.array([[1.0], [bad], [3.0]])
        with pytest.raises(EvaluationError):
            residual_values(arr, prob)

    def test_wrong_shape_is_rejected(self):
        _, prob = _problem([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            residual_values(np.zeros((4, 1)), prob)


def _spied_family(n, calls):
    """A family whose dF appends the size of each call to calls: example1
    at m = 4 for n = 1, and F = |u1|^2 |u2|^2 at m = 5 for n = 2."""
    if n == 1:
        base = make_builtin("example1", 4).nonlinearity
        m, F, dF = base.m, base.F, base.dF
    else:
        m = 5

        def F(K, U1, U2):
            return np.sum(U1 * U1, axis=1) * np.sum(U2 * U2, axis=1)

        def dF(K, U1, U2):
            a, b = np.sum(U1 * U1, axis=1)[:, None], np.sum(U2 * U2, axis=1)[:, None]
            return 2.0 * U1 * b, a * 2.0 * U2

    def spy(K, U1, U2):
        calls.append(K.size)
        return dF(K, U1, U2)

    return Nonlinearity(m, F, spy, n=n)


@pytest.mark.parametrize("n", [1, 2])
def test_residual_rows_make_one_partials_call_per_stack(n):
    """One _residual_rows call on a stack of B sequences calls dF once, on
    all B * m pairs (k, u(k+1), u(k)), and every row of its result is bitwise
    the residual assembled row by row from the per-point f."""
    calls = []
    nl = _spied_family(n, calls)
    p = ExponentFunction(np.linspace(1.5, 3.0, nl.m))
    prob = Problem(m=nl.m, n=n, exponent=p, nonlinearity=nl, lam=0.7)
    vals = np.random.default_rng(12).normal(size=(6, nl.m, n))
    vals[2, 1] = vals[2, 0]  # a vanishing forward difference
    calls.clear()
    out, ok = _residual_rows(vals, prob)
    assert calls == [6 * nl.m]
    assert ok.all()
    for row, got in zip(vals, out):
        assert np.array_equal(got, _roll_residual(row, prob))


def _mu_problem(m, p, n=1):
    return Problem(m=m, n=n, exponent=ExponentFunction(np.asarray(p, dtype=float)), nonlinearity=_zero_nl(m, n), lam=1.0)


def test_mu_is_finite_where_the_square_of_a_difference_overflows():
    """At m = 2, p = 1.5, u = (0, 1e160): |Delta u|^2 = 1e320 overflows, but
    mu = 2 (1e160)^1.5 / 1.5 is a double."""
    mus = _stack_pass(np.array([[[0.0], [1e160]]]), _mu_problem(2, [1.5, 1.5]), mu=True)[0]
    assert np.isfinite(mus[0])
    assert mus[0] == pytest.approx(2.0 * 1e240 / 1.5, rel=1e-12)


def test_mu_is_finite_where_a_term_overflows_before_its_division_by_p():
    """At p = 1100 the level radius of r = 1e306 has terms |Delta u|^p near
    1e309, past the largest double, but their sum over p is r."""
    prob = _mu_problem(4, [1100.0] * 4)
    v = np.array([[1.0], [0.0], [-1.0], [0.0]]) / np.sqrt(2.0)
    t = float(_level_radii(prob, v[None], 1e306)[0])
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.sum(np.abs(t * np.diff(np.append(v, v[:1]))) ** 1100.0))
    assert mu(t * v, prob) == pytest.approx(1e306, rel=1e-9)


@pytest.mark.parametrize("n", [1, 2])
def test_mu_rows_keep_their_bits_beside_scaled_rows(n):
    """Only finite rows whose mu overflows on the way are evaluated again:
    every other row of a stack is bitwise its one-row evaluation, and a
    row whose true mu is not a double stays inf."""
    m = 5
    prob = _mu_problem(m, np.linspace(1.2, 1.8, m), n)
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(7, m, n))
    stack[1] *= 1e160
    stack[3] = np.nan
    stack[4] = 0.0
    stack[5] *= 1e300
    mus, _, _ = _stack_pass(stack, prob, mu=True)
    alone = np.array([_stack_pass(row[None], prob, mu=True)[0][0] for row in stack])
    assert mus.tobytes() == alone.tobytes()
    assert np.isfinite(mus[[0, 1, 2, 4, 6]]).all() and mus[4] == 0.0
    assert np.isnan(mus[3]) and mus[5] == np.inf
    p = prob.exponent.values
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(np.roll(stack, -1, axis=1) - stack, axis=2)
        plain = np.add.reduce(norms**p / p, axis=1)
    assert plain[[0, 2, 6]].tobytes() == mus[[0, 2, 6]].tobytes()
    assert not np.isfinite(plain[1])


def test_potential_pass_takes_no_difference_norms(monkeypatch):
    """Only mu and the residual off p = 2 read the norms of the
    differences: a potential-only pass at p = (2, 2.5, 3, 2) takes none,
    and gives the bits of the pass that also takes mu."""
    prob = Problem(m=4, n=1, exponent=ExponentFunction(np.array([2.0, 2.5, 3.0, 2.0])),
                   nonlinearity=make_example3(4)[0], lam=1.0)
    stack = np.random.default_rng(5).normal(size=(6, 4, 1))
    calls = []
    real = operators._entry_norms

    def spy(d):
        calls.append(d.shape)
        return real(d)

    monkeypatch.setattr(operators, "_entry_norms", spy)
    pots = _stack_pass(stack, prob, potential=True)[1]
    assert calls == []
    both = _stack_pass(stack, prob, mu=True, potential=True)
    assert len(calls) == 1
    assert pots.tobytes() == both[1].tobytes()
    calls.clear()
    _stack_pass(stack, prob, residual=True)
    assert len(calls) == 1
