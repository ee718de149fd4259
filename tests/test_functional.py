import numpy as np
import pytest

from pklap.core import (
    ExponentFunction,
    Nonlinearity,
    PeriodicSequence,
    Problem,
)
from pklap.functional import (
    CLASS_DEGENERATE,
    CLASS_MAXIMUM,
    CLASS_MINIMUM,
    CLASS_SADDLE,
    SpectralSummary,
    action,
    gradient,
    gradient_fd,
    hessian_fd,
    morse_summary,
    mu,
    potential,
)
from pklap.nonlinearities import make_example1, make_example3
from pklap.operators import residual_values


def _zero_nl(m):
    return Nonlinearity.from_points(
        m=m,
        F=lambda k, u1, u2: 0.0,
        F2_prime=lambda k, u1, u2: 0.0,
        F3_prime=lambda k, u1, u2: 0.0,
    )


def _free_problem(m, p=2.0, lam=1.0):
    return Problem(
        m=m,
        n=1,
        exponent=ExponentFunction.constant(p, m),
        nonlinearity=_zero_nl(m),
        lam=lam,
    )


def test_mu_and_action_oracle():
    """u = (1, 2, 4, 1), p = 2, F = 0: mu = (1 + 4 + 9 + 0)/2 = 7."""
    u = PeriodicSequence(np.array([1.0, 2.0, 4.0, 1.0]))
    prob = _free_problem(4)
    assert mu(u, prob) == pytest.approx(7.0)
    assert potential(u, prob) == 0.0
    assert action(u, prob) == pytest.approx(7.0)


def test_mu_mixed_exponents():
    # Delta u = (1, -1); terms (1/2)*1 + (1/3)*1
    u = PeriodicSequence(np.array([0.0, 1.0]))
    prob = Problem(
        m=2,
        n=1,
        exponent=ExponentFunction(np.array([2.0, 3.0])),
        nonlinearity=_zero_nl(2),
        lam=1.0,
    )
    assert mu(u, prob) == pytest.approx(0.5 + 1.0 / 3.0)


def test_mu_vanishes_only_on_constants():
    prob = _free_problem(3)
    assert mu(PeriodicSequence.constant(np.array([5.0]), 3), prob) == 0.0
    assert mu(PeriodicSequence(np.array([0.0, 1.0, 0.0])), prob) > 0.0


def test_potential_sign_convention():
    """The potential term is minus the summed F, scaled by lam in the action."""
    nl, _ = make_example3(2)
    a = 0.7
    u = PeriodicSequence(np.array([a, -a]))
    prob = Problem(
        m=2,
        n=1,
        exponent=ExponentFunction.constant(2.0, 2),
        nonlinearity=nl,
        lam=2.0,
    )
    # F(k, t1, t2) = -sin(t1^2 + t2^2) |sin(pi k / 2)|; only k = 1 survives,
    # with t1 = u(2) = -a, t2 = u(1) = a, so F = -sin(2 a^2).
    assert potential(u, prob) == pytest.approx(np.sin(2.0 * a * a))
    assert action(u, prob) == pytest.approx(mu(u, prob) + 2.0 * np.sin(2.0 * a * a))


def test_gradient_oracle_and_residual_relation():
    u = PeriodicSequence(np.array([1.0, 2.0, 4.0, 1.0]))
    prob = _free_problem(4)
    g = gradient(u, prob)
    assert np.allclose(g.values.reshape(-1), [-1.0, -1.0, 5.0, -3.0])
    # gradient of the action is minus the system residual
    assert np.allclose(g.values, -residual_values(u, prob))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    nl, _ = make_example1(4)
    prob = Problem(
        m=4,
        n=1,
        exponent=ExponentFunction(np.array([2.0, 3.0, 2.5, 4.0])),
        nonlinearity=nl,
        lam=0.8,
    )
    for _ in range(20):
        u = PeriodicSequence(rng.normal(scale=1.5, size=(4, 1)))
        g = gradient(u, prob).values.reshape(-1)
        g_fd = gradient_fd(u, prob).values.reshape(-1)
        denom = max(1.0, float(np.linalg.norm(g)))
        assert float(np.linalg.norm(g - g_fd)) / denom < 1e-6


def test_hessian_oracle_two_point_well():
    """F = (2 t2^2 - t2^4)/4 at u = 0, m = 2, p = 2, lam = 1.

    The quadratic part of the action at zero is u1^2 + u2^2 - 2 u1 u2 from
    mu and (1/2)(u1^2 + u2^2) ... with the minus sign of the potential the
    Hessian works out to [[1, -2], [-2, 1]].
    """

    def F(k, u1, u2):
        t = float(np.asarray(u2).reshape(()))
        return (2.0 * t * t - t**4) / 4.0

    def F3(k, u1, u2):
        t = float(np.asarray(u2).reshape(()))
        return t - t**3

    nl = Nonlinearity.from_points(m=2, F=F, F2_prime=lambda *a: 0.0, F3_prime=F3)
    prob = Problem(
        m=2,
        n=1,
        exponent=ExponentFunction.constant(2.0, 2),
        nonlinearity=nl,
        lam=1.0,
    )
    h = hessian_fd(PeriodicSequence.zeros(2, 1), prob)
    assert np.allclose(h, [[1.0, -2.0], [-2.0, 1.0]], atol=1e-6)

    summary = morse_summary(PeriodicSequence.zeros(2, 1), prob)
    assert summary.morse_index == 1
    assert summary.classification == CLASS_SADDLE
    assert np.allclose(np.sort(summary.eigenvalues), [-1.0, 3.0], atol=1e-6)


def test_hessian_warns_below_quadratic_growth():
    u = PeriodicSequence(np.array([0.3, -0.2, 0.1]))
    prob = _free_problem(3, p=1.5)
    with pytest.warns(RuntimeWarning, match="p_minus < 2"):
        hessian_fd(u, prob)


class TestSpectralSummary:
    def _summary(self, neg, zero, pos):
        eig = np.concatenate(
            [-np.ones(neg), np.zeros(zero), np.ones(pos)]
        )
        return SpectralSummary(
            eigenvalues=eig,
            negative_count=neg,
            zero_count=zero,
            positive_count=pos,
            zero_tol=1e-8,
        )

    def test_classification_branches(self):
        assert self._summary(0, 0, 3).classification == CLASS_MINIMUM
        assert self._summary(3, 0, 0).classification == CLASS_MAXIMUM
        assert self._summary(1, 0, 2).classification == CLASS_SADDLE
        assert self._summary(1, 1, 1).classification == CLASS_DEGENERATE

    def test_morse_index_counts_negatives(self):
        assert self._summary(2, 0, 1).morse_index == 2


def test_morse_summary_explicit_zero_tol():
    # free quadratic action at a constant: one flat direction along constants
    prob = _free_problem(2)
    s = morse_summary(PeriodicSequence.zeros(2, 1), prob, zero_tol=1e-6)
    assert s.zero_count == 1
    assert s.negative_count == 0
    assert s.classification == CLASS_DEGENERATE
