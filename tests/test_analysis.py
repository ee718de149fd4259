import ast
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pklap.analysis import (
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    BoundProfile,
    GrowthProfile,
    anticoercivity_probe,
    check_b2_b3,
    check_bounds,
    check_c1,
    check_c2,
    check_c3,
    check_growth,
    lambda_star_estimate,
    rng_for,
    thresholds,
    xi_constant,
)
import pklap.analysis as analysis
from pklap.analysis import _action_or_limit_rows, _worst_report, _xi_minimum, _xi_search
from pklap.core import ExponentFunction, Nonlinearity, PeriodicSequence, Problem
from pklap.functional import action
from pklap.nonlinearities import make_example1, make_example3, make_power


def _problem_from(nl, p=2.0, lam=1.0):
    return Problem(
        m=nl.m,
        n=nl.n,
        exponent=ExponentFunction.constant(p, nl.m),
        nonlinearity=nl,
        lam=lam,
    )


class TestRngFor:
    def test_same_keys_same_stream(self):
        a = rng_for(3, 1, 2).normal(size=5)
        b = rng_for(3, 1, 2).normal(size=5)
        assert np.array_equal(a, b)

    def test_different_keys_different_stream(self):
        a = rng_for(3, 1, 2).normal(size=5)
        b = rng_for(3, 1, 3).normal(size=5)
        assert not np.array_equal(a, b)

    def test_key_order_matters(self):
        a = rng_for(0, 1, 2).normal(size=5)
        b = rng_for(0, 2, 1).normal(size=5)
        assert not np.array_equal(a, b)


class TestNormComparisons:
    def test_c1_oracle(self):
        # entry norms (1, 2, 4, 1), s = 3: lhs = 74, rhs = 4 * 22^1.5
        u = PeriodicSequence(np.array([1.0, 2.0, 4.0, 1.0]))
        rep = check_c1(u, 3.0)
        assert rep.verdict == HOLDS
        assert rep.margin == pytest.approx(4.0 * 22.0**1.5 - 74.0)
        assert rep.witness is None

    def test_c2_equality_at_constant_magnitudes(self):
        # all entries share a magnitude: both sides equal m * c^s
        u = PeriodicSequence(np.array([2.0, -2.0, 2.0]))
        rep = check_c2(u, 4.0)
        assert rep.verdict == HOLDS
        assert rep.margin == pytest.approx(0.0, abs=1e-9)

    def test_c3_oracle(self):
        # |Delta u|^2 sums to 14; bound is 4 * (4 * 22 + 1) = 356
        u = PeriodicSequence(np.array([1.0, 2.0, 4.0, 1.0]))
        rep = check_c3(u, ExponentFunction.constant(2.0, 4))
        assert rep.verdict == HOLDS
        assert rep.margin == pytest.approx(356.0 - 14.0)

    def test_sampled_sweep_never_violates(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(1, 4))
            u = PeriodicSequence(rng.normal(scale=3.0, size=(m, n)))
            s = float(rng.uniform(2.0, 5.0))
            p = ExponentFunction(rng.uniform(2.0, 4.0, size=m))
            assert check_c1(u, s).verdict == HOLDS
            assert check_c2(u, s).verdict == HOLDS
            assert check_c3(u, p).verdict == HOLDS

    def test_overflow_gives_inf_or_inconclusive(self):
        # (1, 1) at p = 1100: 2^p overflows, so the C.3 bound is inf and holds
        p = ExponentFunction.constant(1100.0, 2)
        with np.errstate(over="ignore"):
            rep = check_c3(PeriodicSequence(np.array([1.0, 1.0])), p)
        assert rep.verdict == HOLDS
        assert rep.margin == math.inf
        # (100, -100): both sides overflow, and inf - inf decides nothing
        with np.errstate(over="ignore", invalid="ignore"):
            rep = check_c3(PeriodicSequence(np.array([100.0, -100.0])), p)
        assert rep.verdict == INCONCLUSIVE
        assert math.isnan(rep.margin)
        assert rep.witness is None

    def test_parameter_validation(self):
        u = PeriodicSequence(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            check_c1(u, 0.0)
        with pytest.raises(ValueError):
            check_c2(u, 1.5)
        with pytest.raises(ValueError):
            check_c3(u, ExponentFunction.constant(2.0, 3))

    @pytest.mark.parametrize("check", [check_c1, check_c2])
    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_non_finite_exponent_is_rejected(self, check, s):
        """A NaN or infinite s decides nothing; it is rejected by name
        rather than reported inconclusive with a NaN margin."""
        with pytest.raises(ValueError, match=rf"finite s .* got s = {s}"):
            check(PeriodicSequence(np.array([1.0, 2.0])), s)


class TestXiConstant:
    def test_closed_form_for_quadratic(self):
        for m in (2, 3, 4, 6, 12):
            assert xi_constant(m) == pytest.approx(
                2.0 - 2.0 * math.cos(2.0 * math.pi / m)
            )

    def test_optimizer_agrees_with_eigenvalue(self):
        for m in (2, 3, 5):
            direct = xi_constant(m)
            opt, _ = _xi_minimum(m, 1, 2.0)
            assert opt == pytest.approx(direct, abs=1e-7)

    def test_two_point_closed_form_general_p(self):
        # m = 2 forces u = +-(v, -v); the quotient is 2^(1 + p/2) exactly
        assert xi_constant(2, p_plus=2.5) == pytest.approx(2.0**2.25, abs=1e-7)
        assert xi_constant(2, p_plus=3.0) == pytest.approx(2.0**2.5, abs=1e-7)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("pp", [1.5, 3.0, 60.0, 1100.0, 2045.0])
    def test_two_point_value_is_returned_in_closed_form(self, n, pp):
        """At m = 2, xi_constant returns 2^(1 + p/2) by C pow at every n, without
        a descent, converged and bit for bit."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xi, converged = _xi_search(2, n, pp)
        assert xi == float(np.float_power(2.0, 1.0 + pp / 2.0)) and converged
        assert xi_constant(2, n, pp) == xi

    def test_two_point_value_past_overflow_falls_back_to_the_descent(self):
        """From p = 2046 on 2^(1 + p/2) overflows, and the descent runs."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            xi, _ = _xi_search(2, 1, 2046.0)
        assert xi == math.inf
        assert [str(w.message)[:31] for w in caught] == ["xi_constant: no start met the g"]

    def test_inequality_on_samples(self):
        rng = np.random.default_rng(2)
        for m, pp in ((3, 2.5), (4, 3.0)):
            xi = xi_constant(m, p_plus=pp)
            for _ in range(100):
                v = rng.normal(size=(m, 1))
                v -= v.mean(axis=0)
                if np.linalg.norm(v) < 1e-9:
                    continue
                d = np.roll(v, -1, axis=0) - v
                lhs = float(np.sum(np.abs(d) ** pp))
                rhs = xi * float(np.linalg.norm(v)) ** pp
                assert lhs >= rhs - 1e-8 * max(1.0, rhs)

    def test_inequality_on_samples_two_components(self):
        # n = 2: |Delta v(k)| is the Euclidean norm of a row, and the
        # descent's norms are taken per start over all m*n entries
        rng = np.random.default_rng(5)
        m, n = 5, 2
        for pp in (2.5, 3.0):
            xi = xi_constant(m, n, pp)
            violations = 0
            for _ in range(1000):
                v = rng.normal(size=(m, n))
                v -= v.mean(axis=0)
                nv = float(np.linalg.norm(v))
                if nv < 1e-9:
                    continue
                d = np.roll(v, -1, axis=0) - v
                lhs = float(np.sum(np.linalg.norm(d, axis=1) ** pp))
                rhs = xi * nv**pp
                violations += lhs < rhs - 1e-8 * max(1.0, rhs)
            assert violations == 0

    @pytest.mark.parametrize(
        "m, n, pp, expected",
        [
            (8, 1, 3.0, 0.17552841842940362),
            (12, 1, 3.0, 0.045096167189057554),
            (5, 2, 3.0, 0.7265425280053607),
            (9, 1, 4.0, 0.030784461948426788),
        ],
    )
    def test_pinned_values(self, m, n, pp, expected):
        # exact values of the descent from its 32 starts at seed 0; any
        # change to its arithmetic or to the start draws moves them
        # (xi_constant gives n >= 2 in closed form, 1 ulp above at (5, 2, 3))
        assert _xi_minimum(m, n, pp)[0] == expected

    def test_unconverged_descent_warns_and_returns_best(self):
        # at (8, 1, 1.5) no start meets the tolerance in 5000 steps
        with pytest.warns(RuntimeWarning, match="no start met the gradient tolerance"):
            xi = xi_constant(8, 1, 1.5)
        assert xi == 1.019208484443189

    def test_validation(self):
        with pytest.raises(ValueError):
            xi_constant(1)
        with pytest.raises(ValueError):
            xi_constant(3, p_plus=0.5)

    def test_zero_dimension_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            xi_constant(8, 0, 3.0)

    def test_nan_exponent_raises(self):
        with pytest.raises(ValueError, match="exponent"):
            xi_constant(8, 1, math.nan)

    def test_infinite_exponent_raises(self):
        with pytest.raises(ValueError, match="exponent"):
            xi_constant(8, 1, math.inf)


def _log_power_mean_bound(m, p):
    """log L with L = m^(1 - p/2) lambda1^(p/2), lambda1 = 2 - 2cos(2 pi/m):
    the power-mean lower bound on xi at p >= 2, equal to xi at n >= 2.  It
    is taken in logs because L underflows at large p."""
    lambda1 = 2.0 - 2.0 * math.cos(2.0 * math.pi / m)
    return (1.0 - p / 2.0) * math.log(m) + (p / 2.0) * math.log(lambda1)


@settings(max_examples=20)
@given(st.integers(3, 12), st.sampled_from([1, 2, 3]), st.floats(2.0, 6.0))
def test_xi_is_never_below_the_power_mean_bound(m, n, p):
    """Sum_k a_k^p >= m^(1 - p/2) (sum_k a_k^2)^(p/2) >= m^(1 - p/2) lambda1^(p/2)
    on the unit sphere of the zero-mean subspace, so no value the descent
    reaches, converged or not, lies below L."""
    with warnings.catch_warnings():
        # near p = 2 at n >= 2 the descent can end unconverged, which warns
        warnings.simplefilter("ignore", RuntimeWarning)
        xi, _ = _xi_minimum(m, n, p)
    assert math.log(xi) >= _log_power_mean_bound(m, p) - 1e-12


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [3, 5, 8, 12])
def test_xi_meets_the_power_mean_bound_at_two_or_more_components(m, n, p):
    """At n >= 2 the bound is attained, by u(k) = (cos 2 pi k/m, sin 2 pi k/m, 0, ...)
    normalised, so the descent converges to L itself, and xi_constant returns L."""
    xi, converged = _xi_minimum(m, n, p)
    assert converged
    assert abs(math.log(xi) - _log_power_mean_bound(m, p)) <= 1e-12
    closed, converged = _xi_search(m, n, p)
    assert converged
    assert abs(math.log(closed) - _log_power_mean_bound(m, p)) <= 1e-15


@pytest.mark.parametrize("m, n, p", [(4, 2, 2.00001), (12, 3, 60.0), (3, 2, 1100.0)])
def test_xi_at_two_or_more_components_is_the_bound_in_closed_form(m, n, p):
    """xi_constant takes L = m (lambda1/m)^(p/2) by C pow, converged and without
    a descent: at (4, 2, 2.00001) the descent runs all 5000 rounds and ends
    unconverged 1.6e-9 above L, and at m = 3, where lambda1 = m, L stays
    near 3 at any p while m^(1 - p/2) alone would underflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xi, converged = _xi_search(m, n, p)
    lambda1 = 2.0 - 2.0 * math.cos(2.0 * math.pi / m)
    assert converged and xi == m * (lambda1 / m) ** (p / 2.0)
    assert abs(math.log(xi) - _log_power_mean_bound(m, p)) <= 1e-12
    assert xi_constant(m, n, p) == xi


@pytest.mark.parametrize(
    "p, expected", [(3.0, 1.414213562373095), (60.0, 3.7252902984619017e-09), (1100.0, 1.0853314206469442e-165)]
)
def test_xi_at_period_four_is_the_bound_in_closed_form(p, expected):
    """At m = 4 and n = 1, u = (1, 0, -1, 0) / sqrt(2) has |Delta u(k)| =
    1/sqrt(2) at every k, so it attains L = 4 (lambda1/4)^(p/2), about
    4 * 2^(-p/2).  xi_constant returns that value, converged, without
    a descent; at (4, 1, 1100) the descent returned 3.49e-120, marked
    converged, 45 orders above L."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xi, converged = _xi_search(4, 1, p)
    assert converged and xi == expected and xi_constant(4, 1, p) == xi
    assert abs(math.log(xi) - _log_power_mean_bound(4, p)) <= 1e-12
    u = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)
    assert abs(math.log(np.sum(np.abs(np.roll(u, -1) - u) ** p)) - math.log(xi)) <= 1e-12


def test_xi_descent_at_period_four_meets_the_closed_form():
    """The descent, run directly, converges to within 1e-12 of the closed
    form at (4, 1, 3)."""
    closed = xi_constant(4, 1, 3.0)
    xi, converged = _xi_minimum(4, 1, 3.0)
    assert converged and abs(xi - closed) <= 1e-12 * closed


def test_xi_descent_at_a_huge_exponent_is_quiet():
    """At (4, 1, 1100) the descent's gradient norms overflow; run directly
    (xi_constant takes the closed form there) it shows no numpy warning,
    and it ends no lower than the closed form."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xi, _ = _xi_minimum(4, 1, 1100.0)
    assert xi >= xi_constant(4, 1, 1100.0)


def test_xi_bound_below_the_normal_doubles_falls_back_to_the_descent():
    """At (8, 2, 2000) L is about 1e-1130, below every double, and
    xi_constant runs the descent."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _xi_search(8, 2, 2000.0) == _xi_minimum(8, 2, 2000.0)


class TestProfiles:
    def _growth(self, **kw):
        base = dict(
            m=2,
            M=1.0,
            eta=0.25,
            alpha1=(1.0, 5.0),
            alpha2=(3.0, 2.0),
            alpha3=(0.0, -1.0),
            s=ExponentFunction(np.array([3.0, 2.0])),
            r=ExponentFunction(np.array([2.0, 3.0])),
        )
        base.update(kw)
        return GrowthProfile(**base)

    def test_minima(self):
        g = self._growth()
        assert g.alpha1_min == 1.0
        assert g.alpha2_min == 2.0
        assert g.positive

    def test_eta_range(self):
        with pytest.raises(ValueError):
            self._growth(eta=0.6)
        with pytest.raises(ValueError):
            self._growth(eta=0.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            self._growth(alpha1=(-1.0, 1.0))

    def test_vanishing_alpha_warns(self):
        with pytest.warns(RuntimeWarning, match="vanishing alpha"):
            g = self._growth(alpha2=(0.0, 1.0))
        assert not g.positive

    def test_growth_exponents_above_one(self):
        with pytest.raises(ValueError):
            self._growth(s=ExponentFunction(np.array([1.0, 2.0])))

    def test_scalar_coefficients_broadcast(self):
        g = self._growth(alpha1=2.0)
        assert np.all(g.alpha1 == 2.0)

    def test_bound_profile_radii_order(self):
        BoundProfile(C=1.0, rho1=0.5, rho2=1.0, rho3=1.0)
        with pytest.raises(ValueError):
            BoundProfile(C=1.0, rho1=1.0, rho2=0.5, rho3=2.0)
        with pytest.raises(ValueError):
            BoundProfile(C=0.0, rho1=0.5, rho2=1.0, rho3=2.0)

    @pytest.mark.parametrize("field", ["C", "rho1", "rho2", "rho3"])
    def test_bound_profile_rejects_non_finite(self, field):
        values = dict(C=1.0, rho1=0.5, rho2=1.0, rho3=2.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                BoundProfile(**dict(values, **{field: bad}))


class TestThresholds:
    def test_power_family_oracle(self):
        """a = b = 1, s = r = 2, m = 2, p = 2: the ratio is 2^2 * 2 / 2 = 4."""
        nl, growth = make_power(2, a=1.0, b=1.0, s=2.0, r=2.0)
        prob = _problem_from(nl)
        th = thresholds(prob, growth)
        assert th.lambda1 == pytest.approx(4.0)
        assert th.lambda2 == pytest.approx(4.0)
        assert th.lambda3 == pytest.approx(2.0)

    def test_thresholds_never_search_for_xi(self, monkeypatch):
        """xi enters no threshold, so thresholds() holds only the three
        lambdas and leaves xi's search to its one caller in `pklap check`,
        also at p_plus = 3, where that search would run the descent."""
        calls = []
        monkeypatch.setattr(analysis, "_xi_search", lambda *a, **k: calls.append(a))
        nl, growth = make_power(8, a=1.0, b=1.0, s=3.0, r=3.0)
        th = thresholds(_problem_from(nl, p=3.0), growth)
        assert calls == []
        assert th._fields == ("lambda1", "lambda2", "lambda3")

    def test_period_mismatch(self):
        """A profile of another period does not describe the problem; it
        gave lambda1 = 8.0 here before the periods were compared."""
        nl, _ = make_power(4, a=1.0, b=1.0, s=2.0, r=2.0)
        _, growth6 = make_power(6, a=1.0, b=1.0, s=2.0, r=2.0)
        with pytest.raises(ValueError, match="periods differ: 4 and 6"):
            thresholds(_problem_from(nl), growth6)

    def test_minimum_selection(self):
        nl, _ = make_power(2, a=1.0, b=1.0, s=2.0, r=2.0)
        prob = _problem_from(nl)
        g = GrowthProfile(
            m=2,
            M=1.0,
            eta=0.25,
            alpha1=(1.0, 5.0),
            alpha2=(3.0, 2.0),
            alpha3=0.0,
            s=ExponentFunction.constant(2.0, 2),
            r=ExponentFunction.constant(2.0, 2),
        )
        th = thresholds(prob, g)
        num = 2.0**2 * 2.0  # 2^p_plus * m^(p_plus/2)
        assert th.lambda1 == pytest.approx(num / (2.0 * 1.0))
        assert th.lambda2 == pytest.approx(num / (2.0 * 2.0))
        assert th.lambda3 == pytest.approx(num / (2.0 * 3.0))

    def test_vanishing_alpha_gives_infinite_threshold(self):
        nl, _ = make_power(2, a=1.0, b=1.0, s=2.0, r=2.0)
        prob = _problem_from(nl)
        with pytest.warns(RuntimeWarning):
            g = GrowthProfile(
                m=2,
                M=1.0,
                eta=0.25,
                alpha1=0.0,
                alpha2=1.0,
                alpha3=0.0,
                s=ExponentFunction.constant(2.0, 2),
                r=ExponentFunction.constant(2.0, 2),
            )
        th = thresholds(prob, g)
        assert th.lambda1 == math.inf
        assert th.lambda3 < math.inf


class TestCheckGrowth:
    def test_example1_verdicts(self, a_samples):
        a_samples(1500)
        nl, growth = make_example1(2)
        reports = {r.name: r for r in check_growth(nl, growth)}
        assert reports["A.4"].verdict == HOLDS
        assert reports["A.5"].verdict == HOLDS
        # the quotient against the weakest mixed power tends to a positive
        # constant for this family, so the first two variants fail ...
        assert reports["A.6.1"].verdict == VIOLATED
        assert reports["A.6.2"].verdict == VIOLATED
        # ... and only the (s_minus, r_minus) variant vanishes
        assert reports["A.6.3"].verdict == HOLDS

    def test_violated_reports_carry_witnesses(self, a_samples):
        a_samples(1500)
        nl, growth = make_example1(2)
        reports = {r.name: r for r in check_growth(nl, growth)}
        bad = reports["A.6.1"]
        assert bad.witness is not None
        assert "quotient" in bad.witness
        assert bad.detail["shell_quotients"][-1] > 1.0
        assert reports["A.4"].witness is None

    def test_period_mismatch(self):
        nl, _ = make_example1(2)
        _, growth4 = make_example1(4)
        with pytest.raises(ValueError, match="periods differ: 2 and 4"):
            check_growth(nl, growth4)

    def test_reports_are_serialisable(self, a_samples):
        import json

        a_samples(300)
        nl, growth = make_example1(2)
        for rep in check_growth(nl, growth):
            json.dumps(rep.to_dict())


class TestCheckBounds:
    def test_example3_all_hold(self, a_samples):
        a_samples(1500)
        nl, bounds = make_example3(2)
        reports = {r.name: r for r in check_bounds(nl, bounds)}
        assert set(reports) == {"A.7", "A.8", "A.9"}
        for rep in reports.values():
            assert rep.verdict == HOLDS
            assert rep.margin >= 0.0

    def test_sign_condition_violation_detected(self, a_samples):
        a_samples(500)

        def F(k, u1, u2):
            a = float(np.asarray(u1).reshape(()))
            b = float(np.asarray(u2).reshape(()))
            return -(a * a + b * b)

        def F2(k, u1, u2):
            return -2.0 * float(np.asarray(u1).reshape(()))

        def F3(k, u1, u2):
            return -2.0 * float(np.asarray(u2).reshape(()))

        nl = Nonlinearity.from_points(m=2, F=F, F2_prime=F2, F3_prime=F3)
        b = BoundProfile(C=1.0, rho1=0.5, rho2=1.0, rho3=2.0)
        reports = {r.name: r for r in check_bounds(nl, b)}
        assert reports["A.7"].verdict == HOLDS
        assert reports["A.8"].verdict == HOLDS  # -F > 0 away from zero
        assert reports["A.9"].verdict == VIOLATED
        assert reports["A.9"].witness["F"] < 0.0

    def test_all_nan_margins_are_inconclusive(self, a_samples):
        """At rho3 = 1e200 every A.9 sample squares to inf and sin(inf) is
        NaN, so no sample decides A.9.  (make_example3 rejects these radii,
        so the profile is built directly.)"""
        a_samples(500)
        nl, default = make_example3(2)
        bounds = BoundProfile(C=default.C, rho1=default.rho1, rho2=default.rho2, rho3=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            reports = {r.name: r for r in check_bounds(nl, bounds)}
        a9 = reports["A.9"]
        assert a9.verdict == INCONCLUSIVE
        assert a9.margin == math.inf
        assert a9.witness is None
        assert a9.samples == 500
        assert reports["A.7"].verdict == HOLDS
        assert reports["A.8"].verdict == HOLDS


class TestAnticoercivityProbe:
    def test_quartic_forcing_drives_action_down(self, monkeypatch):
        # lam * |u|^4 beats the quadratic mu term on every ray
        monkeypatch.setattr(analysis, "_PROBE_DIRECTIONS", 16)
        nl, _ = make_power(2, a=1.0, b=1.0, s=4.0, r=4.0)
        prob = _problem_from(nl, lam=1.0)
        rep = anticoercivity_probe(prob, seed=1)
        assert rep.verdict == HOLDS
        assert rep.margin > 0.0

    def test_borderline_quadratic_depends_on_lambda(self):
        """s = r = p = 2 on two points: decay holds only above lambda_3 = 2."""
        nl, _ = make_power(2, a=1.0, b=1.0, s=2.0, r=2.0)
        weak = anticoercivity_probe(_problem_from(nl, lam=1.0), seed=0)
        assert weak.verdict == VIOLATED
        assert weak.witness is not None
        strong = anticoercivity_probe(_problem_from(nl, lam=4.0), seed=0)
        assert strong.verdict == HOLDS

    def test_random_directions_missing_worst_ray(self):
        """At lambda = 1 J vanishes on the rays +-(1, -1)/sqrt(2), which the
        32 sampled rays miss; the structured ray (1, -1)/sqrt(2), the top
        mode of the 2-cycle Laplacian, is the witness."""
        nl, _ = make_power(2, a=1.0, b=1.0, s=2.0, r=2.0)
        rep = anticoercivity_probe(_problem_from(nl, lam=1.0), seed=0)
        assert rep.verdict == VIOLATED
        assert rep.witness["structured"]
        assert rep.witness["direction"].tolist() == [1 / math.sqrt(2), -1 / math.sqrt(2)]
        assert rep.witness["values"] == [0.0] * 4
        assert rep.samples == 32 + 6 and rep.detail == {"overflow": False, "structured": 6}

    def test_overflow_goes_to_the_overflowing_terms_limit(self):
        """mu >= 0 overflowing is J -> +inf; the potential overflowing with
        a finite mu is J -> -inf; a finite value is action's, bit for bit."""
        nl, _ = make_power(2, a=1.0, b=1.0, s=400.0, r=400.0)
        with np.errstate(over="ignore"):
            # |Delta u|^1100 overflows
            assert _action_or_limit_rows(np.array([[1e3, -1e3]]), _problem_from(nl, p=1100.0))[0] == math.inf
            # Delta u = 0, so mu = 0, and |t|^400 overflows
            assert _action_or_limit_rows(np.array([[1e3, 1e3]]), _problem_from(nl))[0] == -math.inf
        nl, _ = make_power(2, a=1.0, b=1.0, s=2.0, r=2.0)
        prob = _problem_from(nl, lam=5.0)
        x = np.array([0.3, -1.7])
        assert _action_or_limit_rows(x[None], prob)[0] == action(x.reshape(2, 1), prob)


class TestCheckB2B3:
    def test_example3_holds(self):
        nl, bounds = make_example3(2)
        prob = _problem_from(nl)
        b2, b3 = check_b2_b3(prob, r=0.5)
        assert b2.verdict == HOLDS
        assert b2.margin > 0.0
        assert b3.verdict == HOLDS
        assert b3.margin > 0.0
        assert b3.detail["r"] == 0.5

    def test_flat_potential_fails_strict_inequalities(self, b2_samples):
        b2_samples(14, 14)
        with pytest.warns(RuntimeWarning, match="vanishing alpha"):
            nl, _ = make_power(2, a=0.0, b=0.0, s=2.0, r=2.0)
        prob = _problem_from(nl)
        b2, b3 = check_b2_b3(prob, r=0.5)
        assert b2.verdict == VIOLATED
        assert b3.verdict == VIOLATED

    def test_radius_validation(self):
        nl, _ = make_example3(2)
        for r in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                check_b2_b3(_problem_from(nl), r=r)


class TestOneVerdictRule:
    def test_reports_are_built_in_three_places(self):
        """Every sampled verdict is judged by _worst_report; only the
        one-row C.x report (which keeps a NaN margin) and the probe (which
        reports its first failing ray) build a CheckReport of their own."""
        tree = ast.parse(inspect.getsource(analysis))
        builders = {
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "CheckReport"
        }
        assert builders == {"_worst_report", "_inequality_report", "anticoercivity_probe"}

    def test_a_strict_condition_fails_at_an_exact_zero(self):
        margins = np.array([1.0, 0.0, 2.0])

        def witness_of(i):
            return {"i": i}

        strict = _worst_report("X", margins, 0.0, witness_of, 3, 7, strict=True)
        assert (strict.verdict, strict.margin, strict.witness) == (VIOLATED, 0.0, {"i": 1})
        loose = _worst_report("X", margins, 0.0, witness_of, 3, 7)
        assert (loose.verdict, loose.margin, loose.witness) == (HOLDS, 0.0, None)


class TestLambdaStar:
    def test_grid_validation(self):
        nl, _ = make_example3(2)
        prob = _problem_from(nl)
        with pytest.raises(ValueError):
            lambda_star_estimate(prob, [])
        with pytest.raises(ValueError):
            lambda_star_estimate(prob, [0.5, -1.0])

    @pytest.mark.parametrize("count", [0, -1])
    def test_sample_count_below_one_is_rejected(self, count):
        """Zero samples gave an estimate of inf from nothing, and a negative
        count failed inside numpy."""
        nl, _ = make_example3(2)
        with pytest.raises(ValueError, match=f"samples_per_r must be >= 1, got {count}"):
            lambda_star_estimate(_problem_from(nl), [0.5], samples_per_r=count)

    def test_flat_potential_gives_infinity(self):
        with pytest.warns(RuntimeWarning, match="vanishing alpha"):
            nl, _ = make_power(2, a=0.0, b=0.0, s=2.0, r=2.0)
        prob = _problem_from(nl)
        est = lambda_star_estimate(prob, [0.5, 1.0], samples_per_r=30)
        assert est.estimate == math.inf
        assert est.phi_values == (0.0, 0.0)

    def test_frozen_estimate(self):
        """Reference value for the bounded sine well, m = 2, seed 0."""
        nl, _ = make_example3(2)
        prob = _problem_from(nl)
        est = lambda_star_estimate(prob, [0.25, 0.5, 0.75], samples_per_r=200)
        assert est.estimate == pytest.approx(2.1429570158091105, rel=1e-12)

    def test_sup_estimates_grow_with_samples(self):
        nl, _ = make_example3(3)
        prob = _problem_from(nl)
        small = lambda_star_estimate(prob, [0.5], samples_per_r=50)
        big = lambda_star_estimate(prob, [0.5], samples_per_r=100)
        # each radius draws from two streams, so the larger run extends the smaller
        assert big.sup_values[0] >= small.sup_values[0]

    def test_estimate_is_positive(self):
        nl, _ = make_example3(2)
        est = lambda_star_estimate(_problem_from(nl), [0.5], samples_per_r=50)
        assert est.estimate > 0.0

