import math
import re
import warnings

import numpy as np
import pytest

from pklap import solvers
from pklap.core import (
    EvaluationError,
    ExponentFunction,
    Nonlinearity,
    PeriodicSequence,
    Problem,
)
from pklap.operators import residual_values
from pklap.solvers import (
    SUBSPACE_FULL,
    SUBSPACE_Y,
    SolverConfig,
    SweepResult,
    _deflated_jacobians,
    _deflated_rows,
    _deflation_terms,
    _flat_connected,
    _make_records,
    _newton_iterate,
    _System,
    find_multiple,
    lambda_sweep,
    mountain_pass,
    subspace_basis,
)
from pklap.nonlinearities import make_example3, make_power


def _double_well(lam=1.0, p=2.0):
    """m = 2, F = (2 t2^2 - t2^4)/4: wells at u = +-(1, 1), saddle at 0."""

    def F(k, u1, u2):
        t = float(np.asarray(u2).reshape(()))
        return (2.0 * t * t - t**4) / 4.0

    def F3(k, u1, u2):
        t = float(np.asarray(u2).reshape(()))
        return t - t**3

    nl = Nonlinearity.from_points(
        m=2,
        F=F,
        F2_prime=lambda *a: 0.0,
        F3_prime=F3,
        even_symmetric=True,
    )
    return Problem(
        m=2,
        n=1,
        exponent=ExponentFunction.constant(p, 2),
        nonlinearity=nl,
        lam=lam,
    )


@pytest.mark.parametrize("seed", [-1, 2**32, 2**40])
def test_solver_config_rejects_a_seed_outside_32_bits(seed):
    with pytest.raises(ValueError, match=re.escape(f"seed must lie in [0, 2**32), got {seed}")):
        SolverConfig(seed=seed)
    assert SolverConfig(seed=0).seed == 0 and SolverConfig(seed=2**32 - 1).seed == 2**32 - 1


@pytest.mark.parametrize("field", ["residual_tol", "dedupe_tol"])
@pytest.mark.parametrize("value", [True, "1e-6", None])
def test_solver_config_rejects_a_float_field_that_is_no_real_number(field, value):
    """A bool is no tolerance (before, True passed as 1.0)."""
    with pytest.raises(TypeError, match=re.escape(f"{field} must be a real number, got {value!r}")):
        SolverConfig(**{field: value})
    assert getattr(SolverConfig(**{field: np.float32(0.5)}), field) == 0.5


@pytest.mark.parametrize("field", ["residual_tol", "dedupe_tol"])
def test_solver_config_names_a_float_field_too_large_for_a_float(field):
    """A ValueError naming the field, as for every other bad value (before,
    math.isfinite raised OverflowError)."""
    with pytest.raises(ValueError, match=f"^{field} is an integer too large for a float$"):
        SolverConfig(**{field: 10**400})


def test_lambda_sweep_through_an_overflowing_residual_warns_of_nothing():
    """At lambda = 1e200 example3's residual norms overflow: they read as
    inf, no trial accepts one, and no numpy warning is raised."""
    nl, _ = make_example3(2)
    prob = Problem(m=2, n=1, exponent=ExponentFunction.constant(2.0, 2), nonlinearity=nl, lam=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = lambda_sweep(prob, [1.0, 1e200], SolverConfig(starts=8), subspace=SUBSPACE_Y)
    assert res.failures == () and res.counts == (1, 1)
    assert all(not r.u.values.any() for s in res.solution_sets for r in s.records)


class TestSubspaceBasis:
    @pytest.mark.parametrize("m,n", [(2, 1), (4, 1), (3, 2)])
    def test_orthonormal_columns(self, m, n):
        cols = (m - 1) * n
        B = subspace_basis(m, n, SUBSPACE_Y)
        assert B.shape == (m * n, cols)
        assert np.allclose(B.T @ B, np.eye(cols), atol=1e-12)

    def test_y_columns_have_zero_mean(self):
        B = subspace_basis(4, 2, SUBSPACE_Y)
        for col in B.T:
            assert abs(col.reshape(4, 2).sum(axis=0)).max() < 1e-12

    def test_unknown_subspace(self):
        with pytest.raises(ValueError):
            subspace_basis(3, 1, "Z")
        with pytest.raises(ValueError):
            subspace_basis(3, 1, "W")


class TestNewtonSolve:
    def test_well_from_nearby_start(self):
        prob = _double_well()
        cfg = SolverConfig(starts=4, seed=0)
        x, norm, converged, _ = _newton_iterate(_System(prob), np.array([0.9, 1.1]), cfg)
        assert converged
        assert np.allclose(x, [1.0, 1.0], atol=1e-9)
        (rec,) = _make_records(prob, x[None], np.array([norm]), [("newton", 0)], cfg)
        assert rec.residual_norm == norm <= cfg.residual_tol
        assert (rec.method, rec.start_index) == ("newton", 0)
        assert rec.classification == "minimum"
        assert rec.morse_index == 0

    def test_none_when_capped_iterations_miss(self, monkeypatch):
        prob = _double_well()
        monkeypatch.setattr(solvers, "_MAX_ITERATIONS", 1)
        cfg = SolverConfig(residual_tol=1e-14)
        _, ng, converged, iters = _newton_iterate(_System(prob), np.array([5.0, -7.0]), cfg)
        assert not converged
        assert ng > cfg.residual_tol
        assert iters <= 1

    def test_alternating_solution_singular_exponent(self):
        """p = 1.5, cubic wells: u = (a, -a) with a = (sqrt(2)/3)^(2/3).

        The alternating ansatz reduces the system to 3 a^(3/2) = sqrt(2),
        giving a closed-form target for the singular-exponent branch.
        """
        nl, _ = make_power(2, a=1.0, b=1.0, s=3.0, r=3.0)
        prob = Problem(
            m=2,
            n=1,
            exponent=ExponentFunction.constant(1.5, 2),
            nonlinearity=nl,
            lam=1.0,
        )
        a = (math.sqrt(2.0) / 3.0) ** (2.0 / 3.0)
        target = PeriodicSequence(np.array([a, -a]))
        assert float(np.linalg.norm(residual_values(target, prob))) < 1e-12

        cfg = SolverConfig(residual_tol=1e-9)
        x, _, converged, _ = _newton_iterate(_System(prob), np.array([0.5, -0.5]), cfg)
        assert converged
        assert np.allclose(np.abs(x), a, atol=1e-7)


def test_converged_newton_skips_dead_line_search_steps(monkeypatch):
    """The closing line search of a converged start stops at the first trial
    point that equals the iterate, well before its 30 halvings."""
    system = _System(_double_well())
    calls = []
    in_jacobian = []
    real_rows, real_jacobians = system.rows, system.jacobians

    def rows(y):
        if not in_jacobian:
            calls.extend(["g"] * len(y))
        return real_rows(y)

    def jacobians(y):
        calls.append("jac")
        in_jacobian.append(1)
        try:
            return real_jacobians(y)
        finally:
            in_jacobian.pop()

    monkeypatch.setattr(system, "rows", rows)
    monkeypatch.setattr(system, "jacobians", jacobians)
    y, _, converged, _ = _newton_iterate(system, np.array([0.9, 1.1]), SolverConfig())
    assert converged
    assert np.allclose(y, [1.0, 1.0], atol=1e-9)
    last_jac = len(calls) - 1 - calls[::-1].index("jac")
    closing_search = calls[last_jac + 1 :]
    assert len(closing_search) < 30


class TestDeflation:
    def test_factor_and_gradient_oracle(self):
        # distance 1 from the known point: factor = 1 + shift = 2,
        # gradient = factor * d(log factor) = -2 * (y - y0)
        y = np.array([1.0, 0.0])
        factor, grad = _deflation_terms(y[None], [np.zeros(2)], 2.0, 1.0)
        assert factor[0] == pytest.approx(2.0)
        assert np.allclose(grad[0], [-2.0, 0.0])

    def test_exact_hit_is_infinite(self):
        factor, _ = _deflation_terms(np.zeros((1, 2)), [np.zeros(2)], 2.0, 1.0)
        assert factor[0] == math.inf

    def test_deflated_system_raises_at_known_point(self):
        """A known solution fails its row of the deflated residual; the
        other rows of the same call are evaluated."""
        system = _System(_double_well())
        g, ok, _ = _deflated_rows(system, np.array([[1.0, 1.0]]), np.array([[1.0, 1.0], [0.5, 1.0]]))
        assert ok.tolist() == [False, True]
        assert not np.all(np.isfinite(g[0]))
        assert np.all(np.isfinite(g[1]))

    def test_deflated_jacobian_matches_central_difference(self):
        system = _System(_double_well())
        known = np.array([[1.0, 1.0], [-1.0, -1.0]])
        y = np.array([0.3, -0.7])
        h = 1e-6

        def g_defl(x):
            g, ok, _ = _deflated_rows(system, known, x[None])
            assert ok[0]
            return g[0]

        fd = np.column_stack(
            [(g_defl(y + h * e) - g_defl(y - h * e)) / (2.0 * h) for e in np.eye(2)]
        )
        # the terms evaluated at y alone give the Jacobian at y
        _, _, terms = _deflated_rows(system, known, y[None])
        cold = _deflated_jacobians(system.jacobian(y)[None], *terms)[0]
        assert np.allclose(cold, fd, rtol=1e-6, atol=1e-6)
        # terms carried from a call at several points, y among them, give
        # the same Jacobian
        _, _, terms = _deflated_rows(system, known, np.stack([y + 0.25, y, y - 0.5]))
        carried = _deflated_jacobians(system.jacobians(y[None])[0], *(t[1:2] for t in terms))
        assert np.array_equal(carried[0], cold)

    def test_deflated_solve_escapes_known_well(self):
        prob = _double_well()
        cfg = SolverConfig(starts=4, seed=0)
        known = np.array([[1.0, 1.0]])
        x, _, converged, _ = _newton_iterate(_System(prob), np.array([0.9, 1.1]), cfg, known=known)
        assert converged
        # repelled from (1, 1); must land on a different critical point
        assert np.linalg.norm(x - known[0]) > 0.5
        assert np.linalg.norm(residual_values(x.reshape(2, 1), prob)) <= cfg.residual_tol


def test_mountain_pass_between_wells(monkeypatch):
    """The saddle at 0; the polish is one call of the shared Newton loop,
    undeflated."""
    calls = []
    real = solvers._newton_iterate

    def spy(system, y0, cfg, known=None):
        calls.append(known)
        return real(system, y0, cfg, known)

    monkeypatch.setattr(solvers, "_newton_iterate", spy)
    prob = _double_well()
    cfg = SolverConfig(seed=0)
    rec = mountain_pass(
        prob,
        PeriodicSequence(np.array([1.0, 1.0])),
        PeriodicSequence(np.array([-1.0, -1.0])),
        cfg,
    )
    assert rec is not None
    assert np.allclose(rec.u.values, 0.0, atol=1e-8)
    assert rec.action_value == pytest.approx(0.0, abs=1e-10)
    assert rec.morse_index == 1
    assert rec.method == "mountain_pass" and rec.start_index is None
    assert calls == [None]
    # the record keeps Newton's best norm, which is the full residual norm
    assert rec.residual_norm == float(np.linalg.norm(residual_values(rec.u, prob)))


class TestFindMultiple:
    def test_double_well_inventory(self):
        prob = _double_well()
        sols = find_multiple(prob, SolverConfig(starts=8, seed=0))
        flats = [tuple(np.round(r.u.values.reshape(-1), 8)) for r in sols.records]
        assert (1.0, 1.0) in flats
        assert (-1.0, -1.0) in flats
        assert (0.0, 0.0) in flats
        actions = [r.action_value for r in sols.records]
        assert actions == sorted(actions)
        assert all(r.residual_norm <= 1e-10 for r in sols.records)
        assert sols.symmetry_ok is True

    def test_bitwise_reproducible(self):
        prob = _double_well()
        cfg = SolverConfig(starts=8, seed=0)
        a = find_multiple(prob, cfg)
        b = find_multiple(prob, cfg)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.u.values, rb.u.values)
            assert ra.action_value == rb.action_value
            assert ra.residual_norm == rb.residual_norm

    def test_potential_free_collapses_to_zero(self):
        """With F == 0 every constant solves the system; the translation gauge
        must be quotiented away, leaving a single record."""
        with pytest.warns(RuntimeWarning, match="vanishing alpha"):
            nl, _ = make_power(2, a=0.0, b=0.0, s=2.0, r=2.0)
        prob = Problem(
            m=2,
            n=1,
            exponent=ExponentFunction.constant(2.0, 2),
            nonlinearity=nl,
            lam=1.0,
        )
        sols = find_multiple(prob, SolverConfig(starts=8, seed=0))
        assert len(sols.records) == 1
        assert np.allclose(sols.records[0].u.values, 0.0)

    def test_pipeline_does_not_call_mountain_pass(self, monkeypatch):
        """Newton and deflation alone find both wells and the saddle between
        them; find_multiple never calls mountain_pass."""

        def fail(*args, **kwargs):
            raise AssertionError("find_multiple called mountain_pass")

        monkeypatch.setattr(solvers, "mountain_pass", fail)
        sols = find_multiple(_double_well(), SolverConfig(starts=8, seed=0))
        got = [
            (r.u.values.reshape(-1).tolist(), r.action_value, r.method, r.start_index)
            for r in sols.records
        ]
        assert got == [
            ([-1.0, -1.0], -0.5, "newton", 0),
            ([1.0, 1.0], -0.5, "newton", 5),
            ([0.0, 0.0], 0.0, "newton", None),
        ]
        assert [r.morse_index for r in sols.records] == [0, 0, 1]
        assert all(r.residual_norm == 0.0 for r in sols.records)

    def test_subspace_validation(self):
        with pytest.raises(ValueError):
            find_multiple(_double_well(), subspace="W")

    def test_extra_starts_seed_known_solution(self):
        prob = _double_well()
        cfg = SolverConfig(starts=1, seed=0)
        sols = find_multiple(prob, cfg, extra_starts=[np.array([0.9, 1.1])])
        flats = [tuple(np.round(r.u.values.reshape(-1), 8)) for r in sols.records]
        assert (1.0, 1.0) in flats

    @pytest.mark.parametrize("subspace", [SUBSPACE_FULL, SUBSPACE_Y])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([0.9, 1.1, 0.3]), "has 3 values, not m*n = 2"),
            (np.array([[0.9]]), "has 1 values, not m*n = 2"),
            (np.array([np.nan, 1.1]), "is not finite"),
            (np.array([0.9, np.inf]), "is not finite"),
        ],
        ids=["long", "short", "nan", "inf"],
    )
    def test_malformed_extra_start_is_named(self, subspace, bad, message, monkeypatch):
        """A warm start of the wrong size, or one that is not finite, is a
        ValueError naming its index, raised before any Newton step."""

        def fail(*args, **kwargs):
            raise AssertionError("find_multiple ran Newton on a malformed start")

        monkeypatch.setattr(solvers, "_newton_rows", fail)
        good = np.array([0.9, 1.1])
        with pytest.raises(ValueError, match=rf"^extra_starts\[1\] {re.escape(message)}$"):
            find_multiple(_double_well(), SolverConfig(starts=1), subspace, extra_starts=[good, bad])


def test_example3_y_solution_set_is_pinned():
    """Record count and sorted actions of a fixed search, to 1e-12 relative."""
    nl, _ = make_example3(2)
    prob = Problem(
        m=2,
        n=1,
        exponent=ExponentFunction.constant(2.0, 2),
        nonlinearity=nl,
        lam=10.0,
    )
    sols = find_multiple(prob, SolverConfig(starts=4, seed=0), subspace=SUBSPACE_Y)
    expected = [
        -0.7758968519439939, -0.7758968519439939, 0.0,
        11.790473762415179, 11.790473762415179, 13.342267466303166,
        13.342267466303166, 24.35684437677435, 25.908638080662342,
        25.908638080662342, 36.92321499113353, 38.475008695021515,
        38.475008695021515, 49.4895856054927, 49.4895856054927,
        51.04137930938069, 51.04137930938069, 62.05595621985187,
        113.87323238117655, 113.87323238117655, 126.43960299553572,
        139.0059736098949, 176.70508545297238, 226.9705679104091,
        250.55151543523945, 252.10330913912745, 288.2506272783169,
        352.63427405400085, 365.2006446683599, 401.34796280754955,
        453.16523896887423, 476.74618649370456, 577.277151408578,
        765.7727106239655, 842.7227280140086, 1068.9173990724737,
        1117.6310878260224, 1571.5722236468407, 1948.5633420776157,
    ]
    assert len(sols.records) == len(expected)
    actions = sorted(r.action_value for r in sols.records)
    assert actions == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_flat_connected_segments():
    with pytest.warns(RuntimeWarning, match="vanishing alpha"):
        nl, _ = make_power(2, a=0.0, b=0.0, s=2.0, r=2.0)
    prob = Problem(
        m=2,
        n=1,
        exponent=ExponentFunction.constant(2.0, 2),
        nonlinearity=nl,
        lam=1.0,
    )
    # two constants: the whole segment between them has zero residual
    assert _flat_connected(np.array([1.0, 1.0]), np.array([-2.0, -2.0]), prob, 1e-8)
    # a constant and a nonconstant: the midpoint already fails
    assert not _flat_connected(np.array([1.0, 1.0]), np.array([4.0, -4.0]), prob, 1e-8)


class TestLambdaSweep:
    def test_grid_validation(self):
        prob = _double_well()
        with pytest.raises(ValueError):
            lambda_sweep(prob, [])
        with pytest.raises(ValueError):
            lambda_sweep(prob, [1.0, -2.0])

    @pytest.mark.parametrize(
        "grid, bad",
        [
            ([1.0, math.nan, 2.0], "entry 1 is nan"),
            ([1.0, math.inf], "entry 1 is inf"),
            ([-math.inf, 1.0], "entry 0 is -inf"),
            ([2.0, 1.0, math.nan], "entry 1 is 1.0"),
        ],
    )
    def test_a_bad_entry_is_named_before_any_solve(self, monkeypatch, grid, bad):
        """NaN fails every comparison and inf passes v > 0, so each is
        rejected by name, before the first grid point is solved."""
        solved = []
        monkeypatch.setattr(solvers, "find_multiple", lambda prob, *args, **kwargs: solved.append(prob.lam))
        with pytest.raises(ValueError, match=f"finite, positive and strictly increasing; {bad}$"):
            lambda_sweep(_double_well(), grid)
        assert solved == []

    def test_counts_and_estimate_shape(self):
        prob = _double_well()
        cfg = SolverConfig(starts=6, seed=0)
        res = lambda_sweep(prob, [0.5, 1.0], cfg)
        assert isinstance(res, SweepResult)
        assert res.lambda_grid == (0.5, 1.0)
        assert len(res.counts) == 2
        assert len(res.solution_sets) == 2
        assert res.failures == ()
        # the double well keeps three critical points at both grid points
        assert all(c >= 3 for c in res.counts)
        assert res.a_estimate == ((0.5, 1.0),)
        # min action recorded per grid point
        assert res.min_actions[1] == pytest.approx(-0.5, abs=1e-9)

    @pytest.mark.parametrize("error", [EvaluationError, np.linalg.LinAlgError])
    def test_numerical_failure_is_reported(self, monkeypatch, error):
        real = solvers.find_multiple

        def failing_at_one(prob, *args, **kwargs):
            if prob.lam == 1.0:
                raise error("no residual here")
            return real(prob, *args, **kwargs)

        monkeypatch.setattr(solvers, "find_multiple", failing_at_one)
        res = lambda_sweep(_double_well(), [0.5, 1.0], SolverConfig(starts=2, seed=0))
        assert res.failures == ((1.0, f"{error.__name__}: no residual here"),)
        assert res.counts[1] == 0
        assert res.counts[0] >= 1

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bad call")

        monkeypatch.setattr(solvers, "find_multiple", broken)
        with pytest.raises(TypeError, match="bad call"):
            lambda_sweep(_double_well(), [0.5, 1.0], SolverConfig(starts=2, seed=0))
