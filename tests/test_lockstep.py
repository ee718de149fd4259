"""Lock-step multistart: the batched paths against their one-at-a-time forms.

find_multiple runs all starts of a stage together, and every residual they
need goes through one call on a (rows, m, n) stack: the stacked residual
kernel, the central-difference stencil of several base points, stacked
deflation terms and the lock-step Newton loop.  Each must reproduce the
per-row computation bit for bit; the old sequential Newton loop is kept
here as the reference for the lock-step one.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pklap import operators
from pklap.core import (
    EvaluationError,
    ExponentFunction,
    Nonlinearity,
    Problem,
    _entry_norms,
    _shifted,
    _shifted_back,
)
from pklap.functional import _central_difference
from pklap.nonlinearities import make_builtin
from pklap.operators import _phi_rows, _residual_rows, residual_values
from pklap.solvers import (
    SUBSPACE_FULL,
    SUBSPACE_Y,
    SolverConfig,
    _deflated_jacobians,
    _deflated_rows,
    _deflation_terms,
    _newton_iterate,
    _newton_rows,
    _random_starts,
    _row_norms,
    _System,
    find_multiple,
)
from test_dedupe_deflation import _loop_deflation_terms
from test_shared_loops import _loop_reference, _well_nl2

BUILTINS = {
    "example1": (4, {}),
    "example2": (3, {}),
    "example3": (4, {}),
    "power": (5, {"a": 1.0, "b": 0.5, "s": [2.0, 2.5, 3.0, 3.5, 4.0], "r": 2.5}),
}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _problem(nl, p=None, lam=1.3):
    p = np.linspace(2.0, 3.5, nl.m) if p is None else p
    return Problem(m=nl.m, n=nl.n, exponent=ExponentFunction(p), nonlinearity=nl, lam=lam)


def _point_family(m, seen=None):
    """Per-point callbacks only, F = u1^2 u2^2 / 2 + k u1^4 / 10; seen
    collects every u1 a callback receives."""

    def F(k, u1, u2):
        return 0.5 * u1[0] ** 2 * u2[0] ** 2 + 0.1 * k * u1[0] ** 4

    def F2(k, u1, u2):
        if seen is not None:
            seen.append(np.array(u1, copy=True))
        return np.array([u1[0] * u2[0] ** 2 + 0.4 * k * u1[0] ** 3])

    def F3(k, u1, u2):
        return np.array([u1[0] ** 2 * u2[0]])

    return Nonlinearity.from_points(m=m, F=F, F2_prime=F2, F3_prime=F3)


def _families():
    out = {name: make_builtin(name, m, params).nonlinearity for name, (m, params) in BUILTINS.items()}
    out["per_point"] = _point_family(4)
    out["n2"] = _well_nl2(3)
    return out


FAMILIES = _families()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_stacked_residual_matches_each_row(name):
    nl = FAMILIES[name]
    prob = _problem(nl)
    rng = np.random.default_rng(7)
    stack = 1.5 * rng.normal(size=(9, nl.m, nl.n))
    stack[3] = 0.0
    stack[4, 1] = -0.0
    out, ok = _residual_rows(stack, prob)
    assert out.shape == stack.shape and ok.tolist() == [True] * 9
    for b in range(9):
        assert _same_bits(out[b], residual_values(stack[b], prob))


def test_non_finite_rows_fail_alone_and_skip_the_callbacks():
    seen = []
    prob = _problem(_point_family(4, seen))
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(5, 4, 1))
    stack[1, 2, 0] = np.nan
    stack[3, 0, 0] = np.inf
    out, ok = _residual_rows(stack, prob)
    # the callbacks saw the 3 finite rows only, m points each
    assert len(seen) == 3 * 4
    assert all(np.all(np.isfinite(u)) for u in seen)
    assert ok.tolist() == [True, False, True, False, True]
    assert np.all(np.isnan(out[1])) and np.all(np.isnan(out[3]))
    for b in (0, 2, 4):
        assert _same_bits(out[b], residual_values(stack[b], prob))


def test_non_finite_output_fails_only_its_row():
    nl = make_builtin("power", 3, {"a": 1.0, "b": 1.0, "s": 4.0, "r": 4.0}).nonlinearity
    prob = _problem(nl, p=np.full(3, 2.0))
    stack = np.ones((3, 3, 1))
    stack[1, 0, 0] = 1e120  # |u|^3 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out, ok = _residual_rows(stack, prob)
        with pytest.raises(EvaluationError, match="non-finite"):
            residual_values(stack[1], prob)
    assert ok.tolist() == [True, False, True]
    assert _same_bits(out[0], residual_values(stack[0], prob))


def test_stacked_residual_shape_errors():
    prob = _problem(FAMILIES["example1"])
    with pytest.raises(ValueError):
        _residual_rows(np.zeros((2, 3, 1)), prob)
    with pytest.raises(ValueError):
        _residual_rows(np.zeros((4, 1)), prob)


@pytest.mark.parametrize("vector", [False, True])
def test_stencil_of_several_points_matches_loop(vector):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 4))
    step = np.array([1e-7, 1e-5, 3e-4, 1e-7, 0.125])
    w = rng.normal(size=(3, 4))
    calls = []

    def point_fn(p):
        return np.sin(w @ p) * np.cosh(p[0]) if vector else float(np.sum(np.exp(p) * p[::-1]))

    def rows_fn(points):
        calls.append(len(points))
        return np.array([point_fn(p) for p in points])

    d, ok = _central_difference(rows_fn, x, step)
    assert calls == [5 * 2 * 4]
    assert ok.tolist() == [True] * 5
    assert d.shape == ((5, 3, 4) if vector else (5, 4))
    for b in range(5):
        assert _same_bits(d[b], _loop_reference(point_fn, x[b], step[b]))


def test_stencil_flags_base_points_with_a_non_finite_value():
    x = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 0.0]])

    def rows_fn(points):
        return np.where(points[:, 0] > 4.0, np.nan, points[:, 0] ** 2)

    _, ok = _central_difference(rows_fn, x, np.array([0.1, 0.1, 0.1]))
    assert ok.tolist() == [True, False, True]


@pytest.mark.parametrize("subspace", [SUBSPACE_FULL, SUBSPACE_Y])
@pytest.mark.parametrize("name, m", [("example3", 2), ("example1", 4), ("n2", 3), ("power", 12)])
def test_system_rows_match_g_per_row(name, m, subspace):
    """Off H_m the stacked q @ y and q.T @ g are bitwise the per-row
    products that g forms."""
    if name == "n2":
        nl = _well_nl2(m)
    else:
        params = {"a": 1.0, "b": 0.5, "s": 3.0, "r": 2.5} if name == "power" else {}
        nl = make_builtin(name, m, params).nonlinearity
    system = _System(_problem(nl), subspace=subspace)
    y = np.random.default_rng(m).normal(size=(11, system.dim))
    g, ok = system.rows(y)
    assert ok.all() and g.shape == y.shape
    for b in range(11):
        assert _same_bits(g[b], system.g(y[b]))


def test_system_rows_whose_callbacks_raise_fail_alone():
    """A callback that raises EvaluationError at some points (here a
    gradient of the wrong size beyond |u| = 5) fails only the rows that
    reach those points, as a per-point Newton trial was rejected alone."""

    def F2(k, u1, u2):
        return np.zeros(2) if abs(u1[0]) > 5.0 else np.array([u1[0] * u2[0] ** 2])

    def F3(k, u1, u2):
        return np.array([u1[0] ** 2 * u2[0]])

    nl = Nonlinearity.from_points(m=3, F=lambda k, u1, u2: 0.5 * u1[0] ** 2 * u2[0] ** 2, F2_prime=F2, F3_prime=F3)
    system = _System(_problem(nl))
    y = np.random.default_rng(2).normal(size=(4, 3))
    y[2, 1] = 7.0
    with pytest.raises(EvaluationError, match="components"):
        system.g(y[2])
    g, ok = system.rows(y)
    assert ok.tolist() == [True, True, False, True]
    assert np.all(np.isnan(g[2]))
    for b in (0, 1, 3):
        assert _same_bits(g[b], system.g(y[b]))


@settings(max_examples=150)
@given(
    dim=st.integers(1, 5),
    k=st.integers(1, 40),
    rows=st.integers(1, 12),
    power=st.sampled_from([1.0, 2.0, 2.5]),
    shift=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    hits=st.lists(st.integers(0, 11), max_size=3),
    tie_frac=st.sampled_from([0.0, 0.5]),
)
def test_stacked_deflation_matches_loop_per_row(dim, k, rows, power, shift, seed, hits, tie_frac):
    rng = np.random.default_rng(seed)
    known = rng.normal(size=(k, dim))
    y = rng.normal(size=(rows, dim))
    y = np.where(rng.random((rows, dim)) < tie_frac, known[0], y)
    for h in hits:
        y[h % rows] = known[h % k]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        factor, grad = _deflation_terms(y, known, power, shift)
    assert factor.shape == (rows,) and grad.shape == (rows, dim)
    for b in range(rows):
        ref_f, ref_g = _loop_deflation_terms(y[b], known, power, shift)
        assert _same_bits(factor[b], ref_f)
        if ref_f == math.inf:
            assert not np.any(grad[b])
        else:
            assert _same_bits(grad[b], ref_g)


@settings(max_examples=100)
@given(rows=st.integers(1, 10), dim=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_row_norms_match_linalg_norm(rows, dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, dim)) * 10.0 ** rng.uniform(-5, 5, size=(rows, 1))
    norms = _row_norms(x)
    for b in range(rows):
        assert _same_bits(norms[b], float(np.linalg.norm(x[b])))


# entries where a cheaper form could part from numpy's: signed zeros,
# subnormals, 1e200 (its square overflows) and NaN, beside ordinary values
EDGE_ENTRIES = [0.0, -0.0, 5e-324, -3e-310, 1e200, -1e200, math.nan, 1.5, -2.0]


def edge_stack(n, seed=0):
    """A (6, 5, n) stack of EDGE_ENTRIES, each of them present."""
    x = np.random.default_rng(seed).choice(EDGE_ENTRIES, size=(6, 5, n))
    x.flat[: len(EDGE_ENTRIES)] = EDGE_ENTRIES
    return x


@pytest.mark.parametrize("n", [1, 2, 3])
def test_entry_norms_and_shifts_are_linalg_norm_and_roll(n):
    x = edge_stack(n)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bits(_entry_norms(x), np.linalg.norm(x, axis=-1))
    assert _same_bits(_shifted(x), np.roll(x, -1, axis=1))
    assert _same_bits(_shifted_back(x), np.roll(x, 1, axis=1))


def _sequential_newton(system, y0, cfg, known=None):
    """The per-start damped Newton loop find_multiple ran before lock step:
    g and jac are the plain residual and its FD Jacobian, or the deflated
    pair M g and M J + g (grad M)^T."""

    def g_fn(y):
        if known is None:
            return system.g(y)
        f, df = _deflation_terms(y[None], known, 2.0, 1.0)
        if not (math.isfinite(f[0]) and np.all(np.isfinite(df[0]))):
            raise EvaluationError("at a known solution")
        return f[0] * system.g(y)

    def jac_fn(y):
        if known is None:
            return system.jacobian(y)
        f, df = _deflation_terms(y[None], known, 2.0, 1.0)
        return f[0] * system.jacobian(y) + np.outer(system.g(y), df[0])

    y = np.asarray(y0, dtype=float).copy()
    try:
        g = g_fn(y)
    except EvaluationError:
        return y, math.inf, False, 0
    ng = float(np.linalg.norm(g))
    best_y, best_ng = y.copy(), ng
    it = 0
    polish_left = 200
    while True:
        below_tol = ng <= cfg.residual_tol
        if below_tol:
            if polish_left <= 0:
                break
        elif it >= 100:
            break
        try:
            jac = jac_fn(y)
        except EvaluationError:
            break
        try:
            delta = np.linalg.solve(jac, -g)
            if not np.all(np.isfinite(delta)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            delta, *_ = np.linalg.lstsq(jac, -g, rcond=None)
        if not np.all(np.isfinite(delta)):
            break
        alpha = 1.0
        accepted = False
        y_bytes = y.tobytes()
        for _ in range(30):
            y_new = y + alpha * delta
            if y_new.tobytes() == y_bytes:
                break
            try:
                g_new = g_fn(y_new)
            except EvaluationError:
                alpha *= 0.5
                continue
            ng_new = float(np.linalg.norm(g_new))
            if ng_new < (1.0 - 1e-4 * alpha) * ng:
                y, g, ng = y_new, g_new, ng_new
                accepted = True
                break
            alpha *= 0.5
        if not accepted or float(np.linalg.norm(y)) > 1e8:
            break
        it += 1
        if below_tol:
            polish_left -= 1
        if ng < best_ng:
            best_y, best_ng = y.copy(), ng
    return best_y, best_ng, best_ng <= cfg.residual_tol, it


def _assert_rows_match(system, starts, cfg, known=None):
    ys, ngs, conv, iters = _newton_rows(system, starts, cfg, known)
    for b, y0 in enumerate(starts):
        ref = _sequential_newton(system, y0, cfg, known)
        alone = _newton_iterate(system, y0, cfg, known)
        for got in (ref, alone):
            assert _same_bits(ys[b], got[0])
            assert _same_bits(ngs[b], got[1])
            assert bool(conv[b]) == got[2]
            assert int(iters[b]) == got[3]
    return conv, iters


def _example1(m=4):
    return _problem(make_builtin("example1", m).nonlinearity, p=np.full(m, 2.0), lam=1.0)


def _example3_y(lam=10.0):
    return _problem(make_builtin("example3", 4).nonlinearity, p=np.full(4, 2.0), lam=lam)


@pytest.mark.parametrize(
    "make_prob, subspace", [(_example1, SUBSPACE_FULL), (_example3_y, SUBSPACE_Y)]
)
def test_lockstep_plain_rows_match_sequential_loop(make_prob, subspace):
    system = _System(make_prob(), subspace=subspace)
    cfg = SolverConfig(starts=8, seed=4)
    _, starts = _random_starts(cfg.seed, cfg.starts, system.dim, 101)
    conv, iters = _assert_rows_match(system, starts, cfg)
    # not vacuous: the starts leave the lock step at different rounds, and
    # on H_m some converge and some do not
    assert len(set(iters.tolist())) > 4
    assert conv.all() if subspace == SUBSPACE_Y else 0 < conv.sum() < len(starts)


@pytest.mark.parametrize(
    "make_prob, subspace", [(_example1, SUBSPACE_FULL), (_example3_y, SUBSPACE_Y)]
)
def test_lockstep_deflated_rows_match_sequential_loop(make_prob, subspace):
    """One start sits on a known solution: its first evaluation fails and
    it ends at once, while the other starts run as if alone."""
    prob = make_prob()
    sol = find_multiple(prob, SolverConfig(starts=6, seed=1), subspace=subspace)
    system = _System(prob, subspace=subspace)
    known = np.array([system.to_reduced(r.u.flat()) for r in sol.records])
    assert len(known) >= 2
    cfg = SolverConfig(starts=6, seed=9)
    starts = _random_starts(cfg.seed, cfg.starts, system.dim, 211)[1].copy()
    starts[2] = known[1]
    _assert_rows_match(system, starts, cfg, known)
    ys, ngs, conv, iters = _newton_rows(system, starts, cfg, known)
    assert ngs[2] == math.inf and not conv[2] and iters[2] == 0
    assert _same_bits(ys[2], known[1])


def test_lockstep_deflated_rows_match_sequential_loop_at_the_sweep_benchmark_point():
    """example3 on Y at m = 2 and lambda = 10, the sweep benchmark's second
    grid point, deflated against every solution an 8-start find_multiple
    finds there: each of 8 starts run in one batch, and alone, is the
    sequential loop bit for bit."""
    prob = _problem(make_builtin("example3", 2).nonlinearity, p=np.full(2, 2.0), lam=10.0)
    sol = find_multiple(prob, SolverConfig(starts=8, seed=0), subspace=SUBSPACE_Y)
    system = _System(prob, subspace=SUBSPACE_Y)
    known = np.array([system.to_reduced(r.u.flat()) for r in sol.records])
    assert len(known) >= 40
    cfg = SolverConfig(starts=8, seed=3)
    _, starts = _random_starts(cfg.seed, cfg.starts, system.dim, 211)
    assert len(starts) == 8
    _, iters = _assert_rows_match(system, starts, cfg, known)
    assert len(set(iters.tolist())) > 1


def test_deflated_jacobians_from_carried_terms_match_fresh_ones():
    """The terms a start carries from a batched evaluation give the same
    Jacobian as terms evaluated at its point alone."""
    system = _System(_example1())
    rng = np.random.default_rng(5)
    known = rng.normal(size=(3, 4))
    y = rng.normal(size=(4, 4))
    _, ok, terms = _deflated_rows(system, known, y)
    assert ok.all()
    jac, jok = system.jacobians(y)
    assert jok.all()
    batched = _deflated_jacobians(jac, *terms)
    for b in range(4):
        _, _, alone_terms = _deflated_rows(system, known, y[b : b + 1])
        alone = _deflated_jacobians(system.jacobian(y[b])[None], *alone_terms)[0]
        assert _same_bits(batched[b], alone)


# differences whose squares underflow (|a| < 1.5e-162) have norm 0 in
# _phi_rows, so the flux there is +-0, not the difference
TWO_ENTRIES = [0.0, -0.0, 5e-324, -3e-310, 1e-170, -2e-160, 1.5, -2.0]


@settings(max_examples=200)
@given(
    n=st.sampled_from([1, 2]),
    rows=st.integers(1, 4),
    picks=st.lists(st.sampled_from(TWO_ENTRIES), min_size=48, max_size=48),
    scale=st.sampled_from([1.0, 1e-300, 3.0]),
)
def test_p_two_flux_is_phi_rows_bit_for_bit(n, rows, picks, scale):
    """At p = 2 the residual takes the differences themselves as the flux,
    unless a nonzero difference's square underflows: its bits are those of
    the general formula, _phi_rows(d, norms, 2.0), on every stack,
    including zero and -0.0 differences, and _phi_rows runs only where a
    square underflows."""
    m = 4
    nl = _well_nl2(m) if n == 2 else make_builtin("example3", m).nonlinearity
    prob = _problem(nl, p=np.full(m, 2.0))
    assert prob.exponent.all_two
    x = np.array(picks[: rows * m * n]).reshape(rows, m, n) * scale
    d = _shifted(x) - x
    with np.errstate(over="ignore", invalid="ignore"):
        a = _phi_rows(d, _entry_norms(d), 2.0)
        expected = a - _shifted_back(a) + prob.lam * nl.coupling(x)
        with mock.patch.object(operators, "_phi_rows", wraps=_phi_rows) as general:
            out, ok = _residual_rows(x, prob)
    assert _same_bits(out, expected)
    underflow = np.any((d != 0.0) & (d * d == 0.0))
    assert general.called == bool(underflow)


@pytest.mark.parametrize(
    "p, two",
    [
        ([2.0, 2.0], True),
        ([2, 2], True),
        ([2.0, 2.0000000001], False),
        ([2.0, 3.0], False),
        ([1.9999999999999998, 2.0], False),
    ],
)
def test_the_p_two_flag_needs_every_entry_exactly_two(p, two):
    """Anything but exactly 2.0 everywhere takes the general flux."""
    exponent = ExponentFunction(p)
    assert exponent.all_two is two
    nl = make_builtin("example1", len(p)).nonlinearity
    prob = Problem(m=len(p), n=1, exponent=exponent, nonlinearity=nl, lam=1.0)
    with mock.patch.object(operators, "_phi_rows", wraps=_phi_rows) as general:
        _residual_rows(np.arange(2.0 * len(p)).reshape(2, len(p), 1), prob)
    assert general.called is not two
