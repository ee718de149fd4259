"""Stacked checks: the sampled checks against their point-by-point forms.

`pklap check` and `gradcheck` evaluate their sampled points through one
action kernel over a (B, m, n) stack (functional._action_rows), the three
norm inequalities over a stack of samples, and the A.6 shells, B.2/B.3,
lambda-star and the anticoercivity table with one call each.  Each must
reproduce the per-point computation bit for bit; the per-point loops they
replace are kept here as the references.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pklap.analysis as analysis
import pklap.cli as cli
from pklap.analysis import (
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    CheckReport,
    GrowthProfile,
    LambdaStarEstimate,
    _action_or_limit_rows,
    _c1_rows,
    _c2_rows,
    _c3_rows,
    _jsonable,
    _level_radii,
    _unit_directions,
    anticoercivity_probe,
    check_b2_b3,
    check_bounds,
    check_c1,
    check_c2,
    check_c3,
    check_growth,
    lambda_star_estimate,
    rng_for,
)
from pklap.core import (
    EvaluationError,
    ExponentFunction,
    Nonlinearity,
    PeriodicSequence,
    Problem,
    euclidean_norm,
)
from pklap.functional import _action_rows, _gradient_fd_rows, action, gradient, gradient_fd, mu, potential
from pklap.nonlinearities import BuiltinSpec, make_builtin, make_example3, make_power
from test_lockstep import BUILTINS, _problem, _same_bits
from test_shared_loops import _well_nl2


def _dumps(obj):
    """JSON text of a report (or any value), which tells -0.0 from 0.0."""
    if isinstance(obj, CheckReport):
        obj = obj.to_dict()
    return json.dumps(_jsonable(obj))


# ---------------------------------------------------------------------------
# Per-point references
# ---------------------------------------------------------------------------


def _unit_direction(rng, m, n, zero_mean):
    """One random unit vector in R^(m*n), drawn alone: the draws that
    analysis._unit_directions makes for many vectors at once."""
    while True:
        v = rng.normal(size=(m, n))
        if zero_mean:
            v = v - v.mean(axis=0)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def _signed_point(rng, magnitude, n):
    """A point of the given magnitude with a random sign (n = 1) or unit
    direction (n > 1), drawn alone."""
    if n == 1:
        return magnitude * (1.0 if rng.random() < 0.5 else -1.0)
    return magnitude * _unit_direction(rng, n, 1, zero_mean=False).reshape(-1)


def _loop_mu(vals, prob):
    d = np.concatenate((vals[1:], vals[:1])) - vals
    norms = np.linalg.norm(d, axis=1)
    p = prob.exponent.values
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(norms**p / p))


def _loop_potential(vals, prob):
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, prob.m + 1):
            total -= prob.nonlinearity.F_at(k, vals[k % prob.m], vals[k - 1])
    return total


def _loop_action_or_limit(x, prob):
    v = x.reshape(prob.m, prob.n)
    if not np.all(np.isfinite(v)):
        return math.inf
    energy = _loop_mu(v, prob)
    if not math.isfinite(energy):
        return math.inf
    pot = _loop_potential(v, prob)
    if not math.isfinite(pot):
        return -math.inf
    return energy + prob.lam * pot


def _recording_family(m, seen):
    """Per-point callbacks only; seen collects every u1 that F receives."""

    def F(k, u1, u2):
        seen.append(np.array(u1, copy=True))
        return 0.5 * u1[0] ** 2 * u2[0] ** 2 + 0.1 * k * u1[0] ** 4

    def F2(k, u1, u2):
        return np.array([u1[0] * u2[0] ** 2 + 0.4 * k * u1[0] ** 3])

    def F3(k, u1, u2):
        return np.array([u1[0] ** 2 * u2[0]])

    return Nonlinearity.from_points(m=m, F=F, F2_prime=F2, F3_prime=F3)


def _families():
    out = {name: make_builtin(name, m, params).nonlinearity for name, (m, params) in BUILTINS.items()}
    out["per_point"] = _recording_family(4, [])
    out["n2"] = _well_nl2(3)
    return out


FAMILIES = _families()
EXAMPLE1 = make_builtin("example1", 4, {})


# ---------------------------------------------------------------------------
# The action kernel
# ---------------------------------------------------------------------------


def _assert_rows_match(stack, prob):
    mus, pots, mu_ok, pot_ok = _action_rows(stack, prob)
    for b in range(len(stack)):
        if not np.all(np.isfinite(stack[b])):
            assert np.isnan(mus[b]) and np.isnan(pots[b])
            assert not mu_ok[b] and not pot_ok[b]
            continue
        ref_mu, ref_pot = _loop_mu(stack[b], prob), _loop_potential(stack[b], prob)
        assert _same_bits(mus[b], ref_mu)
        assert _same_bits(pots[b], ref_pot)
        assert mu_ok[b] == math.isfinite(ref_mu)
        assert pot_ok[b] == math.isfinite(ref_pot)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_kernel_matches_per_row_loops(name):
    nl = FAMILIES[name]
    prob = _problem(nl)
    rng = np.random.default_rng(11)
    stack = np.concatenate(
        [scale * rng.normal(size=(3, nl.m, nl.n)) for scale in (0.1, 1.0, 3.0)]
        + [np.zeros((1, nl.m, nl.n)), np.full((1, nl.m, nl.n), 1e200)]
    )
    stack[2, 0] = -0.0
    _assert_rows_match(stack, prob)
    mus, pots, mu_ok, pot_ok = _action_rows(stack, prob)
    # the constant 1e200 row: Delta u = 0, so mu = 0, while F overflows
    assert mu_ok[-1] and mus[-1] == 0.0 and not pot_ok[-1]
    for b in range(len(stack) - 1):
        assert _same_bits(mu(stack[b], prob), mus[b])
        assert _same_bits(potential(stack[b], prob), pots[b])
        assert _same_bits(action(stack[b], prob), mus[b] + prob.lam * pots[b])


def test_kernel_skips_non_finite_rows():
    seen = []
    prob = _problem(_recording_family(4, seen))
    seen.clear()  # the origin check: one F-kernel call, m per-point F calls
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(5, 4, 1))
    stack[1, 2, 0] = np.nan
    stack[3, 0, 0] = -np.inf
    mus, pots, mu_ok, pot_ok = _action_rows(stack, prob)
    # F saw the m points of the 3 finite rows only
    assert len(seen) == 3 * 4
    assert all(np.all(np.isfinite(u)) for u in seen)
    assert mu_ok.tolist() == pot_ok.tolist() == [True, False, True, False, True]
    _assert_rows_match(stack, prob)
    with pytest.raises(EvaluationError, match="mu evaluated at a non-finite sequence"):
        mu(stack[1], prob)
    with pytest.raises(EvaluationError, match="potential evaluated at a non-finite sequence"):
        potential(stack[3], prob)
    with pytest.raises(EvaluationError, match="mu evaluated at a non-finite sequence"):
        action(stack[3], prob)
    empty = _action_rows(np.zeros((0, 4, 1)), prob)
    assert all(a.shape == (0,) for a in empty)


def test_overflowing_rows_fail_alone_with_the_old_messages():
    nl, _ = make_power(2, a=1.0, b=1.0, s=400.0, r=400.0)
    prob = _problem(nl, p=np.full(2, 1100.0))
    stack = np.array([[[0.3], [-0.2]], [[1e3], [-1e3]], [[1e3], [1e3]]])
    mus, pots, mu_ok, pot_ok = _action_rows(stack, prob)
    assert mu_ok.tolist() == [True, False, True]  # |Delta u|^1100 overflows in row 1
    assert pot_ok.tolist() == [True, False, False]  # |u|^400 overflows in rows 1, 2
    _assert_rows_match(stack, prob)
    with pytest.raises(EvaluationError, match="mu evaluated to a non-finite value"):
        mu(stack[1], prob)
    with pytest.raises(EvaluationError, match="potential evaluated to a non-finite value"):
        potential(stack[2], prob)
    with pytest.raises(EvaluationError, match="mu evaluated to a non-finite value"):
        action(stack[1], prob)
    with pytest.raises(EvaluationError, match="potential evaluated to a non-finite value"):
        action(stack[2], prob)
    assert _action_or_limit_rows(stack.reshape(3, 2), prob).tolist() == [
        _loop_action_or_limit(x, prob) for x in stack.reshape(3, 2)
    ]
    assert _action_or_limit_rows(stack.reshape(3, 2), prob)[1:].tolist() == [math.inf, -math.inf]


def test_kernel_shape_errors():
    prob = _problem(FAMILIES["example1"])
    with pytest.raises(ValueError):
        _action_rows(np.zeros((2, 3, 1)), prob)
    with pytest.raises(ValueError):
        _action_rows(np.zeros((4, 1)), prob)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(2, 300),
    rows=st.integers(1, 4),
    scale=st.sampled_from([0.01, 0.7, 2.0, 30.0]),
    seed=st.integers(0, 2**31 - 1),
)
def test_kernel_matches_loops_across_sum_blocks(m, rows, scale, seed):
    """m up to 300 crosses numpy's pairwise-summation blocks of 128."""
    rng = np.random.default_rng(seed)
    nl, _ = make_power(m, a=1.0, b=0.5, s=rng.uniform(2.0, 4.0, size=m), r=2.5)
    prob = _problem(nl, p=rng.uniform(1.5, 4.0, size=m))
    _assert_rows_match(scale * rng.normal(size=(rows, m, 1)), prob)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_gradient_fd_rows_match_the_old_loop(name):
    nl = FAMILIES[name]
    prob = _problem(nl)
    rng = np.random.default_rng(5)
    x = 1.2 * rng.normal(size=(4, prob.dim))
    got = _gradient_fd_rows(x, prob)
    for b in range(4):
        u = PeriodicSequence.from_flat(x[b], prob.m, prob.n)
        step = 1e-7 * max(1.0, euclidean_norm(u))
        ref = np.empty(prob.dim)
        for i in range(prob.dim):
            xp, xm = x[b].copy(), x[b].copy()
            xp[i] += step
            xm[i] -= step
            fp = _loop_mu(xp.reshape(prob.m, prob.n), prob) + prob.lam * _loop_potential(xp.reshape(prob.m, prob.n), prob)
            fm = _loop_mu(xm.reshape(prob.m, prob.n), prob) + prob.lam * _loop_potential(xm.reshape(prob.m, prob.n), prob)
            ref[i] = (fp - fm) / (2.0 * step)
        assert _same_bits(got[b], ref)
        assert _same_bits(gradient_fd(u, prob).flat(), ref)
    assert _same_bits(_gradient_fd_rows(x, prob, 1e-4)[2], gradient_fd(
        PeriodicSequence.from_flat(x[2], prob.m, prob.n), prob, step=1e-4).flat())


# ---------------------------------------------------------------------------
# C.1 - C.3
# ---------------------------------------------------------------------------


def _loop_c(u, s1, s2, p):
    """The three one-sequence inequalities as written per sequence:
    (margin, lhs, rhs) of C.1, C.2 and C.3."""
    norm = float(np.linalg.norm(u))
    entries = np.linalg.norm(u, axis=1)
    m = u.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        lhs1 = float(np.sum(entries**s1))
        rhs1 = m * float(np.float_power(norm, s1))
        lhs2 = float(np.sum(entries**s2))
        rhs2 = float(np.float_power(m, (2.0 - s2) / 2.0) * np.float_power(norm, s2))
        d = np.roll(u, -1, axis=0) - u
        lhs3 = float(np.sum(np.linalg.norm(d, axis=1) ** p.values))
        pp = p.p_plus
        rhs3 = m * float(np.float_power(2.0, pp) * np.float_power(norm, pp) + 1.0)
        return (rhs1 - lhs1, lhs1, rhs1), (lhs2 - rhs2, lhs2, rhs2), (rhs3 - lhs3, lhs3, rhs3)


@pytest.mark.parametrize("m,n,p", [(2, 1, 2.0), (5, 2, 3.0), (12, 1, 2.5), (140, 1, 3.0), (2, 1, 1100.0)])
def test_stacked_c_margins_match_one_sequence_checks(m, n, p):
    rng = np.random.default_rng(m * 10 + n)
    exponent = ExponentFunction(np.linspace(2.0, p, m))
    u = 10.0 ** rng.uniform(-2.0, 2.0, size=(20, 1, 1)) * rng.normal(size=(20, m, n))
    s1 = 0.5 + 5.5 * rng.random(20)
    s2 = 2.0 + 4.0 * rng.random(20)
    stacked = (_c1_rows(u, s1), _c2_rows(u, s2), _c3_rows(u, exponent))
    for b in range(20):
        refs = _loop_c(u[b], float(s1[b]), float(s2[b]), exponent)
        for got, ref in zip(stacked, refs):
            assert all(_same_bits(g[b], r) for g, r in zip(got, ref))
        seq = PeriodicSequence(u[b])
        reports = (check_c1(seq, float(s1[b])), check_c2(seq, float(s2[b])), check_c3(seq, exponent))
        for rep, ref in zip(reports, refs):
            assert _same_bits(rep.margin, ref[0])


def test_one_sequence_checks_keep_their_reports():
    u = PeriodicSequence(np.array([[1.0], [-2.0], [0.5]]))
    rep = check_c1(u, 2)
    assert rep.verdict == HOLDS and rep.witness is None and rep.samples == 1
    # C.3's right-hand side overflows and its margin is NaN: inconclusive
    with np.errstate(over="ignore", invalid="ignore"):
        big = PeriodicSequence(np.array([[1e200], [-1e200], [3.0]]))
        rep = check_c3(big, ExponentFunction.constant(1100.0, 3))
    assert rep.verdict == INCONCLUSIVE
    # a violation keeps its witness, in the old key order
    rep = check_c2(u, 2.0, slack=-1.0)
    assert rep.verdict == VIOLATED
    assert list(rep.witness) == ["u", "s", "lhs", "rhs"] and rep.witness["s"] == 2.0
    rep = check_c3(u, ExponentFunction.constant(2.0, 3), slack=-1e9)
    assert list(rep.witness) == ["u", "lhs", "rhs"]
    with pytest.raises(ValueError):
        check_c1(u, 0.0)
    with pytest.raises(ValueError):
        check_c2(u, 1.5)
    with pytest.raises(ValueError):
        check_c3(u, ExponentFunction.constant(2.0, 4))


def _loop_sampled_c_reports(prob, seed, count=300):
    """analysis._sampled_c_reports as a loop over its samples: the draws of
    rng_for(seed, 41) (all scale exponents, all sequences, then both rows of
    exponent uniforms), and each sample's arithmetic and inequalities on
    Python floats, one sample at a time."""
    rng = rng_for(seed, 41)
    exponents = rng.uniform(-2.0, 2.0, size=count).tolist()
    normals = rng.normal(size=(count, prob.m, prob.n))
    d1, d2 = rng.random((2, count)).tolist()
    worst = {"C.1": (math.inf, None), "C.2": (math.inf, None), "C.3": (math.inf, None)}
    decided = set()
    for i in range(count):
        u = PeriodicSequence(10.0 ** exponents[i] * normals[i])
        s1 = 0.5 + 5.5 * d1[i]
        s2 = 2.0 + 4.0 * d2[i]
        refs = _loop_c(u.values, s1, s2, prob.exponent)
        for name, s, (margin, lhs, rhs) in zip(("C.1", "C.2", "C.3"), (s1, s2, None), refs):
            if not math.isnan(margin):
                decided.add(name)
            if margin < worst[name][0]:
                witness = None
                if margin < -1e-10:
                    witness = {"u": u.values} if s is None else {"u": u.values, "s": s}
                    witness.update(lhs=lhs, rhs=rhs)
                worst[name] = (margin, witness)
    out = []
    for name, (margin, witness) in worst.items():
        verdict = VIOLATED if margin < -1e-10 else HOLDS if name in decided else INCONCLUSIVE
        out.append(CheckReport(name, verdict, margin, witness, samples=count, seed=seed))
    return out


@pytest.mark.parametrize(
    "m,n,p,seed", [(2, 1, 2.0, 0), (4, 1, 4.0, 3), (3, 2, 2.5, 8), (12, 1, 3.0, 1), (2, 1, 1100.0, 0)]
)
def test_sampled_c_reports_match_the_sample_loop(m, n, p, seed):
    nl = FAMILIES["n2"] if n == 2 else make_power(m, 1.0, 1.0, 2.0, 2.0)[0]
    prob = Problem(m=m, n=n, exponent=ExponentFunction.constant(p, m), nonlinearity=nl, lam=1.0)
    got = cli._sampled_c_reports(prob, seed)
    ref = _loop_sampled_c_reports(prob, seed)
    assert [_dumps(r) for r in got] == [_dumps(r) for r in ref]
    if p > 1024:
        # 2^p overflows: every C.3 margin is inf or NaN
        assert got[2].margin == math.inf


def test_sampled_c_witness_of_a_violation(monkeypatch):
    """A shifted C.1 right-hand side violates it; the witness is the first
    worst sample's, as in the loop."""
    prob = Problem(m=3, n=1, exponent=ExponentFunction.constant(2.0, 3),
                   nonlinearity=make_power(3, 1.0, 1.0, 2.0, 2.0)[0], lam=1.0)

    def shifted(u, s):
        margin, lhs, rhs = _c1_rows(u, s)
        return margin - 1e6, lhs, rhs - 1e6

    monkeypatch.setattr(analysis, "_c1_rows", shifted)
    [c1, _, _] = cli._sampled_c_reports(prob, 5)
    assert c1.verdict == VIOLATED
    assert list(c1.witness) == ["u", "s", "lhs", "rhs"]
    # the witness is the sample of the margin: its sides, recomputed alone
    w = c1.witness
    margin, lhs, rhs = (x.item() for x in shifted(w["u"][None], np.array([w["s"]])))
    assert (margin, lhs, rhs) == (c1.margin, w["lhs"], w["rhs"])

    def tied(u, s):
        margin, lhs, rhs = _c1_rows(u, s)
        return np.full_like(margin, -1.0), lhs, rhs

    # every sample ties at the worst margin: the first one is the witness
    monkeypatch.setattr(analysis, "_c1_rows", tied)
    [c1, _, _] = cli._sampled_c_reports(prob, 5)
    rng = rng_for(5, 41)
    first = 10.0 ** rng.uniform(-2.0, 2.0, size=300)[0] * rng.normal(size=(300, 3, 1))[0]
    assert c1.margin == -1.0 and _same_bits(c1.witness["u"], first)


# ---------------------------------------------------------------------------
# A.6 draws
# ---------------------------------------------------------------------------


class _RejectingGenerator:
    """Normals from a real generator, with whole rows of n values zeroed at
    the given row indices of the stream, so _unit_direction rejects them."""

    def __init__(self, seed, n, rejected):
        self.rng = np.random.default_rng(seed)
        self.n = n
        self.rejected = set(rejected)
        self.drawn = 0

    def normal(self, size):
        values = self.rng.normal(size=size).reshape(-1)
        for j in range(values.size):
            if (self.drawn + j) // self.n in self.rejected:
                values[j] = 0.0
        self.drawn += values.size
        return values.reshape(size)


@pytest.mark.parametrize("n,rejected", [(2, []), (2, [0, 3, 4]), (3, [5, 11]), (1, [2])])
def test_unit_directions_match_sequential_draws(n, rejected):
    count = 12
    seq = _RejectingGenerator(4, n, rejected)
    ref = np.stack([_unit_direction(seq, n, 1, zero_mean=False).reshape(-1) for _ in range(count)])
    bulk = _RejectingGenerator(4, n, rejected)
    got = _unit_directions(bulk, count, (n,))
    assert _same_bits(got, ref)
    assert bulk.drawn == seq.drawn == (count + len(rejected)) * n


@pytest.mark.parametrize("zero_mean", [False, True])
@pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (5, 3), (12, 1), (39, 2), (128, 1), (256, 3)])
def test_unit_directions_of_sequences_match_sequential_draws(m, n, zero_mean):
    """The xi starts, the probe's rays and the level-set directions of
    B.2/B.3 and lambda-star: (m, n) vectors, drawn in one call as one at a
    time, a rejected vector drawn again in order."""
    count, rejected = 9, [1, 6]
    seq = _RejectingGenerator(m, m * n, rejected)
    ref = np.stack([_unit_direction(seq, m, n, zero_mean) for _ in range(count)])
    bulk = _RejectingGenerator(m, m * n, rejected)
    got = _unit_directions(bulk, count, (m, n), zero_mean)
    assert _same_bits(got, ref)
    assert bulk.drawn == seq.drawn == (count + len(rejected)) * m * n


def _loop_a6(nl, g, sample_budget, seed):
    """The A.6.x shell loop check_growth carried, point by point."""
    m, n = nl.m, nl.n
    variants = [
        ("A.6.1", g.s.p_plus, g.r.p_minus),
        ("A.6.2", g.s.p_minus, g.r.p_plus),
        ("A.6.3", g.s.p_minus, g.r.p_minus),
    ]
    shells = [10.0**-j for j in range(1, 9)]
    per_shell = max(sample_budget // (8 * 4), 8)
    rows = (per_shell + 3) * m
    reports = []
    for tag, e1, e2 in variants:
        rng = rng_for(seed, 6, int(e1 * 1000), int(e2 * 1000))
        K = np.tile(np.arange(1, m + 1), len(shells) * (per_shell + 3))
        U1 = np.empty((K.size, n))
        U2 = np.empty((K.size, n))
        T = np.empty(K.size)
        i = 0
        for shell in shells:
            for t in [0.0, 0.5, 1.0] + [rng.random() for _ in range(per_shell)]:
                for _ in range(m):
                    U1[i] = _signed_point(rng, t * shell, n)
                    U2[i] = _signed_point(rng, (1.0 - t) * shell, n)
                    T[i] = t
                    i += 1
        S = np.repeat(shells, rows)
        denom = np.float_power(T * S, e1) + np.float_power((1.0 - T) * S, e2)
        kept = ~(denom <= 0.0)
        q = np.zeros(K.size)
        q[kept] = np.abs(nl.F_many(K[kept], U1[kept], U2[kept])) / denom[kept]
        q[np.isnan(q)] = 0.0
        trajectory = []
        last_witness = None
        for j, shell in enumerate(shells):
            w = j * rows + int(np.argmax(q[j * rows : (j + 1) * rows]))
            trajectory.append(float(q[w]))
            last_witness = None
            if q[w] > 0.0:
                last_witness = {"k": int(K[w]), "u1": U1[w].copy(), "u2": U2[w].copy(),
                                "quotient": float(q[w]), "shell": shell}
        final = trajectory[-1]
        verdict = HOLDS if final <= 1e-3 else VIOLATED
        reports.append(CheckReport(tag, verdict, 1e-3 - final, last_witness if verdict == VIOLATED else None,
                                   samples=len(shells) * rows, seed=seed,
                                   detail={"shell_quotients": trajectory}))
    return reports


def _growth(m, s, r):
    return GrowthProfile(m=m, M=1.0, eta=0.5, alpha1=np.ones(m), alpha2=np.ones(m),
                         alpha3=np.zeros(m), s=ExponentFunction(s), r=ExponentFunction(r))


@pytest.mark.parametrize(
    "nl,g",
    [
        pytest.param(EXAMPLE1.nonlinearity, EXAMPLE1.growth, id="example1"),
        pytest.param(make_power(3, 1.0, 1.0, 2.0, 2.0)[0], _growth(3, [3.0] * 3, [3.0] * 3), id="violated"),
        pytest.param(_well_nl2(3), _growth(3, [2.5, 3.0, 2.5], [3.5, 2.5, 3.0]), id="n2"),
        pytest.param(*make_power(4, 1.0, 1.0, 3.0, 3.0), id="constant_s_r"),
    ],
)
@pytest.mark.parametrize("seed", [0, 9])
def test_a6_shells_match_point_by_point_draws(nl, g, seed):
    """Each variant against its own loop, also where the three variants
    share one exponent pair and check_growth computes it once."""
    got = check_growth(nl, g, sample_budget=400, seed=seed)[2:]
    ref = _loop_a6(nl, g, 400, seed)
    assert [_dumps(r) for r in got] == [_dumps(r) for r in ref]


@pytest.mark.parametrize(
    "s,r,calls",
    [(3.0, 3.0, 3), ([2.5, 3.0, 2.5, 3.0], 3.0, 4), ([2.5, 3.0, 2.5, 3.0], [3.5, 2.5, 3.0, 3.0], 5)],
)
def test_a6_evaluates_each_distinct_exponent_pair_once(monkeypatch, s, r, calls):
    """A.4 and A.5 make one F-kernel call each, and A.6 one per distinct
    pair (e1, e2) of its variants (s+, r-), (s-, r+) and (s-, r-): one pair
    for constant s and r, two for a variable s alone, three for both."""
    nl, g = make_power(4, 1.0, 1.0, s, r)
    sizes = []
    real = Nonlinearity._F_points

    def spy(self, K, U1, U2):
        sizes.append(np.size(K))
        return real(self, K, U1, U2)

    monkeypatch.setattr(Nonlinearity, "_F_points", spy)
    reports = check_growth(nl, g, sample_budget=400, seed=3)
    assert len(sizes) == calls
    assert [r.name for r in reports] == ["A.4", "A.5", "A.6.1", "A.6.2", "A.6.3"]


def test_sampled_checks_call_the_F_kernel_on_read_only_views(monkeypatch):
    """Their periods are drawn in 1..m, so A.4 - A.9 skip F_many's wrap and
    pass the kernel read-only int64 periods and read-only points."""
    seen = []
    real = Nonlinearity._F_points

    def spy(self, K, U1, U2):
        seen.append([(a.dtype.name, a.flags.writeable) for a in (K, U1, U2)])
        return real(self, K, U1, U2)

    spec3 = make_builtin("example3", 4)
    nl, g = make_power(4, 1.0, 1.0, [2.5, 3.0, 2.5, 3.0], 3.0)
    monkeypatch.setattr(Nonlinearity, "F_many", lambda *a: pytest.fail("F_many ran"))
    monkeypatch.setattr(Nonlinearity, "_F_points", spy)
    check_growth(nl, g, sample_budget=200, seed=3)
    check_bounds(spec3.nonlinearity, spec3.bounds, sample_budget=200, seed=3)
    assert seen == [[("int64", False), ("float64", False), ("float64", False)]] * 7


# ---------------------------------------------------------------------------
# B.2/B.3, lambda-star and the anticoercivity table
# ---------------------------------------------------------------------------


def _loop_b2_b3(prob, r, sample_budget=2000, seed=0, expand=5.0):
    """The per-point sample loop of check_b2_b3; returns the folded values."""
    ndirs = max(8, int(math.sqrt(sample_budget)))
    per_dir = max(4, sample_budget // ndirs)
    rng = rng_for(seed, 23)
    j0 = potential(np.zeros((prob.m, prob.n)), prob)
    inf_sub, inf_level, inf_global = j0, math.inf, j0
    arg_global = arg_sub = None
    for _ in range(ndirs):
        v = _unit_direction(rng, prob.m, prob.n, zero_mean=True)
        t_r = float(_level_radii(prob, v[None], r)[0])
        inf_level = min(inf_level, _loop_potential(t_r * v, prob))
        for _ in range(per_dir):
            t = rng.random() * t_r
            val = _loop_potential(t * v, prob)
            if val < inf_sub:
                inf_sub, arg_sub = val, t * v
            if val < inf_global:
                inf_global, arg_global = val, t * v
            t_big = rng.random() * expand * t_r
            val_big = _loop_potential(t_big * v, prob)
            if val_big < inf_global:
                inf_global, arg_global = val_big, t_big * v
    return {"inf_global": inf_global, "inf_sublevel": inf_sub, "inf_levelset": inf_level,
            "argmin_global": arg_global, "argmin_sublevel": arg_sub}


def _example3_problem(m, p=2.0, lam=1.0):
    nl, _ = make_example3(m)
    return Problem(m=m, n=1, exponent=ExponentFunction.constant(p, m), nonlinearity=nl, lam=lam)


@pytest.mark.parametrize("m,p,r,budget,seed", [(2, 2.0, 0.5, 2000, 0), (4, 2.5, 0.3, 300, 7), (8, 2.0, 1.0, 300, 2)])
def test_b2_b3_match_the_point_loop(m, p, r, budget, seed):
    prob = _example3_problem(m, p)
    b2, b3 = check_b2_b3(prob, r, sample_budget=budget, seed=seed)
    ref = _loop_b2_b3(prob, r, budget, seed)
    for key in ("inf_global", "inf_sublevel", "argmin_global", "argmin_sublevel"):
        assert _dumps(b2.detail[key]) == _dumps(ref[key])
    assert _dumps(b3.detail["inf_levelset"]) == _dumps(ref["inf_levelset"])
    assert _same_bits(b2.margin, ref["inf_sublevel"] - ref["inf_global"])


def _loop_b2_b3_points(prob, r, sample_budget, seed, expand=5.0):
    """The points the per-point loop of check_b2_b3 evaluated, in order."""
    ndirs = max(8, int(math.sqrt(sample_budget)))
    per_dir = max(4, sample_budget // ndirs)
    rng = rng_for(seed, 23)
    points = []
    for _ in range(ndirs):
        v = _unit_direction(rng, prob.m, prob.n, zero_mean=True)
        t_r = float(_level_radii(prob, v[None], r)[0])
        points.append(t_r * v)
        for _ in range(per_dir):
            points.append((rng.random() * t_r) * v)
            points.append((rng.random() * expand * t_r) * v)
    return np.stack(points)


def _spy_stacks(monkeypatch):
    """Record every stack that analysis passes to the action kernel."""
    stacks = []

    def spy(vals, prob):
        stacks.append(np.array(vals, copy=True))
        return _action_rows(vals, prob)

    monkeypatch.setattr(analysis, "_action_rows", spy)
    return stacks


def test_b2_b3_evaluate_the_loops_points_in_one_call(monkeypatch):
    """All 17 directions' points, in the loop's order, in one stacked call
    (one call per direction before)."""
    prob = _example3_problem(4, 2.5)
    stacks = _spy_stacks(monkeypatch)
    check_b2_b3(prob, 0.3, sample_budget=300, seed=7)
    ref = _loop_b2_b3_points(prob, 0.3, 300, 7)
    assert len(stacks) == 1
    assert _same_bits(stacks[0], ref)


def _lambda_star_streams(seed, ir):
    """The two generators of lambda-star's radius ir: its directions and
    its interior fractions."""
    return rng_for(seed, 47, ir), rng_for(seed, 48, ir)


def _loop_lambda_star_points(prob, r, ir, samples_per_r, seed, directions=None):
    """0, then each sample's level point and interior point, drawn one
    sample at a time: its direction from the direction stream, then its
    interior fraction from the fraction stream."""
    rng_v, rng_t = _lambda_star_streams(seed, ir)
    rng_v = rng_v if directions is None else directions
    ref = [np.zeros((prob.m, prob.n))]
    for _ in range(samples_per_r):
        v = _unit_direction(rng_v, prob.m, prob.n, zero_mean=True)
        t_r = float(_level_radii(prob, v[None], r)[0])
        ref += [t_r * v, (rng_t.random() * t_r) * v]
    return np.stack(ref)


def test_lambda_star_evaluates_the_loops_points_in_one_call_per_radius(monkeypatch):
    prob = _example3_problem(4, 3.0)
    stacks = _spy_stacks(monkeypatch)
    lambda_star_estimate(prob, [0.25, 0.5], samples_per_r=15, seed=5)
    assert len(stacks) == 2
    for ir, (r, stack) in enumerate(zip([0.25, 0.5], stacks)):
        assert _same_bits(stack, _loop_lambda_star_points(prob, r, ir, 15, 5))


class _ConstantVectorStream:
    """rng_for(*keys), except that the vectors of its normal draws whose
    places in the stream (counting every (m, n) vector drawn, over all
    calls) are in `constant` are a constant, which is zero once its mean
    is removed and so is drawn again; calls records the draws."""

    def __init__(self, constant, *keys):
        self.rng = rng_for(*keys)
        self.constant = constant
        self.drawn = 0
        self.calls = []

    def normal(self, size):
        self.calls.append("normal")
        out = self.rng.normal(size=size)
        rows = out.reshape(-1, *size[-2:])
        for j in range(len(rows)):
            if self.drawn + j in self.constant:
                rows[j] = 0.5
        self.drawn += len(rows)
        return out

    def random(self, size=None):
        self.calls.append("random")
        return self.rng.random(size)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [2, 3, 12, 39, 128, 256])
def test_lambda_star_directions_match_per_sample_draws(m, n):
    """lambda-star draws the directions of one radius with one
    _unit_directions call on one stream: bitwise the draws of one sample
    at a time from that stream, with the stream's third and sixth vectors
    rejected and drawn again in order, and the stream left where the
    per-sample draws leave it."""
    got_stream = _ConstantVectorStream({2, 5}, 4, 47, m)
    got = _unit_directions(got_stream, 9, (m, n), zero_mean=True)
    ref_stream = _ConstantVectorStream({2, 5}, 4, 47, m)
    ref = np.stack([_unit_direction(ref_stream, m, n, zero_mean=True) for _ in range(9)])
    assert _same_bits(got, ref)
    assert _same_bits(got_stream.random(3), ref_stream.random(3))
    assert got_stream.calls == ["normal", "normal", "random"]
    assert got_stream.drawn == ref_stream.drawn == 11
    assert _unit_directions(rng_for(4, 47, m), 0, (m, n), zero_mean=True).shape == (0, m, n)


def test_lambda_star_redraws_a_rejected_direction_before_its_interior_point(monkeypatch):
    """A rejected direction is replaced by the next vector of the
    direction stream, so every later sample's direction moves up one
    vector, while the interior fractions come from their own stream and
    stay with their samples: sample i keeps the i-th fraction."""
    prob = _example3_problem(4, 3.0)
    streams = {}

    def stream(seed, key, ir):
        streams[key, ir] = _ConstantVectorStream({3} if key == 47 else set(), seed, key, ir)
        return streams[key, ir]

    monkeypatch.setattr(analysis, "rng_for", stream)
    stacks = _spy_stacks(monkeypatch)
    lambda_star_estimate(prob, [0.25, 0.5], samples_per_r=6, seed=5)
    assert sorted(streams) == [(47, 0), (47, 1), (48, 0), (48, 1)]
    for ir, (r, stack) in enumerate(zip([0.25, 0.5], stacks)):
        assert streams[47, ir].calls == ["normal", "normal"]
        assert streams[48, ir].calls == ["random"]
        ref = _loop_lambda_star_points(prob, r, ir, 6, 5, _ConstantVectorStream({3}, 5, 47, ir))
        assert _same_bits(stack, ref)


@pytest.mark.parametrize("nl", [make_example3(4)[0], _well_nl2(3)], ids=["n1", "n2"])
def test_lambda_star_extends_its_samples_when_samples_per_r_grows(monkeypatch, nl):
    """samples_per_r = N evaluates exactly the first N level and interior
    points of the 2N run, radius by radius, and its sup J and phi(r) come
    from those points alone."""
    prob = _problem(nl)
    stacks = _spy_stacks(monkeypatch)
    small = lambda_star_estimate(prob, [0.25, 0.5], samples_per_r=20, seed=9)
    large = lambda_star_estimate(prob, [0.25, 0.5], samples_per_r=40, seed=9)
    assert [len(s) for s in stacks] == [41, 41, 81, 81]
    for few, many in zip(stacks[:2], stacks[2:]):
        assert _same_bits(many[:41], few)
    assert all(b >= a for a, b in zip(small.sup_values, large.sup_values))


def test_lambda_star_builds_two_generators_per_radius_at_any_budget(monkeypatch):
    prob = _example3_problem(4, 2.5)
    real = analysis.rng_for
    for samples_per_r in (1, 7, 200):
        keys = []

        def counting(seed, *key):
            keys.append(key)
            return real(seed, *key)

        monkeypatch.setattr(analysis, "rng_for", counting)
        lambda_star_estimate(prob, [0.25, 0.5, 0.75], samples_per_r=samples_per_r)
        assert keys == [(47, 0), (48, 0), (47, 1), (48, 1), (47, 2), (48, 2)]


def _loop_lambda_star(prob, r_grid, samples_per_r, seed):
    phi_values, sup_values = [], []
    for ir, r in enumerate(r_grid):
        rng_v, rng_t = _lambda_star_streams(seed, ir)
        sup_j = _loop_potential(np.zeros((prob.m, prob.n)), prob)
        interior = [(sup_j, 0.0)]
        for i in range(samples_per_r):
            v = _unit_direction(rng_v, prob.m, prob.n, zero_mean=True)
            t_r = float(_level_radii(prob, v[None], r)[0])
            sup_j = max(sup_j, _loop_potential(t_r * v, prob))
            u = (rng_t.random() * t_r) * v
            interior.append((_loop_potential(u, prob), _loop_mu(u, prob)))
            sup_j = max(sup_j, interior[-1][0])
        phi = math.inf
        for j_val, mu_val in interior:
            if r - mu_val > 0.0:
                phi = min(phi, (sup_j - j_val) / (r - mu_val))
        phi_values.append(max(phi, 0.0))
        sup_values.append(sup_j)
    return tuple(phi_values), tuple(sup_values)


@pytest.mark.parametrize("m,p,seed", [(2, 2.0, 0), (4, 3.0, 5)])
def test_lambda_star_matches_the_point_loop(m, p, seed):
    prob = _example3_problem(m, p)
    grid = [0.25, 0.5, 0.75]
    est = lambda_star_estimate(prob, grid, samples_per_r=40, seed=seed)
    phi, sup = _loop_lambda_star(prob, grid, 40, seed)
    assert _dumps(est.phi_values) == _dumps(phi)
    assert _dumps(est.sup_values) == _dumps(sup)
    assert isinstance(est, LambdaStarEstimate)


def test_lambda_star_raises_the_first_failure_in_sample_order(monkeypatch):
    """A level radius that overflows raises an EvaluationError that names
    its sample and r, after the samples before it are evaluated, as the
    loop's first non-finite point did: the third and the seventh sample's
    directions, scaled by 1e-300, have radii that overflow at p = 1.01 and
    r = 1e10, and the error is the third sample's.  The stacked call holds
    0 and the two samples before it, all finite."""
    prob = _example3_problem(2, p=1.01)
    real = analysis._unit_directions

    def scaled(rng, count, shape, zero_mean=False):
        V = real(rng, count, shape, zero_mean)
        V[[2, 6]] *= 1e-300
        return V

    monkeypatch.setattr(analysis, "_unit_directions", scaled)
    stacks = _spy_stacks(monkeypatch)
    with pytest.raises(EvaluationError) as raised:
        lambda_star_estimate(prob, [1e10], samples_per_r=10, seed=0)
    assert str(raised.value) == (
        "level radius overflowed: no finite t has mu(t v) = r = 10000000000.0 for sample 3 of 10"
    )
    assert len(stacks) == 1 and len(stacks[0]) == 1 + 2 * 2
    assert np.isfinite(stacks[0]).all()


def _loop_probe(prob, directions=32, radii=(1.0, 10.0, 100.0, 1000.0), seed=0, drop_margin=1.0):
    """anticoercivity_probe as it evaluated its sampled rays and then its
    structured ones, one point at a time."""
    radii = [float(t) for t in radii]
    rng = rng_for(seed, 17)
    pool = [_unit_direction(rng, prob.m, prob.n, zero_mean=False).reshape(-1) for _ in range(directions)]
    structured = analysis._structured_rays(prob.m, prob.n)
    pool += list(structured)
    worst_margin, overflow = math.inf, False
    for idx, d in enumerate(pool):
        vals = [_loop_action_or_limit(t * d, prob) for t in radii]
        overflow = overflow or not all(math.isfinite(v) for v in vals)
        tail_ok = all(vals[i + 1] == -math.inf or vals[i + 1] < vals[i] for i in range(1, len(vals) - 1))
        drop = vals[0] - vals[-1] - drop_margin
        if not tail_ok or not drop > 0.0:
            return CheckReport("anticoercivity", VIOLATED,
                               min(worst_margin, drop if math.isfinite(drop) else 0.0),
                               witness={"direction": d.copy(), "radii": list(radii), "values": vals,
                                        "structured": idx >= directions},
                               samples=len(pool), seed=seed,
                               detail={"overflow": overflow, "structured": len(structured)})
        worst_margin = min(worst_margin, drop)
    return CheckReport("anticoercivity", HOLDS, worst_margin, None, samples=len(pool), seed=seed,
                       detail={"overflow": overflow, "structured": len(structured)})


@pytest.mark.parametrize(
    "name,m,params,p,lam",
    [
        ("power", 2, {"a": 1.0, "b": 1.0, "s": 2.0, "r": 2.0}, 2.0, 5.0),
        ("power", 2, {"a": 1.0, "b": 1.0, "s": 2.0, "r": 2.0}, 200.0, 5.0),
        ("power", 3, {"a": 1.0, "b": 1.0, "s": 3.0, "r": 3.0}, 2.5, 1.0),
        ("example1", 4, {}, 2.0, 1.0),
        ("example2", 3, {}, 2.0, 1.0),
    ],
)
@pytest.mark.parametrize("sampled", [False, True])
def test_probe_table_matches_the_point_loop(name, m, params, p, lam, sampled):
    """With the 32 sampled rays before the structured ones, and with the
    structured rays alone."""
    nl = make_builtin(name, m, params).nonlinearity
    prob = Problem(m=m, n=1, exponent=ExponentFunction.constant(p, m), nonlinearity=nl, lam=lam)
    directions = 32 if sampled else 0
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _loop_probe(prob, directions=directions, seed=3)
    got = anticoercivity_probe(prob, directions=directions, seed=3)
    assert _dumps(got) == _dumps(ref)
    x = np.linspace(-1.0, 2.0, prob.dim)
    assert _same_bits(_action_or_limit_rows(x[None], prob)[0], _loop_action_or_limit(x, prob))


def test_probe_with_no_directions_holds_trivially():
    """With no sampled rays the probe judges its six structured rays alone:
    +-e_1, +-e_2 and +-(1, -1)/sqrt(2) at m = 2."""
    prob = Problem(m=2, n=1, exponent=ExponentFunction.constant(2.0, 2),
                   nonlinearity=make_power(2, 1.0, 1.0, 2.0, 2.0)[0], lam=5.0)
    rep = anticoercivity_probe(prob, directions=0)
    assert rep.verdict == HOLDS and rep.samples == 6 and rep.detail["structured"] == 6


# ---------------------------------------------------------------------------
# The level radius where mu overflows
# ---------------------------------------------------------------------------


def test_level_radius_bisects_an_overflowing_bracket():
    """example3 at p = 1100 with B.2's radius: mu(v) is below r and mu(2 v)
    overflows, where a doubling bracket's top had to be bisected; the
    radius needs no bracket and mu meets r there."""
    prob = _example3_problem(4, p=1100.0)
    v = np.array([0.778400394751652, 0.017011599498357004, -0.5945095929186174, -0.20090240133139156])[:, None]
    r = 4.0 / 1100.0 / 2.0
    assert mu(v, prob) < r
    with pytest.raises(EvaluationError, match="mu evaluated to a non-finite value"):
        mu(2.0 * v, prob)
    (t,) = _level_radii(prob, v[None], r)
    assert 1.0 < t < 2.0
    assert mu(t * v, prob) == pytest.approx(r, rel=1e-12)


def test_level_radius_keeps_the_doubling_bracket():
    """A radius above 1, which a doubling bracket reached, meets r."""
    prob = _example3_problem(4, p=2.0)
    v = _unit_direction(rng_for(3, 23), 4, 1, zero_mean=True)
    (t,) = _level_radii(prob, v[None], 50.0)
    assert t > 1.0 and mu(t * v, prob) == pytest.approx(50.0, rel=1e-14)


def test_level_radius_fails_where_mu_jumps_to_overflow():
    """At r the largest float, the bracket's ends used to meet with no
    finite mu at r.  The radius is finite: |Delta(t v)|^1100 overflows
    before the division by p, so mu(t v) is not finite, but the sum of
    the terms' logarithms is log r."""
    prob = _example3_problem(4, p=1100.0)
    v = _unit_direction(rng_for(3, 23), 4, 1, zero_mean=True)
    r = 1.7976931348623157e308
    (t,) = _level_radii(prob, v[None], r)
    assert 1.0 < t < 2.0
    with pytest.raises(EvaluationError, match="mu evaluated to a non-finite value"):
        mu(t * v, prob)
    norms = np.abs(np.roll(t * v, -1, axis=0) - t * v)[:, 0]
    log_mu = np.logaddexp.reduce(1100.0 * np.log(norms) - math.log(1100.0))
    assert log_mu == pytest.approx(math.log(r), rel=1e-14)


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def _threshold_family(m, f_limit, g_limit):
    """Per-point F = u1^2 u2^2 / 2, inf where u1 > f_limit (the action
    fails), with a gradient that is inf where u1 > g_limit (the residual
    fails)."""

    def F(k, u1, u2):
        return math.inf if u1[0] > f_limit else 0.5 * u1[0] ** 2 * u2[0] ** 2

    def F2(k, u1, u2):
        return np.array([math.inf if u1[0] > g_limit else u1[0] * u2[0] ** 2])

    def F3(k, u1, u2):
        return np.array([u1[0] ** 2 * u2[0]])

    return Nonlinearity.from_points(m=m, F=F, F2_prime=F2, F3_prime=F3, name="power")


def _loop_gradcheck_message(points, prob, step=None):
    """The message of the one-point gradcheck loop at its first failure."""
    for values in points:
        u = PeriodicSequence(values)
        try:
            gradient(u, prob)
            gradient_fd(u, prob, step=step)
        except EvaluationError as exc:
            return f"gradcheck failed: {exc}"
    return None


@pytest.mark.parametrize("f_limit,g_limit", [(1.5, 2.5), (2.5, 1.5), (1.8, 1.8), (9.0, 9.0)])
@pytest.mark.parametrize("entries", [None, 1])
def test_gradcheck_reports_the_first_failing_point(tmp_path, monkeypatch, capsys, f_limit, g_limit, entries):
    m, seed, count = 3, 4, 30
    nl = _threshold_family(m, f_limit, g_limit)
    spec = BuiltinSpec("power", {}, nl)
    monkeypatch.setattr(cli, "make_builtin", lambda *a, **k: spec)
    if entries is not None:
        monkeypatch.setattr(cli, "_GRADCHECK_STACK_ENTRIES", entries)  # one point per stack
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": m, "p": 2.0, "lambda": 1.0, "seed": seed,
                               "nonlinearity": {"builtin": "power"}}))
    prob = Problem(m=m, n=1, exponent=ExponentFunction.constant(2.0, m), nonlinearity=nl, lam=1.0)
    points = rng_for(seed, 31).normal(size=(count, m, 1))
    expected = _loop_gradcheck_message(points, prob)
    out = str(tmp_path / "grad.json")
    code = cli.main(["gradcheck", str(cfg), "--points", str(count), "--output", out])
    err = capsys.readouterr().err
    if expected is None:
        assert code == cli.EXIT_OK
    else:
        assert code == cli.EXIT_COMPUTE
        assert err == f"error: {expected}\n"


@pytest.mark.parametrize(
    "rows",
    [
        [0.5, 1.8, 3.0],  # the action fails at point 1, before the residual at point 2
        [0.5, 3.0, 1.8],  # the residual fails first
        [1.8, 0.5, 1.8],
        [0.5, 0.5, 3.0],
    ],
)
def test_gradcheck_errors_raise_the_first_failing_point(rows):
    nl = _threshold_family(3, 1.5, 2.5)
    prob = Problem(m=3, n=1, exponent=ExponentFunction.constant(2.0, 3), nonlinearity=nl, lam=1.0)
    points = [np.array([[0.2], [-0.4], [top]]) for top in rows]
    expected = _loop_gradcheck_message(points, prob)
    with pytest.raises(EvaluationError) as info:
        cli._gradcheck_errors(np.stack(points), prob, None)
    assert f"gradcheck failed: {info.value}" == expected


def test_gradcheck_chunks_give_the_same_bytes(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 5, "p": [2.0, 2.5, 3.0, 2.0, 2.5], "lambda": 1.0, "seed": 2,
                               "nonlinearity": {"builtin": "power",
                                                "params": {"a": 1.0, "b": 1.0, "s": 3.0, "r": 3.0}}}))
    outputs = []
    for entries in (cli._GRADCHECK_STACK_ENTRIES, 2 * 2 * 25 + 1, 1):
        monkeypatch.setattr(cli, "_GRADCHECK_STACK_ENTRIES", entries)
        out = tmp_path / f"grad_{entries}.json"
        assert cli.main(["gradcheck", str(cfg), "--points", "7", "--output", str(out)]) == cli.EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_gradcheck_errors_match_the_point_loop():
    nl = make_builtin("example1", 4, {}).nonlinearity
    prob = _problem(nl)
    u = rng_for(1, 31).normal(size=(6, 4, 1))
    got = cli._gradcheck_errors(u, prob, None)
    for b in range(6):
        seq = PeriodicSequence(u[b])
        g = gradient(seq, prob).flat()
        g_fd = gradient_fd(seq, prob).flat()
        # |g - g_fd| / max(1, |g|), both norms taken on the point scaled by c
        c = max(1.0, float(np.max(np.abs(g))))
        err = float(np.linalg.norm((g - g_fd) / c)) / max(1.0 / c, float(np.linalg.norm(g / c)))
        assert _same_bits(got[b], err)
