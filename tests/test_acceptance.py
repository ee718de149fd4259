"""End-to-end acceptance gate.

Ten run-and-verify criteria covering the full pipeline: gradient and
assembly correctness, the sampled inequality suite, the sharp embedding
constant, threshold bracketing by the ray probe, two three-solution
reproductions, deflation soundness with byte-identical reruns, ray decay
of the action, and the variational threshold estimator.  Each test prints
one PASS/FAIL line (visible with pytest -s or in captured output).

Ground truth throughout is the independently re-evaluated residual of the
difference system, never the solver's own bookkeeping.
"""

import filecmp
import math
import pathlib
import warnings

import numpy as np
import pytest

import pklap.cli as cli
from pklap.analysis import (
    HOLDS,
    VIOLATED,
    anticoercivity_probe,
    check_c1,
    check_c2,
    check_c3,
    lambda_star_estimate,
    rng_for,
    thresholds,
    xi_constant,
)
from pklap.analysis import _xi_minimum
from pklap.core import ExponentFunction, PeriodicSequence, Problem
from pklap.functional import action, gradient, gradient_fd
from pklap.nonlinearities import (
    make_builtin,
    make_example1,
    make_example2,
    make_example3,
    make_power,
)
from pklap.operators import residual_values
from pklap.solvers import SUBSPACE_Y, SolverConfig, find_multiple, lambda_sweep

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:2d}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _problem(nl, p_values, lam=1.0):
    return Problem(
        m=nl.m,
        n=nl.n,
        exponent=ExponentFunction(np.asarray(p_values, dtype=float)),
        nonlinearity=nl,
        lam=lam,
    )


# shared across criteria 6 and 8; computed once on first use
_CASE1_CACHE = {}


def _case1_solutions():
    if "sols" not in _CASE1_CACHE:
        nl, _ = make_example2(3)
        prob = _problem(nl, [2.0] * 3, lam=1.0)
        cfg = SolverConfig(starts=64, seed=0)
        _CASE1_CACHE["prob"] = prob
        _CASE1_CACHE["sols"] = find_multiple(prob, cfg)
    return _CASE1_CACHE["prob"], _CASE1_CACHE["sols"]


def test_criterion_01_gradient_correctness():
    """Analytic gradient vs central differences, all built-ins, p in [2, 4]."""
    cases = []
    for m in (2, 3, 4, 6):
        if m % 2 == 0:
            cases.append(("example1", m, {}))
        cases.append(("example2", m, {}))
        cases.append(("example3", m, {}))
        cases.append(("power", m, {"a": 1.0, "b": 1.0, "s": 3.0, "r": 4.0}))

    worst = 0.0
    for name, m, params in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            spec = make_builtin(name, m, params)
        rng = rng_for(0, 1, m, len(name))
        p_values = rng.uniform(2.0, 4.0, size=m)
        prob = _problem(spec.nonlinearity, p_values, lam=0.7)
        for _ in range(100):
            u = PeriodicSequence(rng.normal(scale=1.5, size=(m, 1)))
            g = gradient(u, prob).flat()
            g_fd = gradient_fd(u, prob).flat()
            err = float(np.linalg.norm(g - g_fd)) / max(1.0, float(np.linalg.norm(g)))
            worst = max(worst, err)
    _report(1, worst <= 1e-6, f"max relative gradient error {worst:.3e} (tol 1e-6)")


def test_criterion_02_assembly_fidelity():
    """Coupling assembled from partial derivatives vs its closed form."""
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        families = (
            make_example1(2)[0],
            make_example1(4)[0],
            make_example2(2)[0],
            make_example2(3)[0],
        )
    for nl in families:
        rng = rng_for(0, 2, nl.m)
        for _ in range(100):
            k = int(rng.integers(1, nl.m + 1))
            u1, u2, u3 = rng.normal(scale=2.0, size=3)
            lhs = nl.f(k, np.array([u1]), np.array([u2]), np.array([u3]))
            rhs = np.atleast_1d(nl.f_direct(k, u1, u2, u3))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    _report(2, worst <= 1e-9, f"max assembly gap {worst:.3e} (tol 1e-9)")


def test_criterion_03_inequality_suite():
    """The three norm-comparison inequalities on 10^4 samples each."""
    rng = np.random.default_rng(0)
    worst = {"C.1": math.inf, "C.2": math.inf, "C.3": math.inf}
    for _ in range(10_000):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(1, 3))
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        u = PeriodicSequence(scale * rng.normal(size=(m, n)))
        s = float(rng.uniform(0.1, 6.0))
        s2 = float(rng.uniform(2.0, 6.0))
        p = ExponentFunction(rng.uniform(1.0, 4.0, size=m))
        for rep in (check_c1(u, s), check_c2(u, s2), check_c3(u, p)):
            worst[rep.name] = min(worst[rep.name], rep.margin)
    ok = all(v >= -1e-10 for v in worst.values())
    detail = ", ".join(f"{k} worst margin {v:.3e}" for k, v in sorted(worst.items()))
    _report(3, ok, detail + " (slack -1e-10, 10^4 samples each)")


def test_criterion_04_xi_oracle():
    """Sharp embedding constant vs the cycle eigenvalue, plus the inequality."""
    worst_gap = 0.0
    for m in range(2, 13):
        target = 2.0 - 2.0 * math.cos(2.0 * math.pi / m)
        worst_gap = max(worst_gap, abs(xi_constant(m, 1, 2.0) - target))
        opt, _ = _xi_minimum(m, 1, 2.0)  # the descent, beside the eigenvalue
        worst_gap = max(worst_gap, abs(opt - target))

    violations = 0
    rng = np.random.default_rng(4)
    for pp in (2.0, 2.5, 3.0):
        m = 5
        xi = xi_constant(m, 1, pp)
        for _ in range(1000):
            v = rng.normal(size=(m, 1))
            v -= v.mean(axis=0)
            nv = float(np.linalg.norm(v))
            if nv < 1e-9:
                continue
            d = np.roll(v, -1, axis=0) - v
            lhs = float(np.sum(np.abs(d) ** pp))
            rhs = xi * nv**pp
            if lhs < rhs - 1e-8 * max(1.0, rhs):
                violations += 1
    ok = worst_gap <= 1e-7 and violations == 0
    _report(
        4,
        ok,
        f"max |xi - eigenvalue| {worst_gap:.3e} over m=2..12 (tol 1e-7), "
        f"{violations} inequality violations over 3x1000 samples",
    )


def test_criterion_05_threshold_bracketing():
    """Ray decay must fail at lambda_3/2 and hold at 2*lambda_3."""
    nl, growth = make_power(2, a=1.0, b=1.0, s=2.0, r=2.0)
    prob = _problem(nl, [2.0, 2.0], lam=1.0)
    thr = thresholds(prob, growth)
    assert thr.lambda3 == pytest.approx(2.0)

    below = anticoercivity_probe(prob.with_lambda(0.5 * thr.lambda3), seed=0)
    above = anticoercivity_probe(prob.with_lambda(2.0 * thr.lambda3), seed=0)
    ok = below.verdict == VIOLATED and above.verdict == HOLDS
    _report(
        5,
        ok,
        f"probe at lambda_3/2 -> {below.verdict}, at 2*lambda_3 -> {above.verdict}",
    )


def test_criterion_06_three_solutions_case1():
    """Weighted quartic family, m = 3, lambda = 1: three solutions, two nontrivial."""
    prob, sols = _case1_solutions()
    independent = [
        float(np.linalg.norm(residual_values(rec.u, prob))) for rec in sols.records
    ]
    nontrivial = sum(
        1 for rec in sols.records if float(np.linalg.norm(rec.u.values)) > 1e-6
    )
    ok = (
        len(sols.records) >= 3
        and all(r <= 1e-8 for r in independent)
        and nontrivial >= 2
    )
    _report(
        6,
        ok,
        f"{len(sols.records)} records, {nontrivial} nontrivial, "
        f"max independent residual {max(independent):.3e} (tol 1e-8)",
    )


def test_criterion_07_three_solutions_bounded():
    """Bounded sine well on the zero-mean subspace across a lambda grid."""
    nl, _ = make_example3(2)
    prob = _problem(nl, [2.0, 2.0], lam=1.0)
    cfg = SolverConfig(starts=8, seed=0)
    grid = np.linspace(0.1, 10.0, 25)
    sweep = lambda_sweep(prob, grid, cfg, subspace=SUBSPACE_Y)

    best = int(np.argmax(sweep.counts))
    best_set = sweep.solution_sets[best]
    best_prob = prob.with_lambda(float(sweep.lambda_grid[best]))
    independent = [
        float(np.linalg.norm(residual_values(rec.u, best_prob)))
        for rec in best_set.records
    ]
    nonzero = sum(
        1 for rec in best_set.records if float(np.linalg.norm(rec.u.values)) > 1e-6
    )
    discrepancies = len(best_set.y_discrepancies)
    ok = (
        len(sweep.a_estimate) >= 1
        and len(best_set.records) >= 3
        and all(r <= 1e-8 for r in independent)
        and nonzero >= 2
    )
    _report(
        7,
        ok,
        f"A_estimate {sweep.a_estimate}, best lambda {sweep.lambda_grid[best]:.4f} "
        f"with {len(best_set.records)} records ({nonzero} nonzero, "
        f"max residual {max(independent):.3e}), "
        f"{discrepancies} subspace-only point(s) listed",
    )


def test_criterion_08_deflation_soundness(tmp_path):
    """Distinct records stay separated; CLI reruns are byte-identical."""
    _, sols = _case1_solutions()
    min_rel = math.inf
    flats = [rec.u.flat() for rec in sols.records]
    for i in range(len(flats)):
        for j in range(i + 1, len(flats)):
            scale = max(
                1.0,
                float(np.linalg.norm(flats[i])),
                float(np.linalg.norm(flats[j])),
            )
            min_rel = min(
                min_rel, float(np.linalg.norm(flats[i] - flats[j])) / scale
            )

    config = ROOT / "configs" / "example2_m3.json"
    runs = []
    for tag in ("first", "second"):
        values = tmp_path / f"values_{tag}.csv"
        summary = tmp_path / f"summary_{tag}.csv"
        code = cli.main(
            [
                "solve",
                str(config),
                "--values-out",
                str(values),
                "--summary-out",
                str(summary),
            ]
        )
        assert code == cli.EXIT_OK
        runs.append((values, summary))
    identical = filecmp.cmp(runs[0][0], runs[1][0], shallow=False) and filecmp.cmp(
        runs[0][1], runs[1][1], shallow=False
    )
    ok = min_rel > 1e-6 and identical
    _report(
        8,
        ok,
        f"min pairwise relative distance {min_rel:.3e} (> 1e-6), "
        f"byte-identical rerun: {identical}",
    )


def test_criterion_09_anticoercive_rays():
    """The action falls strictly along 32 random rays from t = 10 on."""
    nl, _ = make_example2(3)
    prob = _problem(nl, [2.0] * 3, lam=1.0)
    failures = 0
    for i in range(32):
        rng = rng_for(0, 9, i)
        d = rng.normal(size=(3, 1))
        d /= np.linalg.norm(d)
        vals = [action(PeriodicSequence(t * d), prob) for t in (1.0, 10.0, 100.0, 1000.0)]
        if not (vals[1] > vals[2] > vals[3]):
            failures += 1
    _report(9, failures == 0, f"{failures}/32 rays failed strict decay past t = 10")


def test_criterion_10_lambda_star_estimator():
    """Zero potential gives +inf; sups grow with samples; frozen value is stable."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        zero_nl, _ = make_power(2, a=0.0, b=0.0, s=2.0, r=2.0)
    zero_prob = _problem(zero_nl, [2.0, 2.0])
    est_zero = lambda_star_estimate(zero_prob, [0.5], samples_per_r=40)

    nl, _ = make_example3(2)
    prob = _problem(nl, [2.0, 2.0])
    small = lambda_star_estimate(prob, [0.25, 0.5], samples_per_r=100)
    doubled = lambda_star_estimate(prob, [0.25, 0.5], samples_per_r=200)
    sup_monotone = all(
        b >= s for s, b in zip(small.sup_values, doubled.sup_values)
    )

    frozen = 2.1429570158091105
    run_a = lambda_star_estimate(prob, [0.25, 0.5, 0.75], samples_per_r=200)
    run_b = lambda_star_estimate(prob, [0.25, 0.5, 0.75], samples_per_r=200)
    stable = run_a.estimate == run_b.estimate == frozen

    ok = est_zero.estimate == math.inf and sup_monotone and stable
    _report(
        10,
        ok,
        f"zero potential -> {est_zero.estimate}, sup monotone under doubling: "
        f"{sup_monotone}, estimate {run_a.estimate!r} == frozen {frozen!r}: {stable}",
    )
