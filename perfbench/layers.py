"""Per-layer metrics: derived from a traced pass, plus direct-call ladders.

Every metric maps to the end-to-end metric and workload it should move;
README.md in this directory has the table.  A metric whose seam no longer
exists in the package is reported with value None ("missing"), never 0.
"""

from __future__ import annotations

import statistics
import time
import warnings

import numpy as np

from tracer import Tracer
from workloads import LADDER_LAMBDA, LADDER_M, LADDER_POWER

# Seconds each ladder rung may spend repeating its call (at least once).
RUNG_BUDGET_S = 0.25

ANALYSIS_CHECKS = (
    "check_growth",
    "check_bounds",
    "check_b2_b3",
    "anticoercivity_probe",
    "lambda_star_estimate",
    "thresholds",
    "sampled_c",
)

# Units that mark a metric as a count (compared exactly between two traced
# passes); timings are never compared.
COUNT_UNITS = ("count", "ratio")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer(tr: Tracer) -> dict:
    calls, self_s, children = tr.aggregate()
    out = {}

    def put(name, unit, value, *spans):
        missing = any(span in tr.missing for span in spans)
        out[name] = _metric(None if missing else value, unit)

    def ratio(num, den):
        return num / den if den else 0.0

    put("operators.residual_values.calls", "count", calls["residual_values"], "residual_values")
    put("operators.residual_values.self_s", "s", self_s["residual_values"], "residual_values")

    put("core.nonlinearity_f.calls", "count", calls["nonlinearity_f"], "nonlinearity_f")
    put("core.nonlinearity_F_at.calls", "count", calls["nonlinearity_F_at"], "nonlinearity_F_at")
    put(
        "core.nonlinearity.self_s", "s",
        self_s["nonlinearity_f"] + self_s["nonlinearity_F_at"],
        "nonlinearity_f", "nonlinearity_F_at",
    )
    put(
        "core.periodic_sequence.constructions", "count",
        tr.counts["periodic_sequence"], "periodic_sequence",
    )

    put("functional.morse_summary.calls", "count", calls["morse_summary"], "morse_summary")
    put("functional.morse_summary.self_s", "s", self_s["morse_summary"], "morse_summary")
    put("functional.hessian_fd.self_s", "s", self_s["hessian_fd"], "hessian_fd")
    put("functional.hessian_fd.asym_warnings", "count", tr.asym_warnings, "hessian_fd")
    put("functional.action.calls", "count", calls["action"], "action")
    put("functional.action.self_s", "s", self_s["action"], "action")
    put("functional.gradient_fd.calls", "count", calls["gradient_fd"], "gradient_fd")
    put("functional.gradient_fd.self_s", "s", self_s["gradient_fd"], "gradient_fd")

    put("solvers.newton.attempts", "count", calls["newton"], "newton")
    put(
        "solvers.newton.converged_frac", "ratio",
        ratio(tr.newton_converged, calls["newton"]), "newton",
    )
    put("solvers.newton.self_s", "s", self_s["newton"], "newton")
    put("solvers.jacobian.calls", "count", calls["jacobian"], "jacobian")
    put("solvers.jacobian.self_s", "s", self_s["jacobian"], "jacobian")
    put(
        "solvers.jacobian.residual_evals_per_call", "ratio",
        ratio(children[("jacobian", "residual_values")], calls["jacobian"]),
        "jacobian", "residual_values",
    )
    put("solvers.deflation.calls", "count", calls["deflation"], "deflation")
    put("solvers.deflation.self_s", "s", self_s["deflation"], "deflation")
    put(
        "solvers.deflation.mean_known", "ratio",
        ratio(sum(tr.known_sizes), len(tr.known_sizes)), "deflation",
    )
    put("solvers.dedupe.calls", "count", calls["dedupe"], "dedupe")
    put("solvers.dedupe.self_s", "s", self_s["dedupe"], "dedupe")
    put(
        "solvers.dedupe.residual_evals", "count",
        children[("dedupe", "residual_values")], "dedupe", "residual_values",
    )
    put(
        "solvers.dedupe.reject_frac", "ratio",
        ratio(tr.dedupe_true, tr.dedupe_true + tr.records_added),
        "dedupe", "find_multiple",
    )
    put("solvers.mountain_pass.self_s", "s", self_s["mountain_pass"], "mountain_pass")
    put("solvers.find_multiple.self_s", "s", self_s["find_multiple"], "find_multiple")
    put("solvers.sweep.warm_pool_max", "count", tr.extra_starts_max, "find_multiple")

    put("analysis.xi_constant.calls", "count", calls["xi_constant"], "xi_constant")
    put("analysis.xi_constant.self_s", "s", self_s["xi_constant"], "xi_constant")
    for check in ANALYSIS_CHECKS:
        put(f"analysis.{check}.self_s", "s", self_s[check], check)

    put("cli.load_config.self_s", "s", self_s["load_config"], "load_config")
    put("cli.write.self_s", "s", self_s["write"], "write")
    put("cli.bytes_written", "count", tr.bytes_written, "write")
    return out


def count_mismatches(first: dict, second: dict) -> list[str]:
    """Names of count metrics that differ between two traced passes."""
    return sorted(
        name
        for name, entry in first.items()
        if entry["unit"] in COUNT_UNITS and entry["value"] != second[name]["value"]
    )


def overhead(untraced_s: float, traced_s: float, tr: Tracer) -> dict:
    return {
        "trace.untraced_wall_s": _metric(untraced_s, "s"),
        "trace.traced_wall_s": _metric(traced_s, "s"),
        "trace.overhead_s": _metric(traced_s - untraced_s, "s"),
        "trace.spans": _metric(len(tr.span_start), "count"),
    }


def _median_time(fn) -> float:
    samples = []
    t_end = time.perf_counter() + RUNG_BUDGET_S
    while not samples or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def ladders(pk, seed: int) -> dict:
    """Direct calls on the power family at each period in LADDER_M.

    residual_values (us per call), the solver's dense FD Jacobian and
    hessian_fd (ms per call), each the median over the rung's budget.
    """
    residual = getattr(pk.operators, "residual_values", None)
    system = getattr(pk.solvers, "_System", None)
    hessian = getattr(pk.functional, "hessian_fd", None)
    if system is not None and not hasattr(system, "jacobian"):
        system = None
    out = {}
    rng = np.random.default_rng(seed)
    for m in LADDER_M:
        spec = pk.make_builtin("power", m, LADDER_POWER)
        prob = pk.Problem(
            m=m, n=1, exponent=pk.ExponentFunction.constant(2.0, m),
            nonlinearity=spec.nonlinearity, lam=LADDER_LAMBDA,
        )
        u = pk.PeriodicSequence(rng.normal(size=(m, 1)))
        jac = system(prob).jacobian if system is not None else None
        rungs = (
            (f"operators.residual_us.m{m}", "us", 1e6, residual and (lambda: residual(u, prob))),
            (f"solvers.jacobian_ms.m{m}", "ms", 1e3, jac and (lambda: jac(u.flat()))),
            (f"functional.hessian_ms.m{m}", "ms", 1e3, hessian and (lambda: hessian(u, prob))),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for name, unit, scale, call in rungs:
                out[name] = _metric(scale * _median_time(call) if call else None, unit)
    return out
