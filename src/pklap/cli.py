"""Command line front end: check, solve, sweep and gradcheck subcommands.

Problems are described by a JSON configuration file:

    {
      "m": 3,
      "n": 1,
      "p": [2, 2, 2],               // or a single number
      "lambda": 1.0,
      "nonlinearity": {"builtin": "example2", "params": {}},
      "solver": {"starts": 32},     // optional SolverConfig overrides
      "seed": 0,                    // optional, default 0
      "subspace": "H_m"             // optional, "H_m" or "Y"
    }

Output files are written atomically (temp file, then rename) and every
float is printed with its shortest round-trip decimal representation, so a
rerun with identical inputs produces byte-identical files.  Exit codes:
0 success, 1 invalid input, 2 a computation failed to meet its contract,
3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
import traceback

import numpy as np

from .analysis import (
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    CheckReport,
    _c1_rows,
    _c2_rows,
    _c3_rows,
    _c_witness,
    _jsonable,
    _xi_search,
    anticoercivity_probe,
    check_b2_b3,
    check_bounds,
    check_growth,
    lambda_star_estimate,
    rng_for,
    thresholds,
)
from .core import (
    EvaluationError,
    ExponentFunction,
    PeriodicSequence,
    Problem,
    _row_norms,
)
from .functional import _gradient_fd_rows, gradient
from .nonlinearities import BuiltinSpec, make_builtin
from .operators import _residual_rows
from .solvers import (
    SUBSPACE_FULL,
    SUBSPACE_Y,
    SolverConfig,
    find_multiple,
    lambda_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPUTE = 2
EXIT_INTERNAL = 3

_EQ_TOL = 1e-12


class ConfigError(ValueError):
    """Invalid configuration file or command line input."""


class ComputationError(RuntimeError):
    """A computation ran but failed to meet its contract."""


# ---------------------------------------------------------------------------
# Configuration loading
# ---------------------------------------------------------------------------

_TOP_KEYS = {"m", "n", "p", "lambda", "nonlinearity", "solver", "seed", "subspace"}
_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverConfig)}


@dataclasses.dataclass(frozen=True)
class LoadedConfig:
    problem: Problem
    builtin: BuiltinSpec
    solver: SolverConfig
    subspace: str


def load_config(path: str) -> LoadedConfig:
    """Parse and validate a configuration file; raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    extra = set(raw) - _TOP_KEYS
    if extra:
        raise ConfigError(f"unknown configuration keys {sorted(extra)}")
    for key in ("m", "p", "lambda", "nonlinearity"):
        if key not in raw:
            raise ConfigError(f"configuration key {key!r} is required")

    m = raw["m"]
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise ConfigError(f"m must be an integer >= 2, got {m!r}")
    n = raw.get("n", 1)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError(f"n must be a positive integer, got {n!r}")

    p_raw = raw["p"]
    if isinstance(p_raw, (int, float)) and not isinstance(p_raw, bool):
        p_list = [float(p_raw)] * m
    elif isinstance(p_raw, list) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in p_raw
    ):
        p_list = [float(x) for x in p_raw]
    else:
        raise ConfigError("p must be a number or a list of numbers")
    if len(p_list) != m:
        raise ConfigError(f"p must have {m} entries, got {len(p_list)}")
    if not all(x > 1.0 for x in p_list):
        raise ConfigError(f"every p must be > 1, got min {min(p_list)}")

    lam = raw["lambda"]
    if isinstance(lam, bool) or not isinstance(lam, (int, float)):
        raise ConfigError("lambda must be a number")
    lam = float(lam)

    nl_raw = raw["nonlinearity"]
    if not isinstance(nl_raw, dict) or "builtin" not in nl_raw:
        raise ConfigError('nonlinearity must be an object with a "builtin" name')
    nl_extra = set(nl_raw) - {"builtin", "params"}
    if nl_extra:
        raise ConfigError(f"unknown nonlinearity keys {sorted(nl_extra)}")
    params = nl_raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("nonlinearity params must be an object")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")

    solver_raw = raw.get("solver", {})
    if not isinstance(solver_raw, dict):
        raise ConfigError("solver must be an object")
    bad = set(solver_raw) - _SOLVER_KEYS
    if bad:
        raise ConfigError(f"unknown solver keys {sorted(bad)}")
    solver_raw = dict(solver_raw)
    solver_raw.setdefault("seed", seed)

    subspace = raw.get("subspace", SUBSPACE_FULL)
    if subspace not in (SUBSPACE_FULL, SUBSPACE_Y):
        raise ConfigError(
            f"subspace must be {SUBSPACE_FULL!r} or {SUBSPACE_Y!r}, got {subspace!r}"
        )

    try:
        exponent = ExponentFunction(np.array(p_list))
        spec = make_builtin(nl_raw["builtin"], m, params)
        if spec.nonlinearity.n != n:
            raise ConfigError(
                f"built-in {spec.name!r} is {spec.nonlinearity.n}-dimensional, "
                f"configuration says n = {n}"
            )
        problem = Problem(
            m=m, n=n, exponent=exponent, nonlinearity=spec.nonlinearity, lam=lam
        )
        solver = SolverConfig(**solver_raw)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return LoadedConfig(problem=problem, builtin=spec, solver=solver, subspace=subspace)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _check_output_dirs(*paths: str) -> None:
    """Raise ConfigError, before any computation, for an output path whose
    directory does not exist."""
    for path in paths:
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            raise ConfigError(f"output directory does not exist: {directory}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pklap-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fmt(x) -> str:
    """Shortest round-trip decimal for floats; plain str for the rest."""
    if isinstance(x, float):
        return repr(x)
    if x is None:
        return ""
    return str(x)


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(_jsonable(payload), indent=2) + "\n")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _sampled_c_reports(prob: Problem, seed: int, count: int = 300) -> list[CheckReport]:
    """Aggregate the three norm inequalities over seeded random samples.

    The samples come from one generator, rng_for(seed, 41): their scales,
    their sequences and then their two exponents are drawn with one array
    call each.  The inequalities are evaluated on all samples at once, and
    the worst margin of each is the first minimum in sample order.  One
    whose every margin is NaN (both sides overflowed) is inconclusive.
    """
    rng = rng_for(seed, 41)
    scale = 10.0 ** rng.uniform(-2.0, 2.0, size=count)
    u = scale[:, None, None] * rng.normal(size=(count, prob.m, prob.n))
    d = rng.random((2, count))
    s1, s2 = 0.5 + 5.5 * d[0], 2.0 + 4.0 * d[1]
    sides = {
        "C.1": (_c1_rows(u, s1), s1),
        "C.2": (_c2_rows(u, s2), s2),
        "C.3": (_c3_rows(u, prob.exponent), None),
    }
    out = []
    for name, ((margins, lhs, rhs), s) in sides.items():
        margin, worst = math.inf, None
        for i, x in enumerate(margins.tolist()):
            if x < margin:
                margin, worst = x, i
        witness = None
        if margin < -1e-10:
            verdict = VIOLATED
            witness = _c_witness(u[worst], None if s is None else s[worst], lhs[worst], rhs[worst])
        else:
            verdict = INCONCLUSIVE if np.isnan(margins).all() else HOLDS
        out.append(CheckReport(name, verdict, margin, witness, samples=count, seed=seed))
    return out


def _route_entry(route: str, reason: str, lo, hi, estimate: bool = False) -> dict:
    entry = {"route": route, "reason": reason, "lambda_interval": [lo, hi]}
    if estimate:
        entry["interval_is_estimate"] = True
    return entry


def _routing(prob: Problem, spec: BuiltinSpec, thr, lam_star) -> list[dict]:
    routes = []
    if spec.growth is not None:
        s_min = spec.growth.s.p_minus
        r_min = spec.growth.r.p_minus
        pp = prob.exponent.p_plus
        if s_min > pp + _EQ_TOL:
            routes.append(
                _route_entry(
                    "any_lambda_via_s",
                    f"s_min = {s_min} exceeds p_plus = {pp}",
                    0.0,
                    math.inf,
                )
            )
        elif r_min > pp + _EQ_TOL:
            routes.append(
                _route_entry(
                    "any_lambda_via_r",
                    f"r_min = {r_min} exceeds p_plus = {pp}",
                    0.0,
                    math.inf,
                )
            )
        elif abs(s_min - pp) <= _EQ_TOL and abs(r_min - pp) <= _EQ_TOL:
            routes.append(
                _route_entry(
                    "above_lambda3",
                    f"s_min = r_min = p_plus = {pp}",
                    thr.lambda3,
                    math.inf,
                )
            )
        elif abs(s_min - pp) <= _EQ_TOL:
            routes.append(
                _route_entry(
                    "above_lambda1",
                    f"s_min = p_plus = {pp} with r_min = {r_min} below",
                    thr.lambda1,
                    math.inf,
                )
            )
        elif abs(r_min - pp) <= _EQ_TOL:
            routes.append(
                _route_entry(
                    "above_lambda2",
                    f"r_min = p_plus = {pp} with s_min = {s_min} below",
                    thr.lambda2,
                    math.inf,
                )
            )
        else:
            routes.append(
                {
                    "route": "none",
                    "reason": f"both growth exponents fall below p_plus = {pp}",
                    "lambda_interval": None,
                }
            )
    if spec.bounds is not None:
        routes.append(
            _route_entry(
                "bounded_three_solutions",
                "bounded potential with sign wells; solutions on the "
                "zero-mean subspace",
                0.0,
                lam_star if lam_star is not None else math.inf,
                estimate=True,
            )
        )
    if not routes:
        routes.append(
            {
                "route": "none",
                "reason": "no growth or bound profile available",
                "lambda_interval": None,
            }
        )
    return routes


def cmd_check(args) -> int:
    _check_output_dirs(args.output)
    loaded = load_config(args.config)
    try:
        payload = _check_payload(loaded)
    except EvaluationError as exc:
        raise ComputationError(f"check failed: {exc}") from exc
    _write_json(args.output, payload)
    print(f"check report written to {args.output}")
    return EXIT_OK


def _check_payload(loaded: LoadedConfig) -> dict:
    prob = loaded.problem
    spec = loaded.builtin
    seed = loaded.solver.seed

    reports = _sampled_c_reports(prob, seed)

    thr = None
    r2 = None
    lam_star = None
    if spec.growth is not None:
        thr = thresholds(prob, spec.growth)
        xi, xi_converged = thr.xi, thr.xi_converged
        reports.extend(check_growth(prob.nonlinearity, spec.growth, seed=seed))
        reports.append(anticoercivity_probe(prob, seed=seed))
    else:
        xi, xi_converged = _xi_search(prob.m, prob.n, prob.exponent.p_plus)
    if spec.bounds is not None:
        reports.extend(check_bounds(prob.nonlinearity, spec.bounds, seed=seed))
        p = prob.exponent.values
        with np.errstate(over="ignore"):
            r2 = float(np.sum((2.0 * spec.bounds.rho1) ** p / p))
        if not math.isfinite(r2):
            raise ComputationError(f"check failed: r2 = sum (2 rho1)^p / p overflows ({r2})")
        b2, b3 = check_b2_b3(prob, r2 / 2.0, seed=seed)
        reports.extend([b2, b3])
        est = lambda_star_estimate(
            prob,
            [r2 / 4.0, r2 / 2.0, 0.75 * r2],
            samples_per_r=200,
            seed=seed,
        )
        lam_star = est.estimate

    return {
        "m": prob.m,
        "n": prob.n,
        "lambda": prob.lam,
        "builtin": spec.name,
        "params": spec.params,
        "p": [float(x) for x in prob.exponent.values],
        "p_minus": prob.exponent.p_minus,
        "p_plus": prob.exponent.p_plus,
        "xi": xi,
        # present only when false, so reports of a converged xi stay unchanged
        **({} if xi_converged else {"xi_converged": False}),
        "thresholds": None
        if thr is None
        else {"lambda1": thr.lambda1, "lambda2": thr.lambda2, "lambda3": thr.lambda3},
        "r2": r2,
        "lambda_star": lam_star,
        "routing": _routing(prob, spec, thr, lam_star),
        "reports": [rep.to_dict() for rep in reports],
    }


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _summary_rows(records, start_id: int = 0):
    rows = []
    for i, rec in enumerate(records):
        rows.append(
            ",".join(
                [
                    str(start_id + i),
                    _fmt(rec.action_value),
                    _fmt(rec.residual_norm),
                    _fmt(rec.morse_index),
                    rec.classification,
                    str(bool(rec.in_Y)).lower(),
                    rec.method,
                    str(bool(rec.converged)).lower(),
                    "|".join(rec.flags),
                ]
            )
        )
    return rows


def _write_solutions(values_path, summary_path, sol) -> None:
    all_records = list(sol.records) + list(sol.y_discrepancies)
    lines = ["solution_id,k,component,value"]
    for i, rec in enumerate(all_records):
        vals = rec.u.values
        for k in range(1, vals.shape[0] + 1):
            for c in range(vals.shape[1]):
                lines.append(f"{i},{k},{c},{_fmt(float(vals[k - 1, c]))}")
    _atomic_write(values_path, "\n".join(lines) + "\n")

    header = (
        "solution_id,action,residual_norm,morse_index,"
        "classification,in_Y,method,converged,flags"
    )
    summary = [header]
    summary.extend(_summary_rows(sol.records))
    summary.extend(_summary_rows(sol.y_discrepancies, start_id=len(sol.records)))
    if sol.symmetry_ok is not None:
        summary.append(f"# sign_flip_symmetry_ok: {str(sol.symmetry_ok).lower()}")
    _atomic_write(summary_path, "\n".join(summary) + "\n")


def cmd_solve(args) -> int:
    _check_output_dirs(args.values_out, args.summary_out)
    loaded = load_config(args.config)
    overrides = {}
    if args.tol is not None:
        overrides["residual_tol"] = args.tol
    if args.starts is not None:
        overrides["starts"] = args.starts
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        cfg = dataclasses.replace(loaded.solver, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        sol = find_multiple(loaded.problem, cfg, subspace=loaded.subspace)
    except EvaluationError as exc:
        raise ComputationError(f"solver failed: {exc}") from exc
    _write_solutions(args.values_out, args.summary_out, sol)
    print(
        f"{len(sol.records)} solution(s), "
        f"{len(sol.y_discrepancies)} subspace-only point(s); "
        f"wrote {args.values_out} and {args.summary_out}"
    )
    if not sol.records:
        raise ComputationError("no start converged to a verified solution")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    _check_output_dirs(args.output)
    loaded = load_config(args.config)
    if not (0.0 < args.lambda_min < args.lambda_max < math.inf):
        raise ConfigError("the lambda bounds must satisfy 0 < --lambda-min < --lambda-max < inf")
    if args.steps < 2:
        # a one-point grid would be --lambda-min alone, silently dropping --lambda-max
        raise ConfigError("--steps must be >= 2: the grid runs from --lambda-min to --lambda-max")
    grid = np.linspace(args.lambda_min, args.lambda_max, args.steps)

    try:
        sweep = lambda_sweep(loaded.problem, grid, loaded.solver, loaded.subspace)
    except EvaluationError as exc:
        raise ComputationError(f"sweep failed: {exc}") from exc

    lines = ["lambda,count,nontrivial_count,min_action"]
    for lam, count, nontriv, amin in zip(
        sweep.lambda_grid, sweep.counts, sweep.nontrivial_counts, sweep.min_actions
    ):
        lines.append(f"{_fmt(lam)},{count},{nontriv},{_fmt(amin)}")
    for lam, message in sweep.failures:
        lines.append(f"# failed: lambda={_fmt(lam)} {message}")
    if sweep.a_estimate:
        for lo, hi in sweep.a_estimate:
            lines.append(f"# A_estimate: {_fmt(lo)},{_fmt(hi)}")
    else:
        lines.append("# A_estimate: none")
    _atomic_write(args.output, "\n".join(lines) + "\n")
    print(f"sweep written to {args.output}")
    if not any(sweep.counts):
        raise ComputationError("no grid point produced a verified solution")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


# Bound on the entries of one stacked gradcheck stencil.  Each point adds
# 2 * dim stencil points of dim entries, so at m = 256 and 100 points one
# stack would take about 100 MB; at this bound (4 MB of float64) it holds 8
# points at m = 256 and every point of the benchmark's configs.
_GRADCHECK_STACK_ENTRIES = 1 << 19


def _gradcheck_errors(u: np.ndarray, prob: Problem, step) -> list[float]:
    """|g - g_fd| / max(1, |g|) at each point of a (B, m, n) stack.

    The gradients take one residual call and the FD stencils of all points
    one action call.  Both norms are taken on the row divided by c = max(1,
    max_i |g_i|), so they do not overflow where |g| would; at c = 1 the
    values are unchanged.  A failure raises the EvaluationError that the
    one-point path (gradient, then gradient_fd, point by point) raises at
    the first failing point.
    """
    x = u.reshape(len(u), prob.dim)
    out, ok = _residual_rows(u, prob)
    if not ok.all():
        first = int(np.argmin(ok))
        if first:
            _gradient_fd_rows(x[:first], prob, step)  # raises for an earlier point
        gradient(PeriodicSequence(u[first]), prob)  # raises the residual's error
    g = -out.reshape(x.shape)
    diff = g - _gradient_fd_rows(x, prob, step)
    # an error that is still not finite (an infinite g_i) fails the check
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.maximum(1.0, np.abs(g).max(axis=1))
        return (_row_norms(diff / c[:, None]) / np.maximum(1.0 / c, _row_norms(g / c[:, None]))).tolist()


def cmd_gradcheck(args) -> int:
    _check_output_dirs(args.output)
    loaded = load_config(args.config)
    prob = loaded.problem
    if args.points < 1:
        raise ConfigError("--points must be >= 1")
    if args.step is not None and not (args.step > 0 and math.isfinite(args.step)):
        raise ConfigError("--step must be positive and finite")

    seed = loaded.solver.seed
    # one call: a larger --points extends the point set
    points = rng_for(seed, 31).normal(size=(args.points, prob.m, prob.n))
    chunk = max(1, _GRADCHECK_STACK_ENTRIES // (2 * prob.dim * prob.dim))
    errors = []
    try:
        for lo in range(0, args.points, chunk):
            errors += _gradcheck_errors(points[lo : lo + chunk], prob, args.step)
    except EvaluationError as exc:
        raise ComputationError(f"gradcheck failed: {exc}") from exc
    # the first largest error, a NaN ranking above every number
    worst = max(range(len(errors)), key=lambda i: math.inf if math.isnan(errors[i]) else errors[i])
    worst_err = errors[worst]
    worst_point = None if worst_err == 0.0 else points[worst]
    ok = worst_err <= 1e-5
    payload = {
        "max_relative_error": worst_err,
        "points": args.points,
        "step": args.step,
        "seed": loaded.solver.seed,
        "tolerance": 1e-5,
        "passed": ok,
        "worst_point": None if worst_point is None else worst_point.tolist(),
    }
    _write_json(args.output, payload)
    print(f"max relative gradient error {worst_err:.3e} over {args.points} points")
    if not ok:
        print(f"worst point: {worst_point.tolist()}", file=sys.stderr)
        raise ComputationError(
            f"gradient mismatch {worst_err:.3e} exceeds 1e-05 (see {args.output})"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors through exit code 1
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pklap",
        description="Find and check m-periodic solutions of discrete "
        "anisotropic p(k)-Laplacian systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate hypotheses and thresholds")
    p_check.add_argument("config")
    p_check.add_argument("--output", default="check_report.json")
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="find multiple periodic solutions")
    p_solve.add_argument("config")
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--starts", type=int, default=None)
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--values-out", default="solutions_values.csv")
    p_solve.add_argument("--summary-out", default="solutions_summary.csv")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="count solutions along a lambda grid")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--lambda-min", type=float, required=True)
    p_sweep.add_argument("--lambda-max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, default=25)
    p_sweep.add_argument("--output", default="sweep.csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_grad = sub.add_parser("gradcheck", help="compare the gradient to differences")
    p_grad.add_argument("config")
    p_grad.add_argument("--points", type=int, default=100)
    p_grad.add_argument("--step", type=float, default=None)
    p_grad.add_argument("--output", default="gradcheck.json")
    p_grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except KeyboardInterrupt:
        raise
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
