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
import functools
import json
import math
import os
import sys
import traceback

import numpy as np

from .analysis import (
    _jsonable,
    _sampled_c_reports,
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
    SUBSPACE_FULL,
    SUBSPACE_Y,
    EvaluationError,
    ExponentFunction,
    PeriodicSequence,
    Problem,
    SolverConfig,
    _row_norms,
)
from .functional import _gradient_fd_rows, gradient
from .nonlinearities import BuiltinSpec, make_builtin
from .operators import _residual_rows

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
_SOLVER_FLOATS = {f.name for f in dataclasses.fields(SolverConfig) if f.type == "float"}


@dataclasses.dataclass(frozen=True)
class LoadedConfig:
    problem: Problem
    builtin: BuiltinSpec
    solver: SolverConfig
    subspace: str


def _unfloatable_key(named) -> str | None:
    """The key of the first integer that no float holds among (key, value)
    pairs, whose values are numbers or lists or objects of them, searched
    in order; a list entry is key[i] and an object's member key.name."""
    for key, value in named:
        if isinstance(value, dict):
            found = _unfloatable_key((f"{key}.{k}", v) for k, v in value.items())
        elif isinstance(value, list):
            found = _unfloatable_key((f"{key}[{i}]", v) for i, v in enumerate(value))
        else:
            found = None
            if isinstance(value, int):
                try:
                    float(value)
                except OverflowError:
                    found = key
        if found is not None:
            return found
    return None


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

    # numbers are converted to floats after the check below that names a
    # JSON integer too large for a float, and a single p is repeated m times
    p_list = raw["p"]
    if isinstance(p_list, (int, float)) and not isinstance(p_list, bool):
        p_list = [p_list]
    elif not isinstance(p_list, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in p_list
    ):
        raise ConfigError("p must be a number or a list of numbers")
    elif len(p_list) != m:
        raise ConfigError(f"p must have {m} entries, got {len(p_list)}")
    if not all(x > 1.0 for x in p_list):
        raise ConfigError(f"every p must be > 1, got min {float(min(p_list))}")

    lam = raw["lambda"]
    if isinstance(lam, bool) or not isinstance(lam, (int, float)):
        raise ConfigError("lambda must be a number")

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

    # the numbers converted to floats below, in order
    huge = _unfloatable_key(
        [("p", raw["p"]), ("lambda", lam), ("nonlinearity.params", params)]
        + [(f"solver.{k}", v) for k, v in solver_raw.items() if k in _SOLVER_FLOATS]
    )
    if huge is not None:
        raise ConfigError(f"{huge}: int too large to convert to float")
    try:  # np.full rejects an m too large for an array at once, without allocating
        p_values = np.full(m, [float(x) for x in p_list])
    except ValueError as exc:
        raise ConfigError(f"m is too large for an array: {exc}") from exc
    try:
        exponent = ExponentFunction(p_values)
        lam = float(lam)
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
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    return LoadedConfig(problem=problem, builtin=spec, solver=solver, subspace=subspace)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _check_output_dirs(config: str, *paths: str) -> None:
    """Raise ConfigError, before the config is loaded, for an output path
    that names a directory (an existing one, or by a trailing separator),
    whose directory does not exist, or that names the configuration file or
    the same file as an earlier output."""
    config_real = os.path.realpath(config)
    seen = set()
    for path in paths:
        if os.path.isdir(path) or not os.path.basename(path):
            raise ConfigError(f"output path names a directory: {path}")
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            raise ConfigError(f"output directory does not exist: {directory}")
        real = os.path.realpath(path)
        if real == config_real:
            raise ConfigError(f"output path names the configuration file: {path}")
        if real in seen:
            raise ConfigError(f"two outputs name the same file: {path}")
        seen.add(real)


def _atomic_write(path: str, text: str) -> None:
    """Write text to a new file beside path, then rename it over path.  The
    file is created with mode 0o666 less the umask, as open() would."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".pklap-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
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


def _routing(prob: Problem, spec: BuiltinSpec, thr) -> list[dict]:
    """The routes of the check report: the first growth route whose
    condition holds (when the family has a growth profile), then the
    bounded route (when it has a bound profile), or else "none".  The
    bounded route claims no interval: the side of lambda* it holds on is not
    derived, and at m = 2, p = 2 example3 on Y has one solution below 2."""
    routes = []
    if spec.growth is not None:
        s_min, r_min, pp = spec.growth.s.p_minus, spec.growth.r.p_minus, prob.exponent.p_plus
        s_at, r_at = abs(s_min - pp) <= _EQ_TOL, abs(r_min - pp) <= _EQ_TOL
        # (condition, route, reason, lower end of the lambda interval), in
        # order of precedence; a lower end of None claims no interval
        table = (
            (s_min > pp + _EQ_TOL, "any_lambda_via_s", f"s_min = {s_min} exceeds p_plus = {pp}", 0.0),
            (r_min > pp + _EQ_TOL, "any_lambda_via_r", f"r_min = {r_min} exceeds p_plus = {pp}", 0.0),
            (s_at and r_at, "above_lambda3", f"s_min = r_min = p_plus = {pp}", thr.lambda3),
            (s_at, "above_lambda1", f"s_min = p_plus = {pp} with r_min = {r_min} below", thr.lambda1),
            (r_at, "above_lambda2", f"r_min = p_plus = {pp} with s_min = {s_min} below", thr.lambda2),
            (True, "none", f"both growth exponents fall below p_plus = {pp}", None),
        )
        _, route, reason, lo = next(row for row in table if row[0])
        interval = None if lo is None else [lo, math.inf]
        routes.append({"route": route, "reason": reason, "lambda_interval": interval})
    if spec.bounds is not None:
        routes.append(
            {
                "route": "bounded_three_solutions",
                "reason": "bounded potential with sign wells; solutions on the zero-mean subspace; "
                "the lambda interval is unverified until its direction is derived",
                "lambda_interval": None,
            }
        )
    return routes or [
        {"route": "none", "reason": "no growth or bound profile available", "lambda_interval": None}
    ]


def cmd_check(args) -> int:
    _check_output_dirs(args.config, args.output)
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
    xi, xi_converged = _xi_search(prob.m, prob.n, prob.exponent.p_plus)

    thr = None
    r2 = None
    lam_star = None
    if spec.growth is not None:
        thr = thresholds(prob, spec.growth)
        reports.extend(check_growth(prob.nonlinearity, spec.growth, seed=seed))
        reports.append(anticoercivity_probe(prob, seed=seed))
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
        "routing": _routing(prob, spec, thr),
        "reports": [rep.to_dict() for rep in reports],
    }


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


# solve and sweep call the solvers through these two module globals, which
# import pklap.solvers on their first call, so that check and gradcheck
# never load it.  As globals they stay replaceable: the benchmark swaps
# lambda_sweep to keep each sweep's result.


def find_multiple(*args, **kwargs):
    """pklap.solvers.find_multiple, imported on the first call."""
    from . import solvers

    return solvers.find_multiple(*args, **kwargs)


def lambda_sweep(*args, **kwargs):
    """pklap.solvers.lambda_sweep, imported on the first call."""
    from . import solvers

    return solvers.lambda_sweep(*args, **kwargs)


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
    _check_output_dirs(args.config, args.values_out, args.summary_out)
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
    _check_output_dirs(args.config, args.output)
    loaded = load_config(args.config)
    if not (0.0 < args.lambda_min < args.lambda_max < math.inf):
        raise ConfigError("the lambda bounds must satisfy 0 < --lambda-min < --lambda-max < inf")
    if args.steps < 2:
        # a one-point grid would be --lambda-min alone, silently dropping --lambda-max
        raise ConfigError("--steps must be >= 2: the grid runs from --lambda-min to --lambda-max")
    try:
        grid = np.linspace(args.lambda_min, args.lambda_max, args.steps)
    except (ValueError, IndexError) as exc:  # numpy's size limits (IndexError at 2**63)
        raise ConfigError("--steps is too large for an array") from exc
    if not (np.diff(grid) > 0.0).all():
        raise ConfigError(
            f"--lambda-min {args.lambda_min!r} and --lambda-max {args.lambda_max!r} are too close "
            f"for --steps {args.steps}: the grid is not strictly increasing in floating point"
        )

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
    _check_output_dirs(args.config, args.output)
    loaded = load_config(args.config)
    prob = loaded.problem
    if args.points < 1:
        raise ConfigError("--points must be >= 1")
    if args.step is not None and not (args.step > 0 and math.isfinite(args.step)):
        raise ConfigError("--step must be positive and finite")

    seed = loaded.solver.seed
    # one call: a larger --points extends the point set
    try:
        points = rng_for(seed, 31).normal(size=(args.points, prob.m, prob.n))
    except ValueError as exc:  # numpy's size limits
        raise ConfigError("--points is too large for an array") from exc
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first main call and reused by
    the later ones in the process (not at import, which would cost every
    import that runs no command)."""
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
