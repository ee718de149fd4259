"""Independent checks of the files one CLI call wrote.

Each check returns (ok, records, reason).  `records` counts the verified
output records the call wrote: distinct solutions for sweep, verdict
entries for check, and sampled points for gradcheck.  Every solution is
re-evaluated with `residual_values` from the package under test, so a
record that does not solve the system is caught even when the solver
believed it did.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

C_CHECKS = ("C.1", "C.2", "C.3")


def file_hashes(paths) -> tuple:
    out = []
    for path in paths:
        with open(path, "rb") as fh:
            out.append(hashlib.sha256(fh.read()).hexdigest())
    return tuple(out)


def _distinct(points: list[np.ndarray], tol: float) -> bool:
    """No two points are duplicates under the solver's own distance rule."""
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
            if float(np.linalg.norm(a - b)) <= tol * scale:
                return False
    return True


def _verify_points(pk, prob, points, cfg) -> str:
    """Empty string when every point solves prob and they are distinct."""
    for i, u in enumerate(points):
        seq = pk.PeriodicSequence(u)
        try:
            norm = float(np.linalg.norm(pk.operators.residual_values(seq, prob)))
        except pk.EvaluationError as exc:
            return f"record {i}: residual evaluation failed: {exc}"
        if not norm <= cfg.residual_tol:
            return f"record {i}: residual norm {norm:.3e} above {cfg.residual_tol:.1e}"
    if not _distinct(points, cfg.dedupe_tol):
        return "two records are duplicates"
    return ""


def check_sweep(pk, loaded, outputs, result) -> tuple[bool, int, str]:
    """result is the SweepResult the CLI call produced (captured in-process)."""
    (path,) = outputs
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    failed = [line for line in lines if line.startswith("# failed:")]
    if failed:
        return False, 0, f"{len(failed)} failed grid point(s): {failed[0]}"
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    if result is None or len(rows) != len(result.solution_sets):
        return False, 0, "sweep rows do not match the computed grid"
    total = 0
    for row, lam, sol in zip(rows, result.lambda_grid, result.solution_sets):
        if int(row[1]) != len(sol.records):
            return False, 0, f"lambda={lam}: count {row[1]} but {len(sol.records)} records"
        points = [np.array(rec.u.values) for rec in sol.records]
        reason = _verify_points(pk, loaded.problem.with_lambda(lam), points, loaded.solver)
        if reason:
            return False, 0, f"lambda={lam}: {reason}"
        total += len(points)
    return True, total, ""


def check_report(pk, loaded, outputs) -> tuple[bool, int, str]:
    """The norm inequalities C.1-C.3 are theorems, and xi has a closed form at p = 2."""
    (path,) = outputs
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    verdicts = {r["name"]: r["verdict"] for r in report["reports"]}
    for name in C_CHECKS:
        if verdicts.get(name) != pk.HOLDS:
            return False, 0, f"{name} verdict {verdicts.get(name)!r}"
    xi = report["xi"]
    if not (isinstance(xi, float) and math.isfinite(xi) and xi > 0.0):
        return False, 0, f"xi = {xi!r} is not a positive number"
    if report["p_plus"] == 2.0:
        exact = 2.0 - 2.0 * math.cos(2.0 * math.pi / report["m"])
        if abs(xi - exact) > 1e-12 * exact:
            return False, 0, f"xi = {xi!r}, closed form {exact!r}"
    return True, len(report["reports"]), ""


def check_gradcheck(pk, loaded, outputs) -> tuple[bool, int, str]:
    (path,) = outputs
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    err = report["max_relative_error"]
    if report["passed"] is not True or not err <= report["tolerance"]:
        return False, 0, f"gradient error {err!r} above {report['tolerance']!r}"
    return True, report["points"], ""
