"""Workload definitions: configs generated from the run's seed, and the CLI
calls that make one pass over them.

Every input the program sees is written here from `--seed`; the shipped
`configs/` are mirrored (same problem data) rather than read, so the
benchmark's inputs change only when this file does.  The seed reaches the
program through each config's `seed` field.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random

# Sizes, shrunk from the shipped defaults so one instance takes seconds.
# Two grid points, lambda = 0.1 and 10, at the shipped 8 starts.  Below
# lambda = 2 example3 has only the trivial solution, so the warm pool handed
# to lambda = 10 holds one point, and the known set there grows from the
# 8 starts alone (to about 56).  A real warm pool makes the run unsteady:
# the seed-to-seed spread of a sweep's work compounds along the grid, and
# with it the deflation (O(K)) and dedupe (O(K^2)) costs.  Residual
# evaluations per sweep vary 4 % here, 8 % over lambda = 3, 10 at 4 starts
# (warm pool about 37) and 13 % over lambda = 0.1, 5.05, 10.
SWEEP_STARTS = 8
SWEEP_STEPS = 2
SWEEP_LAMBDA = (0.1, 10.0)
GRADCHECK_POINTS = 50
# Period of the largest power config of a check batch (xi_constant's
# projected descent grows fast with m: about 8 s at m = 16, 5 s at m = 12).
CHECK_POWER_M = 12

# Every CLI call of a timed run is made REPEATS times, in REPEATS passes
# over the run's calls, and its load-corrected time (see probe.py) is the
# median over the passes.  At least 2: later passes must reproduce the
# first's outputs byte for byte.
REPEATS = 3

# Seconds one instance (one sweep, one nine-config check batch) takes on a
# 2-core x86-64 box.  A run of --seconds S holds
# round(S / (REPEATS * INSTANCE_SECONDS)) seeded instances, at least one, so
# the instance count and the inputs depend only on the seed and S, never on
# the speed of the program.
INSTANCE_SECONDS = {
    "sweep_bounded": 2.0,
    "check_batch": 10.0,
}

# Period of the traced per-layer ladders (residual, FD Jacobian, FD Hessian).
LADDER_M = (8, 32, 128, 256)

# Power family of the ladders: the one a large-m solve converges on (Newton
# fails at s = r = 4 or lambda >= 1).
LADDER_POWER = {"a": 1.0, "b": 1.0, "s": 3.0, "r": 2.0}
LADDER_LAMBDA = 0.1

WHY = {
    "sweep_bounded": "example3 lambda sweep on the zero-mean subspace: Newton, deflation "
    "and dedupe over a known set growing to about 56 dominate",
    "check_batch": "check plus gradcheck over nine configs: the analysis layer only, "
    "no Newton, so solver changes should not move it",
}


@dataclasses.dataclass(frozen=True)
class Op:
    """One CLI call of a pass, with what its outputs must satisfy."""

    kind: str  # sweep | check | gradcheck
    instance: int  # index of the seeded instance the call belongs to
    config: str  # path of the generated config
    argv: tuple  # arguments for pklap.cli.main
    outputs: tuple  # files the call writes, hashed for the rerun check


def _sub_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def _write(workdir: str, name: str, cfg: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    return path


# The shipped configs, without their seed.
EXAMPLE1_M4 = {
    "m": 4, "n": 1, "p": 2, "lambda": 1.0,
    "nonlinearity": {"builtin": "example1", "params": {}},
}
EXAMPLE2_M3 = {
    "m": 3, "n": 1, "p": 2, "lambda": 1.0,
    "nonlinearity": {"builtin": "example2", "params": {}},
    "solver": {"starts": 64},
}
EXAMPLE3_SWEEP = {
    "m": 2, "n": 1, "p": [2, 2], "lambda": 1.0,
    "nonlinearity": {"builtin": "example3", "params": {}},
    "solver": {"starts": 8},
    "subspace": "Y",
}
POWER_BORDERLINE = {
    "m": 2, "n": 1, "p": [2, 2], "lambda": 5.0,
    "nonlinearity": {"builtin": "power", "params": {"a": 1.0, "b": 1.0, "s": 2.0, "r": 2.0}},
}


def instances(workload: str, seconds: float) -> int:
    return max(1, round(seconds / (REPEATS * INSTANCE_SECONDS[workload])))


def sweep_bounded(seed: int, count: int, workdir: str) -> list[Op]:
    ops = []
    for i, s in enumerate(_sub_seeds(seed, count)):
        name = f"sweep_bounded_{i}"
        cfg = dict(EXAMPLE3_SWEEP, solver={"starts": SWEEP_STARTS}, seed=s)
        path = _write(workdir, name, cfg)
        out = os.path.join(workdir, name + ".csv")
        argv = (
            "sweep", path, "--lambda-min", str(SWEEP_LAMBDA[0]), "--lambda-max", str(SWEEP_LAMBDA[1]),
            "--steps", str(SWEEP_STEPS), "--output", out,
        )
        ops.append(Op("sweep", i, path, argv, (out,)))
    return ops


def _variable_p(m: int) -> list[float]:
    return [(2.0, 2.5, 3.0)[k % 3] for k in range(m)]


def _power_varp(m: int) -> dict:
    return {
        "m": m, "n": 1, "p": _variable_p(m), "lambda": 1.0,
        "nonlinearity": {"builtin": "power", "params": {"a": 1.0, "b": 1.0, "s": 3.0, "r": 3.0}},
    }


def check_configs(seed: int) -> dict[str, dict]:
    """The four shipped configs plus five larger or variable-p ones."""
    cfgs = {
        "example1_m4": EXAMPLE1_M4,
        "example2_m3": EXAMPLE2_M3,
        "example3_sweep": EXAMPLE3_SWEEP,
        "power_borderline": POWER_BORDERLINE,
        "example1_m8_varp": dict(EXAMPLE1_M4, m=8, p=_variable_p(8)),
        "example2_m9": dict(EXAMPLE2_M3, m=9),
        "example3_m8_Y": dict(EXAMPLE3_SWEEP, m=8, p=2),
        "power_m8_varp": _power_varp(8),
        f"power_m{CHECK_POWER_M}_varp": _power_varp(CHECK_POWER_M),
    }
    seeds = _sub_seeds(seed, len(cfgs))
    return {name: dict(cfgs[name], seed=s) for name, s in zip(sorted(cfgs), seeds)}


def check_batch(seed: int, count: int, workdir: str) -> list[Op]:
    ops = []
    for i, batch_seed in enumerate(_sub_seeds(seed, count)):
        for name, cfg in check_configs(batch_seed).items():
            name = f"b{i}_{name}"
            path = _write(workdir, name, cfg)
            report = os.path.join(workdir, name + ".check.json")
            ops.append(Op("check", i, path, ("check", path, "--output", report), (report,)))
            grad = os.path.join(workdir, name + ".gradcheck.json")
            argv = ("gradcheck", path, "--points", str(GRADCHECK_POINTS), "--output", grad)
            ops.append(Op("gradcheck", i, path, argv, (grad,)))
    return ops


BUILDERS = {
    "sweep_bounded": sweep_bounded,
    "check_batch": check_batch,
}
