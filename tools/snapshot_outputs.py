"""Write the CLI outputs of the shipped configs to one directory.

    python tools/snapshot_outputs.py OUTDIR

For each config in configs/ it runs `solve` (values and summary CSV),
`check` (JSON) and a 50-point `gradcheck` (JSON); it also runs a 25-step
`sweep` of example3_sweep over lambda in [0.1, 10].  The sweep CSV holds
only counts and minimum actions, so it also runs `solve` on example3_sweep
at lambda = 10 with 8 starts (the benchmark's sweep point), whose values
CSV holds every record's bits.  It then runs `check` and a 50-point
`gradcheck` on the nine configs of the benchmark's check batch,
`perfbench.workloads.check_configs(seed)`, at seeds 1 and 2, and `check` on
power_borderline raised to p = 1100, where mu, the thresholds and the C.3
right-hand side overflow (infinite thresholds and C.3 margin), and
`check` on example3 at m = 4, p = 1100 on the zero-mean subspace, where
mu overflows at twice the level radius of B.2/B.3 and of lambda-star,
which are found without evaluating mu, and `check` on the power
family at m = 2, p = 60, where mu in the anti-coercivity probe's table
reaches 3.6e187 without overflowing, and `check` on the same family at m = 8, p = 1.5, where no
start of the xi descent converges and xi is reported as an upper bound
(`xi_converged` false).  Last, it runs `solve` (values and summary CSV) on
the check batch's seed-1 power_m8_varp config, so that Newton at a
variable p(k) is covered too: 61 files in all.  The generated configs are written to a
temporary directory, not to OUTDIR; the benchmark configs are imported,
not copied.  The commands run against the src/ of the checkout this
script sits in, so two checkouts give two snapshots, and `diff -r` between
them shows any output that changed.
stdout is discarded because it holds the output paths; stderr is passed
through.  Exits 1 when a command fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.workloads import GRADCHECK_POINTS, check_configs  # noqa: E402

CONFIGS = ("example1_m4", "example2_m3", "example3_sweep", "power_borderline")
CHECK_SEEDS = (1, 2)


def _commands(outdir: str, cfgdir: str) -> list[list[str]]:
    cmds = []
    for name in CONFIGS:
        config = os.path.join(ROOT, "configs", name + ".json")
        out = os.path.join(outdir, name)
        cmds.append(
            ["solve", config, "--values-out", out + ".values.csv", "--summary-out", out + ".summary.csv"]
        )
        cmds.append(["check", config, "--output", out + ".check.json"])
        cmds.append(["gradcheck", config, "--points", "50", "--output", out + ".gradcheck.json"])
    config = os.path.join(ROOT, "configs", "example3_sweep.json")
    cmds.append(
        ["sweep", config, "--lambda-min", "0.1", "--lambda-max", "10", "--steps", "25",
         "--output", os.path.join(outdir, "example3_sweep.sweep.csv")]
    )
    with open(config, encoding="utf-8") as fh:
        cfg = dict(json.load(fh), solver={"starts": 8})
    cfg["lambda"] = 10.0
    config = os.path.join(cfgdir, "example3_lam10.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    out = os.path.join(outdir, "example3_lam10")
    cmds.append(
        ["solve", config, "--values-out", out + ".values.csv", "--summary-out", out + ".summary.csv"]
    )
    with open(os.path.join(ROOT, "configs", "power_borderline.json"), encoding="utf-8") as fh:
        cfg = dict(json.load(fh), p=1100)
    config = os.path.join(cfgdir, "power_p1100.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    cmds.append(["check", config, "--output", os.path.join(outdir, "power_p1100.check.json")])
    cfg = {"m": 4, "p": 1100, "nonlinearity": {"builtin": "example3"}, "subspace": "Y", "seed": 3,
           "lambda": 1}
    config = os.path.join(cfgdir, "example3_p1100.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    cmds.append(["check", config, "--output", os.path.join(outdir, "example3_p1100.check.json")])
    cfg = {"m": 2, "n": 1, "p": [60, 60], "lambda": 5.0, "seed": 3,
           "nonlinearity": {"builtin": "power", "params": {"a": 1.0, "b": 1.0, "s": 2.0, "r": 2.0}}}
    config = os.path.join(cfgdir, "power_p60.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    cmds.append(["check", config, "--output", os.path.join(outdir, "power_p60.check.json")])
    cfg = dict(cfg, m=8, p=1.5)
    config = os.path.join(cfgdir, "power_m8_p1.5.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    cmds.append(["check", config, "--output", os.path.join(outdir, "power_m8_p1.5.check.json")])
    for seed in CHECK_SEEDS:
        for name, cfg in check_configs(seed).items():
            name = f"bench_s{seed}_{name}"
            config = os.path.join(cfgdir, name + ".json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=1, sort_keys=True)
            out = os.path.join(outdir, name)
            cmds.append(["check", config, "--output", out + ".check.json"])
            cmds.append(
                ["gradcheck", config, "--points", str(GRADCHECK_POINTS),
                 "--output", out + ".gradcheck.json"]
            )
    # Newton at variable p(k): solve the seed-1 power_m8_varp config written above
    out = os.path.join(outdir, "bench_s1_power_m8_varp")
    cmds.append(
        ["solve", os.path.join(cfgdir, "bench_s1_power_m8_varp.json"),
         "--values-out", out + ".values.csv", "--summary-out", out + ".summary.csv"]
    )
    return cmds


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/snapshot_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = os.path.abspath(argv[0])
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    status = 0
    with tempfile.TemporaryDirectory() as cfgdir:
        for cmd in _commands(outdir, cfgdir):
            proc = subprocess.run(
                [sys.executable, "-m", "pklap.cli", *cmd], env=env, stdout=subprocess.DEVNULL
            )
            if proc.returncode != 0:
                print(f"exit {proc.returncode}: pklap {' '.join(cmd)}", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
