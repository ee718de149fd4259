"""Write the CLI outputs of the shipped configs to one directory.

    python tools/snapshot_outputs.py OUTDIR
    python tools/snapshot_outputs.py --manifest

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

With --manifest it writes the snapshot to a temporary directory instead
and records it in tests/golden/outputs.json (manifest() below), which
tests/test_golden_outputs.py checks: a change that moves an output commits
the new manifest with it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.workloads import GRADCHECK_POINTS, check_configs  # noqa: E402

CONFIGS = ("example1_m4", "example2_m3", "example3_sweep", "power_borderline")
CHECK_SEEDS = (1, 2)
MANIFEST = os.path.join(ROOT, "tests", "golden", "outputs.json")


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


def versions() -> dict:
    """The Python and numpy versions that outputs are made with."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def _line_digests(data: bytes) -> str:
    """The first 8 hex digits of the sha256 of each line (with its ending)."""
    return " ".join(hashlib.sha256(line).hexdigest()[:8] for line in data.splitlines(keepends=True))


def manifest(outdir: str) -> dict:
    """The manifest of a snapshot: the versions it was made with and, per
    file, its byte size, its sha256 and a short digest of each line, from
    which moved_files() finds the first line that differs."""
    files = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        files[name] = {
            "size": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "lines": _line_digests(data),
        }
    return {**versions(), "files": files}


def moved_files(expected: dict, outdir: str) -> list[str]:
    """One line per file of the snapshot in outdir that differs from the
    manifest expected, or that only one of them holds, in name order; a
    differing file names its first differing line (1-based) and shows that
    line of outdir's file."""
    got = manifest(outdir)["files"]
    want = expected["files"]
    out = []
    for name in sorted(set(got) | set(want)):
        if name not in got:
            out.append(f"{name}: missing")
        elif name not in want:
            out.append(f"{name}: not in the manifest")
        elif got[name]["sha256"] != want[name]["sha256"]:
            a, b = want[name]["lines"].split(), got[name]["lines"].split()
            i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            with open(os.path.join(outdir, name), "rb") as fh:
                lines = fh.read().splitlines()
            shown = lines[i].decode("utf-8", "replace")[:120] if i < len(lines) else "<end of file>"
            out.append(
                f"{name}: {want[name]['size']} -> {got[name]['size']} bytes, "
                f"{len(a)} -> {len(b)} lines, first differing line {i + 1}: {shown}"
            )
    return out


def write_snapshot(outdir: str) -> int:
    """Run every command of _commands in its own process, writing into
    outdir; 1 when a command fails, else 0."""
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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/snapshot_outputs.py OUTDIR | --manifest", file=sys.stderr)
        return 2
    if argv[0] != "--manifest":
        return write_snapshot(os.path.abspath(argv[0]))
    with tempfile.TemporaryDirectory() as outdir:
        status = write_snapshot(outdir)
        if status == 0:
            os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
            with open(MANIFEST, "w", encoding="utf-8") as fh:
                json.dump(manifest(outdir), fh, indent=1)
                fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
