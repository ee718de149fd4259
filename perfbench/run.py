"""pklap benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload sweep_bounded --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the root of a checkout; the package is imported from `src/`.
With --trace 0 the run makes workloads.REPEATS passes over the seeded
instances of the workload, checks every output, and reports the
end-to-end metrics.  With --trace 1 it reports the per-layer metrics of
one untraced and two traced passes over the first instance (see README.md
in this directory).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `--workload all` runs every
workload, each in a fresh process, one after the other.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: load comes from this one process only.  Must be
# set before numpy is first imported.
THREAD_PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

# Set-up is sampled this many times in a timed run, in equal shares before
# its passes; the median is reported.
SETUP_SAMPLES = 12

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "records": "count",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package source, bad arguments)."""


def _commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "thread_pin": THREAD_PIN,
        "seed": seed,
    }


def _drop_package() -> None:
    for name in [n for n in sys.modules if n == "pklap" or n.startswith("pklap.")]:
        del sys.modules[name]


def setup(config_paths, samples: int) -> tuple[list[tuple], object, dict]:
    """Times `samples` rounds of `import pklap` plus load_config of every config.

    Each round imports the package afresh (its modules are dropped from
    sys.modules first); numpy is imported before the first round because
    it is a dependency, not part of the package's set-up.  Returns the
    (start, end) of each round and the last round's package and loaded
    configs.
    """
    import numpy  # noqa: F401

    if not os.path.isfile(os.path.join(SRC, "pklap", "__init__.py")):
        raise BenchError(f"no package source at {SRC}/pklap")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    windows = []
    for _ in range(samples):
        _drop_package()
        t0 = time.perf_counter()
        pk = importlib.import_module("pklap")
        cli = importlib.import_module("pklap.cli")
        loaded = {path: cli.load_config(path) for path in config_paths}
        windows.append((t0, time.perf_counter()))
    if not os.path.abspath(pk.__file__).startswith(os.path.join(SRC, "pklap")):
        raise BenchError(f"pklap imported from {pk.__file__}, not from {SRC}")
    return windows, pk, loaded


class SweepCapture:
    """Keeps the SweepResult of each `pklap sweep` call for the output checks."""

    def __init__(self, cli):
        self.cli = cli
        self.results = []
        self.original = cli.lambda_sweep

    def __enter__(self):
        def capture(*args, **kwargs):
            out = None
            try:
                out = self.original(*args, **kwargs)
                return out
            finally:
                self.results.append(out)

        self.cli.lambda_sweep = capture
        return self

    def __exit__(self, *exc):
        self.cli.lambda_sweep = self.original


def run_pass(pk, ops) -> tuple[list[tuple], list[int], list]:
    """Run every op once; returns ((start, end) per op, exit codes, sweep results)."""
    cli = sys.modules["pklap.cli"]
    windows, codes = [], []
    with SweepCapture(cli) as capture, contextlib.redirect_stdout(io.StringIO()):
        for op in ops:
            gc.collect()
            t0 = time.perf_counter()
            codes.append(cli.main(list(op.argv)))
            windows.append((t0, time.perf_counter()))
    sweeps = iter(capture.results)
    results = [next(sweeps, None) if op.kind == "sweep" else None for op in ops]
    return windows, codes, results


def elapsed(windows) -> float:
    return sum(t1 - t0 for t0, t1 in windows)


def check_pass(pk, ops, loaded, codes, sweep_results, reference) -> tuple[int, int, list, list]:
    """Checks one pass's outputs; returns (failed, records, hashes, reasons).

    reference is the first pass's hashes (None on the first pass): a rerun
    of the same op that is not byte-identical fails.
    """
    failed, records, hashes, reasons = 0, 0, [], []
    for i, (op, code, result) in enumerate(zip(ops, codes, sweep_results)):
        if code != 0:
            ok, n, reason = False, 0, f"exit code {code}"
        else:
            try:
                if op.kind == "sweep":
                    ok, n, reason = checks.check_sweep(pk, loaded[op.config], op.outputs, result)
                elif op.kind == "check":
                    ok, n, reason = checks.check_report(pk, loaded[op.config], op.outputs)
                else:
                    ok, n, reason = checks.check_gradcheck(pk, loaded[op.config], op.outputs)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                ok, n, reason = False, 0, f"unreadable output: {exc!r}"
        digest = checks.file_hashes(op.outputs) if code == 0 else None
        hashes.append(digest)
        if ok and reference is not None and digest != reference[i]:
            ok, reason = False, "rerun with the same seed is not byte-identical"
        if not ok:
            failed += 1
            reasons.append(f"{op.kind} {os.path.basename(op.config)}: {reason}")
        records += n
    return failed, records, hashes, reasons


def measure(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    """workloads.REPEATS passes over the run's seeded instances; every call
    is checked, and its outputs must be byte-identical to the same call's
    in the first pass.

    wall_s is the mean over instances of one instance's wall time, each CLI
    call timed load-corrected (probe.py) and taken at its median over the
    passes (the fastest would favour the passes whose correction
    overshot).  records is the total over the first pass.  The
    SETUP_SAMPLES set-up samples, load-corrected too, are split between the
    passes, so that their median sees the same machine as the calls do;
    each pass runs on the package imported by the samples before it.
    """
    count = workloads.instances(workload, seconds)
    ops = workloads.BUILDERS[workload](seed, count, workdir)
    configs = sorted({op.config for op in ops})
    repeats = workloads.REPEATS
    setup_times, corrected, raw = [], [], []
    failed, records, reasons, reference = 0, 0, [], None
    with SpeedProbe() as speed:
        for _ in range(repeats):
            windows, pk, loaded = setup(configs, SETUP_SAMPLES // repeats)
            setup_times += speed.corrected(windows)
            windows, codes, sweeps = run_pass(pk, ops)
            corrected.append(speed.corrected(windows))
            raw.append([t1 - t0 for t0, t1 in windows])
            n_failed, n_records, hashes, why = check_pass(pk, ops, loaded, codes, sweeps, reference)
            failed += n_failed
            reasons += why
            if reference is None:
                reference, records = hashes, n_records
    attempted = len(ops) * repeats
    metrics = {
        "wall_s": sum(map(statistics.median, zip(*corrected))) / count,
        "setup_s": statistics.median(setup_times),
        "records": records,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "reasons": reasons,
        "info": {
            "uncorrected wall_s": sum(map(statistics.median, zip(*raw))) / count,
            "probe mean s": statistics.mean(speed.durations),
            "probe samples": len(speed.durations),
        },
    }


def trace(workload: str, seed: int, workdir: str) -> dict:
    """Ladders, then one untraced and two traced passes over the run's first
    seeded instance; the two traced passes must give identical counts."""
    ops = workloads.BUILDERS[workload](seed, 1, workdir)
    _, pk, loaded = setup(sorted({op.config for op in ops}), 1)
    ladder = layers.ladders(pk, seed)

    windows, codes, sweeps = run_pass(pk, ops)
    untraced = elapsed(windows)
    n_failed, _, reference, why = check_pass(pk, ops, loaded, codes, sweeps, None)
    attempted, failed, reasons = len(ops), n_failed, why

    runs = []
    for _ in range(2):
        tr = Tracer()
        tr.install()
        try:
            windows, codes, sweeps = run_pass(pk, ops)
        finally:
            tr.uninstall()
        n_failed, _, _, why = check_pass(pk, ops, loaded, codes, sweeps, reference)
        attempted += len(ops)
        failed += n_failed
        reasons += why
        runs.append((elapsed(windows), tr, layers.per_layer(tr)))

    (wall, tr, metrics), (_, _, again) = runs
    attempted += 1
    differing = layers.count_mismatches(metrics, again)
    if differing:
        failed += 1
        reasons.append(f"traced counts differ between two passes: {differing}")
    metrics.update(ladder)
    metrics.update(layers.overhead(untraced, wall, tr))
    tr.save(os.path.join(OUT, f"trace-{workload}-seed{seed}.npz"))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "reasons": reasons,
    }


def _format(value) -> str:
    if value is None:
        return "missing"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_one(args) -> int:
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with warnings.catch_warnings():
            # hessian_fd and the growth profiles warn on the shipped
            # problems; the traced run counts the asymmetry warnings.
            warnings.simplefilter("ignore", RuntimeWarning)
            if args.trace:
                result = trace(args.workload, args.seed, workdir)
            else:
                result = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("env: " + json.dumps(_environment(args.seed), sort_keys=True))
    print(f"workload: {args.workload} ({workloads.WHY[args.workload]})")
    for reason in result.pop("reasons"):
        print(f"FAILED: {reason}")
    for name, value in result.pop("info", {}).items():
        print(f"info {name} = {_format(value)}")
    for name, entry in result["metrics"].items():
        print(f"metric {name} = {_format(entry['value'])} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, so set-up and peak RSS are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.BUILDERS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(args.trace)),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"workload {workload} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
