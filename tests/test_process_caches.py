"""Work paid once per process: the CLI parser, the xi descent per (m, n,
p_plus), and the random starts of a solver stage per (seed, starts, dim,
stage key).

Each cache must return what a fresh computation returns, bit for bit, keep
every warning and error of the uncached path, and leave every output file
byte-identical whatever ran before it in the process.
"""

import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pklap.cli as cli
from pklap import analysis, solvers
from pklap.nonlinearities import make_example3
from test_cli import CONFIGS, _bench_check_configs

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def descents(monkeypatch, cold_caches):
    """The list of _xi_descent calls made from here on, caches emptied."""
    calls = []
    real = analysis._xi_descent

    def spy(u0, p_plus, tol, max_iter):
        calls.append((len(u0), p_plus, tol, max_iter))
        return real(u0, p_plus, tol, max_iter)

    monkeypatch.setattr(analysis, "_xi_descent", spy)
    return calls


def _fresh_xi(m, n, p):
    """The descent from xi's 32 starts at seed 0, tolerance 1e-10 and 5000
    steps, run outside the cache."""
    u0 = analysis._unit_directions(analysis.rng_for(0, m, n), 32, (m, n), zero_mean=True)
    vals, converged = analysis._xi_descent(u0, p, 1e-10, 5000)
    return float(vals.min()).hex(), bool(converged.any())


def _bits(result):
    return result[0].hex(), result[1]


def test_a_repeated_xi_key_runs_no_descent(descents):
    fresh = _fresh_xi(8, 1, 3.0)
    del descents[:]
    first = analysis._xi_search(8, 1, 3.0)
    assert len(descents) == 1 and _bits(first) == fresh
    again = [
        analysis._xi_search(8, 1, 3.0),
        analysis._xi_search(np.int64(8), np.int64(1), 3),  # the same key, normalised
        (analysis.xi_constant(8, 1, np.float64(3.0)), True),
        analysis._xi_minimum(8, 1, 3.0),
    ]
    assert len(descents) == 1
    assert all(_bits(result) == fresh for result in again)


@pytest.mark.parametrize(
    "change", [{"m": 9}, {"m": 12}, {"p_plus": 3.5}, {"p_plus": 4.0}, {"n": 2, "p_plus": 1.5}]
)
def test_a_changed_xi_setting_recomputes(descents, change):
    analysis._xi_search(8, 1, 3.0)
    args = dict(m=8, n=1, p_plus=3.0)
    args.update(change)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # (8, 2, 1.5) does not converge
        result = analysis._xi_search(**args)
    assert len(descents) == 2
    assert _bits(result) == _fresh_xi(args["m"], args["n"], args["p_plus"])


def test_closed_forms_never_reach_the_descent(descents):
    assert analysis.xi_constant(8, 1, 2.0) == 2.0 - 2.0 * np.cos(2.0 * np.pi / 8)
    analysis.xi_constant(2, 1, 3.0)
    analysis.xi_constant(8, 2, 3.0)
    assert descents == []


def test_an_unconverged_cached_xi_warns_on_every_call(descents):
    """The warning names the caller's line on every call, also when the
    value comes from the cache."""
    values = []
    for _ in range(3):
        with pytest.warns(RuntimeWarning, match="upper bound") as caught:
            values.append(analysis.xi_constant(8, 1, 1.5).hex())
        assert [w.filename for w in caught] == [__file__]
    assert len(descents) == 1
    assert values == [_fresh_xi(8, 1, 1.5)[0]] * 3


def test_a_failed_xi_call_is_not_cached(descents):
    for _ in range(2):
        with pytest.raises(TypeError):
            analysis._xi_search(8.0, 1, 3.0)
    with pytest.raises(TypeError):
        analysis._xi_search(8, 1.0, 3.0)
    assert analysis._xi_minimum.cache_info().currsize == 0


def test_import_builds_no_parser_and_main_builds_one(tmp_path):
    """In a fresh process: importing the CLI builds no parser, and five
    main calls (usage errors and runs alike) build exactly one."""
    missing = str(tmp_path / "none.json")
    argvs = [[], ["nope"], ["check", missing], ["check", missing, "--bad"], ["gradcheck", missing]]
    script = (
        "import pklap.cli as cli\n"
        "print(cli._build_parser.cache_info().misses)\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "info = cli._build_parser.cache_info()\n"
        "print(info.misses, info.hits, codes)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True, timeout=120
    ).stdout.split("\n")
    assert out[:2] == ["0", "1 4 [1, 1, 1, 1, 1]"]


def test_bad_radii_raise_on_every_call():
    messages = []
    for _ in range(3):
        with pytest.raises(ValueError, match="bound condition") as err:
            make_example3(2, rho1=0.3, rho2=0.5, rho3=0.7)
        messages.append(str(err.value))
    assert len(set(messages)) == 1
    assert messages[0].startswith("bound condition A.9 fails for the chosen radii: [2 rho2^2, 2 rho3^2] = [0.5, ")


def _run_all(configs, out, order):
    """check and a 50-point gradcheck on every config, then solve and a
    two-point sweep of example3_sweep, in the given order; returns the files
    written, by name."""
    argvs = []
    for name, path in configs.items():
        argvs.append(["check", path, "--output", str(out / f"{name}.check.json")])
        argvs.append(["gradcheck", path, "--points", "50", "--output", str(out / f"{name}.grad.json")])
    shipped = str(CONFIGS / "example3_sweep.json")
    argvs.append(["solve", shipped, "--values-out", str(out / "values.csv"),
                  "--summary-out", str(out / "summary.csv")])
    argvs.append(["sweep", shipped, "--lambda-min", "0.1", "--lambda-max", "10", "--steps", "2",
                  "--output", str(out / "sweep.csv")])
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for argv in order(argvs):
            assert cli.main(argv) == cli.EXIT_OK, argv
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_outputs_are_byte_identical_whatever_ran_before(tmp_path, cold_caches):
    """Each order starts from empty caches and runs twice; every file of
    every run equals the first run's, byte for byte."""
    configs = {}
    for name, cfg in _bench_check_configs(5).items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        configs[name] = str(path)
    runs = []
    for order in (list, lambda argvs: argvs[::-1]):
        analysis._xi_minimum.cache_clear()
        solvers._random_starts.cache_clear()
        for _ in range(2):
            runs.append(_run_all(configs, tmp_path / f"run{len(runs)}", order))
    assert len(runs[0]) == 2 * 9 + 3
    assert all(run == runs[0] for run in runs[1:])


def test_a_solve_after_a_sweep_writes_the_bytes_of_a_fresh_process(tmp_path, cold_caches):
    """A two-point sweep of example1_m4 at small lambda leaves the starts
    of three stages in the cache, with the solve's key (seed 0, 16 starts,
    dim 4); the solve that follows takes them from there and draws the
    rest, and writes the files a solve in a fresh interpreter writes."""
    config = str(CONFIGS / "example1_m4.json")

    def solve_argv(out):
        out.mkdir()
        return ["solve", config, "--values-out", str(out / "values.csv"), "--summary-out", str(out / "summary.csv")]

    fresh = solve_argv(tmp_path / "fresh")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "pklap.cli", *fresh], capture_output=True, env=env, check=True, timeout=120)
    after = solve_argv(tmp_path / "after")
    sweep = ["sweep", config, "--lambda-min", "0.01", "--lambda-max", "0.02", "--steps", "2",
             "--output", str(tmp_path / "sweep.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert cli.main(sweep) == cli.EXIT_OK
        before = solvers._random_starts.cache_info()
        assert cli.main(after) == cli.EXIT_OK
    info = solvers._random_starts.cache_info()
    assert before.currsize == 3 and info.hits - before.hits == 3 and info.currsize == 11
    for name in ("values.csv", "summary.csv"):
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
