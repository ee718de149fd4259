import filecmp
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pklap.analysis as analysis
import pklap.cli as cli
from pklap.core import EvaluationError, ExponentFunction, Problem, _row_norms
from pklap.nonlinearities import BuiltinSpec, make_builtin
from pklap.operators import _residual_rows
from pklap.solvers import SolutionSet

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

_H, _V = "holds_on_samples", "violated"
_C = [("C.1", _H), ("C.2", _H), ("C.3", _H)]
SHIPPED_VERDICTS = {
    "example1_m4": _C + [("A.4", _H), ("A.5", _H), ("A.6.1", _V), ("A.6.2", _V), ("A.6.3", _H),
                         ("anticoercivity", _H)],
    "example2_m3": _C + [("A.4", _H), ("A.5", _H), ("A.6.1", _H), ("A.6.2", _H), ("A.6.3", _H),
                         ("anticoercivity", _V)],
    "example3_sweep": _C + [("A.7", _H), ("A.8", _H), ("A.9", _H), ("B.2", _H), ("B.3", _H)],
    "power_borderline": _C + [("A.4", _H), ("A.5", _H), ("A.6.1", _V), ("A.6.2", _V), ("A.6.3", _V),
                              ("anticoercivity", _H)],
}
# The benchmark's larger and variable-p configs share the verdicts of the
# shipped config they grow from.
BENCH_VERDICTS = dict(
    SHIPPED_VERDICTS,
    example1_m8_varp=SHIPPED_VERDICTS["example1_m4"],
    example2_m9=SHIPPED_VERDICTS["example2_m3"],
    example3_m8_Y=SHIPPED_VERDICTS["example3_sweep"],
    power_m8_varp=SHIPPED_VERDICTS["power_borderline"],
    power_m12_varp=SHIPPED_VERDICTS["power_borderline"],
)


def _bench_check_configs(seed):
    """perfbench.workloads.check_configs(seed), loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench.workloads", CONFIGS.parent / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.check_configs(seed)


def _config(tmp_path, name="cfg.json", **overrides):
    base = {
        "m": 2,
        "p": 2.0,
        "lambda": 5.0,
        "nonlinearity": {
            "builtin": "power",
            "params": {"a": 1.0, "b": 1.0, "s": 2.0, "r": 2.0},
        },
        "solver": {"starts": 6},
        "seed": 0,
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return str(path)


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        loaded = cli.load_config(_config(tmp_path))
        assert loaded.problem.m == 2
        assert loaded.problem.lam == 5.0
        assert loaded.builtin.name == "power"
        assert loaded.solver.starts == 6
        assert loaded.subspace == "H_m"

    def test_scalar_p_broadcasts(self, tmp_path):
        loaded = cli.load_config(_config(tmp_path, m=4, p=2.5, nonlinearity={
            "builtin": "example1"
        }))
        assert list(loaded.problem.exponent.values) == [2.5] * 4

    def test_top_level_seed_reaches_solver(self, tmp_path):
        loaded = cli.load_config(_config(tmp_path, seed=9))
        assert loaded.solver.seed == 9
        # an explicit solver seed wins over the top-level one
        loaded = cli.load_config(
            _config(tmp_path, seed=9, solver={"starts": 4, "seed": 2})
        )
        assert loaded.solver.seed == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"m": 1},
            {"m": True},
            {"m": "2"},
            {"p": [2.0, 2.0, 2.0]},
            {"p": "quadratic"},
            {"p": 0.5},
            {"lambda": "big"},
            {"lambda": -1.0},
            {"nonlinearity": {"builtin": "no_such"}},
            {"nonlinearity": {"params": {}}},
            {"nonlinearity": {"builtin": "power", "extra": 1}},
            {"solver": {"starts": 6, "bogus": 1}},
            {"solver": "fast"},
            {"subspace": "W"},
            {"seed": 1.5},
            {"n": 0},
            {"typo_key": 1},
            {"p": 1},
            {"p": [2, 1]},
            {"solver": {"use_mountain_pass": False}},
            {"solver": {"path_points": 21}},
            {"solver": {"starts": 2.5}},
            {"solver": {"starts": True}},
            {"solver": {"max_iterations": 50}},
            {"solver": {"seed": 1.5}},
            {"solver": {"residual_tol": math.inf}},
            {"solver": {"dedupe_tol": math.inf}},
            {"solver": {"deflation_power": 2.0}},
            {"solver": {"deflation_shift": 1.0}},
            {"solver": {"regularization_eps": 0.001}},
            {"solver": {"start_radius": 3.0}},
            {"nonlinearity": {"builtin": "example3", "params": {"rho3": math.inf}}},
            {"nonlinearity": {"builtin": "example3", "params": {"C": math.inf}}},
            {"seed": 2**32},
            {"seed": -1},
            {"solver": {"seed": 2**32 + 7}},
        ],
    )
    def test_invalid_configs_rejected(self, tmp_path, overrides):
        with pytest.raises(cli.ConfigError):
            cli.load_config(_config(tmp_path, **overrides))

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"m": 2, "p": 2.0, "lambda": 1.0}))
        with pytest.raises(cli.ConfigError, match="nonlinearity"):
            cli.load_config(str(path))

    def test_unreadable_and_malformed_files(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="cannot read"):
            cli.load_config(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(cli.ConfigError, match="not valid JSON"):
            cli.load_config(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(cli.ConfigError, match="JSON object"):
            cli.load_config(str(arr))


# every output of the four subcommands, with the step its command computes
OUTPUTS = pytest.mark.parametrize(
    "command,flag,computation",
    [
        ("check", "--output", "_check_payload"),
        ("solve", "--values-out", "find_multiple"),
        ("solve", "--summary-out", "find_multiple"),
        ("sweep", "--output", "lambda_sweep"),
        ("gradcheck", "--output", "_gradcheck_errors"),
    ],
)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["check", str(tmp_path / "none.json")])
        assert code == cli.EXIT_CONFIG
        assert "configuration" in capsys.readouterr().err

    @OUTPUTS
    def test_missing_output_directory_fails_before_computing(
        self, tmp_path, monkeypatch, capsys, command, flag, computation
    ):
        """An output whose directory does not exist is a usage error, found
        before the command computes anything (before, check ran in full and
        then exited 3 with a FileNotFoundError traceback)."""
        monkeypatch.setattr(cli, computation, lambda *a, **k: pytest.fail(f"{computation} ran"))
        missing = tmp_path / "absent"
        argv = [command, _config(tmp_path), flag, str(missing / "out")]
        if command == "sweep":
            argv += ["--lambda-min", "1", "--lambda-max", "2"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err and "Traceback" not in err
        assert not missing.exists()

    @OUTPUTS
    @pytest.mark.parametrize("form", ["existing", "existing_slash", "absent_slash"])
    def test_directory_output_fails_before_computing(
        self, tmp_path, monkeypatch, capsys, command, flag, computation, form
    ):
        """An output path that names a directory is a usage error, found
        before the command computes anything (before, check ran in full and
        then exited 3 with an IsADirectoryError traceback, or with a
        NotADirectoryError one for a trailing slash)."""
        monkeypatch.setattr(cli, computation, lambda *a, **k: pytest.fail(f"{computation} ran"))
        cfg = _config(tmp_path)
        target = tmp_path / "out"
        if form != "absent_slash":
            target.mkdir()
        out = str(target) + (os.sep if form.endswith("slash") else "")
        argv = [command, cfg, flag, out]
        if command == "sweep":
            argv += ["--lambda-min", "1", "--lambda-max", "2"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: output path names a directory: {out}\n"
        assert sorted(path.name for path in tmp_path.rglob("*")) == sorted(
            ["cfg.json"] + (["out"] if form != "absent_slash" else [])
        )

    @pytest.mark.parametrize("summary", ["x.csv", os.path.join(".", "x.csv")])
    def test_solve_outputs_naming_one_file_fail_before_computing(
        self, tmp_path, monkeypatch, capsys, summary
    ):
        """--values-out and --summary-out that name one file, spelled alike
        or not, are a usage error found before solving (before, the summary
        was written over the values and solve exited 0)."""
        monkeypatch.setattr(cli, "find_multiple", lambda *a, **k: pytest.fail("find_multiple ran"))
        cfg = _config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        summary = str(out / summary)
        argv = ["solve", cfg, "--values-out", str(out / "x.csv"), "--summary-out", summary]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: two outputs name the same file: {summary}\n"
        assert not any(out.iterdir())

    @OUTPUTS
    @pytest.mark.parametrize("spelling", ["cfg.json", os.path.join(".", "cfg.json")])
    def test_an_output_naming_the_config_fails_before_loading(
        self, tmp_path, monkeypatch, capsys, command, flag, computation, spelling
    ):
        """An output that names the configuration file, spelled alike or
        not, is a usage error found before the config is loaded, and the
        config keeps its bytes (before, the report was written over it and
        the command exited 0)."""
        monkeypatch.setattr(cli, "load_config", lambda *a, **k: pytest.fail("load_config ran"))
        cfg = pathlib.Path(_config(tmp_path))
        before = cfg.read_bytes()
        monkeypatch.chdir(tmp_path)
        outputs = {"--values-out": "v.csv", "--summary-out": "s.csv"} if command == "solve" else {}
        outputs[flag] = spelling
        argv = [command, "cfg.json"] + [arg for item in outputs.items() for arg in item]
        if command == "sweep":
            argv += ["--lambda-min", "1", "--lambda-max", "2"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: output path names the configuration file: {spelling}\n"
        assert cfg.read_bytes() == before
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids="{:03o}".format)
    def test_outputs_get_the_mode_open_gives(self, tmp_path, umask):
        """Every output file has the mode a plain open(path, "w") gives
        under the umask, not mkstemp's 0600, and a rewrite keeps its bytes."""
        cfg = _config(tmp_path)
        old = os.umask(umask)
        try:
            outs = {
                "check": tmp_path / "r.json",
                "values": tmp_path / "v.csv",
                "summary": tmp_path / "s.csv",
                "sweep": tmp_path / "w.csv",
                "gradcheck": tmp_path / "g.json",
            }
            assert cli.main(["check", cfg, "--output", str(outs["check"])]) == 0
            argv = ["solve", cfg, "--values-out", str(outs["values"])]
            assert cli.main(argv + ["--summary-out", str(outs["summary"])]) == 0
            argv = ["sweep", cfg, "--lambda-min", "1", "--lambda-max", "2", "--steps", "2"]
            assert cli.main(argv + ["--output", str(outs["sweep"])]) == 0
            argv = ["gradcheck", cfg, "--points", "5", "--output", str(outs["gradcheck"])]
            assert cli.main(argv) == 0
            plain = tmp_path / "plain.txt"
            with open(plain, "w") as fh:
                fh.write("x")
            text = outs["check"].read_text()
            cli._atomic_write(str(outs["check"]), text)  # over an existing file
        finally:
            os.umask(old)
        expected = stat.S_IMODE(plain.stat().st_mode)
        assert expected == 0o666 & ~umask
        for path in outs.values():
            assert stat.S_IMODE(path.stat().st_mode) == expected, path.name
        assert outs["check"].read_text() == text
        assert not [path.name for path in tmp_path.iterdir() if path.name.startswith(".pklap-")]

    def test_no_command_is_usage_error(self):
        assert cli.main([]) == cli.EXIT_CONFIG

    def test_bad_flag_value(self, tmp_path):
        cfg = _config(tmp_path)
        out = str(tmp_path / "g.json")
        assert cli.main(["gradcheck", cfg, "--points", "0", "--output", out]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_a_seed_outside_32_bits_is_a_usage_error(self, tmp_path, monkeypatch, capsys, seed):
        """The generators take a seed modulo 2**32, so 2**32 drew seed 0's
        samples and -1 drew seed 2**32 - 1's (before, gradcheck reported
        the same errors for each pair and exited 0)."""
        monkeypatch.setattr(cli, "find_multiple", lambda *a, **k: pytest.fail("find_multiple ran"))
        out = str(tmp_path / "g.json")
        assert cli.main(["gradcheck", _config(tmp_path, seed=seed), "--output", out]) == cli.EXIT_CONFIG
        argv = ["solve", _config(tmp_path), "--seed", str(seed)]
        argv += ["--values-out", str(tmp_path / "v.csv"), "--summary-out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: seed must lie in [0, 2**32), got {seed}\n" * 2
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"p": 10**400}, "p"),
            ({"p": [2, 10**400]}, "p[1]"),
            ({"lambda": 10**400}, "lambda"),
            ({"solver": {"residual_tol": 10**400}}, "solver.residual_tol"),
            (
                {"nonlinearity": {"builtin": "power", "params": {"a": 10**400, "b": 1, "s": 2, "r": 2}}},
                "nonlinearity.params.a",
            ),
            (
                {"nonlinearity": {"builtin": "power", "params": {"a": 1, "b": 1, "s": 10**400, "r": 2}}},
                "nonlinearity.params.s",
            ),
            ({"nonlinearity": {"builtin": "example3", "params": {"rho3": 10**400}}}, "nonlinearity.params.rho3"),
        ],
        ids=["p", "p_list", "lambda", "residual_tol", "power_a", "power_s", "example3_rho3"],
    )
    def test_a_number_too_large_for_a_float_is_a_usage_error(self, tmp_path, capsys, overrides, key):
        """A JSON integer that no float holds is an input error named by its
        key (before, float() raised OverflowError outside load_config's
        handling, and check printed a traceback and exited 3; later the
        message named no key)."""
        out = tmp_path / "r.json"
        assert cli.main(["check", _config(tmp_path, **overrides), "--output", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {key}: int too large to convert to float\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "solver, key, value",
        [({"residual_tol": True}, "solver.residual_tol", True), ({"dedupe_tol": "1e-6"}, "solver.dedupe_tol", "1e-6")],
        ids=["residual_tol_bool", "dedupe_tol_str"],
    )
    def test_a_solver_tolerance_that_is_no_number_is_a_usage_error(self, tmp_path, capsys, solver, key, value):
        """example2 at m = 3: before, a bool tolerance solved at tolerance
        1.0 and exited 0, and a string one failed with a message that named
        no key."""
        path = _config(tmp_path, m=3, p=2, nonlinearity={"builtin": "example2", "params": {}}, solver=solver)
        argv = ["solve", path, "--starts", "2"]
        argv += ["--values-out", str(tmp_path / "v.csv"), "--summary-out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {key}: must be a number, got {value!r}\n"
        assert not (tmp_path / "v.csv").exists()

    @pytest.mark.parametrize(
        "nonlinearity, key, value",
        [
            ({"builtin": "power", "params": {"a": 1, "b": 1, "s": "3", "r": 2}}, "nonlinearity.params.s", "3"),
            ({"builtin": "power", "params": {"a": True, "b": 1, "s": 2, "r": 2}}, "nonlinearity.params.a", True),
            ({"builtin": "power", "params": {"a": 1, "b": 1, "s": [2, "3"], "r": 2}}, "nonlinearity.params.s[1]", "3"),
            ({"builtin": "example3", "params": {"C": True}}, "nonlinearity.params.C", True),
            ({"builtin": "example3", "params": {"rho1": "0.5"}}, "nonlinearity.params.rho1", "0.5"),
            ({"builtin": "example3", "params": {"C": [1.0, 1.0]}}, "nonlinearity.params.C", [1.0, 1.0]),
        ],
        ids=["power_s_str", "power_a_bool", "power_s_list_str", "example3_C_bool", "example3_rho1_str",
             "example3_C_list"],
    )
    def test_a_parameter_that_is_no_number_is_a_usage_error(self, tmp_path, capsys, nonlinearity, key, value):
        """Before, check accepted power's s = "3" and a = true and
        example3's C = true, and echoed the raw value in its report, while a
        string rho1 failed with a message that named no key.  Only power's
        per-k s and r may be lists."""
        out = tmp_path / "r.json"
        assert cli.main(["check", _config(tmp_path, nonlinearity=nonlinearity), "--output", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {key}: must be a number, got {value!r}\n"
        assert not out.exists()

    def test_power_takes_per_k_lists_of_numbers(self, tmp_path):
        params = {"a": 1, "b": 1, "s": [2, 3], "r": [2.5, 2]}
        loaded = cli.load_config(_config(tmp_path, nonlinearity={"builtin": "power", "params": params}))
        assert loaded.builtin.params == params

    def test_seed_too_large_for_a_float_keeps_its_range_message(self, tmp_path, capsys):
        """seed is an integer field, never converted to a float."""
        out = tmp_path / "r.json"
        assert cli.main(["check", _config(tmp_path, seed=10**400), "--output", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: seed must lie in [0, 2**32)")

    @pytest.mark.parametrize("m", [10**400, 2**63], ids=["10**400", "2**63"])
    def test_an_oversized_m_with_one_p_is_a_usage_error(self, tmp_path, capsys, m):
        """A single p is repeated m times; before, [p] * m raised
        OverflowError outside load_config's handling and check exited 3."""
        out = tmp_path / "r.json"
        assert cli.main(["check", _config(tmp_path, m=m), "--output", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: m is too large") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("size", [10**400, 2**63], ids=["10**400", "2**63"])
    @pytest.mark.parametrize("command", ["sweep", "gradcheck"])
    def test_an_oversized_grid_or_point_count_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys, command, size
    ):
        """numpy refuses the array at once (a ValueError, or an IndexError
        from np.linspace at 2**63); before, it escaped and the command exited 3."""
        monkeypatch.setattr(cli, "lambda_sweep", lambda *a, **k: pytest.fail("lambda_sweep ran"))
        out = tmp_path / "out"
        argv = [command, str(CONFIGS / "example3_sweep.json"), "--output", str(out)]
        if command == "sweep":
            argv += ["--lambda-min", "1", "--lambda-max", "2", "--steps", str(size)]
        else:
            argv += ["--points", str(size)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        flag = "--steps" if command == "sweep" else "--points"
        assert err == f"error: {flag} is too large for an array\n"
        assert not out.exists()

    def test_non_finite_tol_flag(self, tmp_path):
        out = str(tmp_path / "out.csv")
        argv = ["solve", _config(tmp_path), "--tol", "inf"]
        argv += ["--values-out", out, "--summary-out", out]
        assert cli.main(argv) == cli.EXIT_CONFIG

    def test_solve_without_solutions_is_compute_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli, "find_multiple", lambda *a, **k: SolutionSet(records=())
        )
        cfg = _config(tmp_path)
        values = str(tmp_path / "v.csv")
        summary = str(tmp_path / "s.csv")
        code = cli.main(
            ["solve", cfg, "--values-out", values, "--summary-out", summary]
        )
        assert code == cli.EXIT_COMPUTE
        # outputs are still written for inspection
        assert open(values).read().startswith("solution_id,k,component,value")
        assert open(summary).read().splitlines()[0].startswith("solution_id,action")

    def test_unexpected_exception_is_internal(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("wat")

        monkeypatch.setattr(cli, "find_multiple", boom)
        code = cli.main(["solve", _config(tmp_path)])
        assert code == cli.EXIT_INTERNAL


class TestCheck:
    def test_borderline_power_report(self, tmp_path):
        cfg = _config(tmp_path)
        out = str(tmp_path / "check.json")
        assert cli.main(["check", cfg, "--output", out]) == cli.EXIT_OK
        payload = json.loads(open(out).read())
        assert payload["m"] == 2
        assert payload["xi"] == pytest.approx(4.0)
        assert payload["thresholds"]["lambda1"] == pytest.approx(4.0)
        assert payload["thresholds"]["lambda3"] == pytest.approx(2.0)
        [route] = payload["routing"]
        assert route["route"] == "above_lambda3"
        assert route["lambda_interval"] == [2.0, "inf"]
        names = {rep["name"] for rep in payload["reports"]}
        assert {"C.1", "C.2", "C.3", "A.4", "A.5", "A.6.3", "anticoercivity"} <= names
        by_name = {rep["name"]: rep for rep in payload["reports"]}
        assert by_name["C.1"]["verdict"] == "holds_on_samples"
        assert by_name["A.4"]["verdict"] == "holds_on_samples"

    @pytest.mark.parametrize("p", [200.0, 1100.0])
    def test_huge_exponent_report(self, tmp_path, p):
        """2^p and ||u||^p overflow: the scalar right-hand sides become inf
        instead of raising OverflowError, and C.1-C.3 still hold.  J is
        coercive (s < p): an overflowing Dirichlet term is J -> +inf, not
        -inf, so the anti-coercivity probe must report a violation."""
        cfg = _config(tmp_path, p=p)
        out = str(tmp_path / "check.json")
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["check", cfg, "--output", out]) == cli.EXIT_OK
        payload = json.loads(open(out).read())
        by_name = {rep["name"]: rep for rep in payload["reports"]}
        for name in ("C.1", "C.2", "C.3"):
            assert by_name[name]["verdict"] == "holds_on_samples"
        assert by_name["anticoercivity"]["verdict"] == "violated"
        if p > 1024.0:
            assert payload["thresholds"]["lambda1"] == "inf"

    def test_huge_exponent_is_quiet_and_unchanged(self, tmp_path):
        """Overflow at p = 1100 shows in the report (inf thresholds and
        margins), not as numpy warnings; the bytes are pinned.  They last
        moved when structured rays replaced the probe's ascent, in the
        anticoercivity report only (samples 36 to 38, detail's structured
        count, and the witness's optimized key renamed structured); before
        that with the m = 2 closed form of xi, in xi only (to 2^551 exactly,
        from the descent's 7.371020360980128e+165)."""
        cfg = _config(tmp_path, p=1100.0)
        out = tmp_path / "check.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["check", cfg, "--output", str(out)]) == cli.EXIT_OK
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "14f61bba646b77373ded91df661c571967a7d70c31680762234496eb79394aa3"

    def test_p60_check_is_quiet_and_unchanged(self, tmp_path):
        """At p = 60 the probe's table reaches mu = 3.6e187 without
        overflowing; no numpy warning shows, and the bytes are pinned.  They
        last moved when structured rays replaced the probe's ascent, whose
        gradient norms overflowed here, in the anticoercivity report only
        (as at p = 1100); before that with the m = 2 closed form of xi, in
        xi only (to 2^31 exactly, from the descent's 2147483647.9999886)."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "m": 2, "n": 1, "p": [60, 60], "lambda": 5.0, "seed": 3,
            "nonlinearity": {"builtin": "power", "params": {"a": 1.0, "b": 1.0, "s": 2.0, "r": 2.0}},
        }))
        out = tmp_path / "check.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["check", str(cfg), "--output", str(out)]) == cli.EXIT_OK
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "213ad833e7eef5d0bfc451cd9cb60d6976e7ddc6a4e43af2829cab3ed57600cd"

    def test_bounded_family_at_huge_exponent(self, tmp_path, capsys):
        """mu overflows at twice B.2's level radius; the radius is found
        without evaluating mu, and the check passes."""
        cfg = _config(
            tmp_path,
            m=4,
            p=1100,
            seed=3,
            subspace="Y",
            **{"lambda": 1},
            nonlinearity={"builtin": "example3"},
        )
        out = str(tmp_path / "check.json")
        with np.errstate(over="ignore"):
            assert cli.main(["check", cfg, "--output", out]) == cli.EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        by_name = {rep["name"]: rep for rep in json.loads(open(out).read())["reports"]}
        assert by_name["B.2"]["verdict"] == "holds_on_samples"
        assert by_name["B.3"]["verdict"] == "holds_on_samples"

    def test_bounded_family_at_huge_exponent_is_quiet_and_unchanged(self, tmp_path):
        """At p = 1100 nothing shows a numpy warning, and the bytes are
        pinned.  They last moved with lambda-star's two streams per radius
        and the bounded route's null interval, in lambda_star
        (0.003785910348486509 to 0.005555669434293961) and the bounded
        route only; before that with xi in closed form at m = 4, in xi
        only (3.49e-120, the descent's value, to 1.09e-165)."""
        cfg = _config(
            tmp_path,
            m=4,
            p=1100,
            seed=3,
            subspace="Y",
            **{"lambda": 1},
            nonlinearity={"builtin": "example3"},
        )
        out = tmp_path / "check.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["check", cfg, "--output", str(out)]) == cli.EXIT_OK
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "a9a2f6ce5b35c0452b13ea75f26737c4ee9b6bf15533bb44f2c80174f2b07121"

    def test_evaluation_failure_is_compute_error(self, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise EvaluationError("potential evaluated at a non-finite sequence")

        monkeypatch.setattr(cli, "check_b2_b3", failing)
        cfg = str(CONFIGS / "example3_sweep.json")
        out = tmp_path / "check.json"
        assert cli.main(["check", cfg, "--output", str(out)]) == cli.EXIT_COMPUTE
        err = capsys.readouterr().err
        assert err == "error: check failed: potential evaluated at a non-finite sequence\n"
        assert not out.exists()

    def test_overflowing_r2_is_compute_error(self, tmp_path, capsys):
        """At rho1 = 1 and p = 1100, r2 = sum (2 rho1)^p / p overflows: the
        check fails naming r2, with no numpy warning."""
        cfg = _config(tmp_path, m=4, p=1100, seed=3, subspace="Y", **{"lambda": 1},
                      nonlinearity={"builtin": "example3", "params": {"rho1": 1.0}})
        out = tmp_path / "check.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["check", cfg, "--output", str(out)]) == cli.EXIT_COMPUTE
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err == "error: check failed: r2 = sum (2 rho1)^p / p overflows (inf)\n"
        assert not out.exists()

    def test_bounded_family_report(self, tmp_path):
        cfg = _config(
            tmp_path,
            name="e3.json",
            m=2,
            p=[2.0, 2.0],
            **{"lambda": 1.0},
            nonlinearity={"builtin": "example3"},
        )
        out = str(tmp_path / "check3.json")
        assert cli.main(["check", cfg, "--output", out]) == cli.EXIT_OK
        payload = json.loads(open(out).read())
        assert payload["thresholds"] is None
        assert payload["r2"] == pytest.approx(1.0)
        assert payload["lambda_star"] == pytest.approx(2.1429570158091105)
        [route] = payload["routing"]
        assert route["route"] == "bounded_three_solutions"
        assert route["lambda_interval"] is None
        assert "interval_is_estimate" not in route
        names = {rep["name"] for rep in payload["reports"]}
        assert {"A.7", "A.8", "A.9", "B.2", "B.3"} <= names

    @pytest.mark.parametrize("name", ["power_borderline", "example3_sweep"])
    def test_xi_computed_once(self, tmp_path, monkeypatch, name):
        # power_borderline has a growth profile and example3_sweep bounds
        # only; either way check runs the search behind xi_constant once,
        # beside the thresholds rather than inside them.
        calls = []
        real = analysis._xi_search

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "_xi_search", counted)
        monkeypatch.setattr(cli, "_xi_search", counted)
        cfg = str(CONFIGS / f"{name}.json")
        out = str(tmp_path / "check.json")
        assert cli.main(["check", cfg, "--output", out]) == cli.EXIT_OK
        assert len(calls) == 1
        payload = json.loads(open(out).read())
        assert (payload["xi"], True) == real(*calls[0])
        assert payload["xi"] == analysis.xi_constant(*calls[0])
        assert "xi_converged" not in payload

    def test_unconverged_xi_is_reported(self, tmp_path):
        cfg = _config(tmp_path, m=8, p=1.5)
        out = str(tmp_path / "check.json")
        with pytest.warns(RuntimeWarning, match="upper bound"):
            assert cli.main(["check", cfg, "--output", out]) == cli.EXIT_OK
        text = open(out).read()
        payload = json.loads(text)
        assert payload["xi_converged"] is False
        with pytest.warns(RuntimeWarning, match="upper bound"):
            assert payload["xi"] == analysis.xi_constant(8, 1, 1.5)
        assert '"xi_converged": false' in text

    @pytest.mark.parametrize("name", sorted(SHIPPED_VERDICTS))
    def test_shipped_config_verdicts(self, tmp_path, name):
        """Every report's verdict on a shipped config, at the config's own
        seed, in report order: a change to how the checks draw their
        samples must not flip one."""
        out = tmp_path / "check.json"
        assert cli.main(["check", str(CONFIGS / f"{name}.json"), "--output", str(out)]) == cli.EXIT_OK
        reports = json.loads(out.read_text())["reports"]
        assert [(rep["name"], rep["verdict"]) for rep in reports] == SHIPPED_VERDICTS[name]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_bench_config_verdicts(self, tmp_path, seed):
        """Every report's verdict on the nine configs of the benchmark's check
        batch at the snapshot's seeds 1 and 2 (tools/snapshot_outputs.py)."""
        configs = _bench_check_configs(seed)
        assert sorted(configs) == sorted(BENCH_VERDICTS)
        for name, cfg in configs.items():
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.check.json"
            path.write_text(json.dumps(cfg))
            assert cli.main(["check", str(path), "--output", str(out)]) == cli.EXIT_OK
            reports = json.loads(out.read_text())["reports"]
            assert [(rep["name"], rep["verdict"]) for rep in reports] == BENCH_VERDICTS[name], name

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _config(tmp_path)
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        assert cli.main(["check", cfg, "--output", out_a]) == cli.EXIT_OK
        assert cli.main(["check", cfg, "--output", out_b]) == cli.EXIT_OK
        assert filecmp.cmp(out_a, out_b, shallow=False)


class TestRouting:
    def _routes(self, m, p, s, r):
        spec = make_builtin("power", m, {"a": 1.0, "b": 1.0, "s": s, "r": r})
        prob = Problem(
            m=m,
            n=1,
            exponent=ExponentFunction.constant(p, m),
            nonlinearity=spec.nonlinearity,
            lam=1.0,
        )
        thr = analysis.thresholds(prob, spec.growth)
        return cli._routing(prob, spec, thr), thr

    def test_super_p_growth_in_s(self):
        routes, _ = self._routes(2, 2.0, 4.0, 4.0)
        assert routes[0]["route"] == "any_lambda_via_s"
        assert routes[0]["lambda_interval"] == [0.0, math.inf]

    def test_super_p_growth_in_r_only(self):
        routes, _ = self._routes(2, 2.0, 2.0, 4.0)
        assert routes[0]["route"] == "any_lambda_via_r"

    def test_equality_in_s_only(self):
        routes, thr = self._routes(2, 3.0, 3.0, 2.0)
        assert routes[0]["route"] == "above_lambda1"
        assert routes[0]["lambda_interval"][0] == thr.lambda1

    def test_equality_in_r_only(self):
        routes, thr = self._routes(2, 3.0, 2.0, 3.0)
        assert routes[0]["route"] == "above_lambda2"
        assert routes[0]["lambda_interval"][0] == thr.lambda2

    def test_subcritical_growth_has_no_route(self):
        routes, _ = self._routes(2, 3.0, 2.5, 2.5)
        assert routes[0]["route"] == "none"
        assert routes[0]["lambda_interval"] is None

    @pytest.mark.parametrize(
        "p, s, r, entry",
        [
            (2.0, 4.0, 4.0, {"route": "any_lambda_via_s", "reason": "s_min = 4.0 exceeds p_plus = 2.0",
                             "lambda_interval": [0.0, math.inf]}),
            (2.0, 2.0, 4.0, {"route": "any_lambda_via_r", "reason": "r_min = 4.0 exceeds p_plus = 2.0",
                             "lambda_interval": [0.0, math.inf]}),
            (3.0, 3.0, 3.0, {"route": "above_lambda3", "reason": "s_min = r_min = p_plus = 3.0",
                             "lambda_interval": [3.771236166328254, math.inf]}),
            (3.0, 3.0, 2.0, {"route": "above_lambda1", "reason": "s_min = p_plus = 3.0 with r_min = 2.0 below",
                             "lambda_interval": [7.542472332656508, math.inf]}),
            (3.0, 2.0, 3.0, {"route": "above_lambda2", "reason": "r_min = p_plus = 3.0 with s_min = 2.0 below",
                             "lambda_interval": [7.542472332656508, math.inf]}),
            (3.0, 2.5, 2.5, {"route": "none", "reason": "both growth exponents fall below p_plus = 3.0",
                             "lambda_interval": None}),
        ],
    )
    def test_growth_route_entry_in_full(self, p, s, r, entry):
        routes, _ = self._routes(2, p, s, r)
        assert routes == [entry]

    def test_bounded_and_no_profile_entries_in_full(self):
        # the bounded route claims no interval: its direction is not derived
        bounded = {
            "route": "bounded_three_solutions",
            "reason": "bounded potential with sign wells; solutions on the zero-mean subspace; "
            "the lambda interval is unverified until its direction is derived",
            "lambda_interval": None,
        }
        spec = make_builtin("example3", 3, {})
        prob = Problem(m=3, n=1, exponent=ExponentFunction.constant(2.0, 3), nonlinearity=spec.nonlinearity, lam=1.0)
        assert cli._routing(prob, spec, None) == [bounded]
        bare = spec._replace(bounds=None)
        assert cli._routing(prob, bare, None) == [
            {"route": "none", "reason": "no growth or bound profile available", "lambda_interval": None}
        ]
        # a family with both profiles gets its growth route, then the bounded one
        power = make_builtin("power", 3, {"a": 1.0, "b": 1.0, "s": 2.0, "r": 2.0})
        both = power._replace(bounds=spec.bounds)
        thr = analysis.thresholds(prob, power.growth)
        assert cli._routing(prob, both, thr) == [
            {"route": "above_lambda3", "reason": "s_min = r_min = p_plus = 2.0", "lambda_interval": [3.0, math.inf]},
            bounded,
        ]

    def test_shipped_bounded_check_claims_no_lambda_below_2(self, tmp_path):
        """On the zero-mean subspace at m = 2, p = 2, example3 has only the
        zero solution below lambda = 2 (tests/test_oracles.py), so no route
        of the shipped example3_sweep check may claim a lambda below 2."""
        out = str(tmp_path / "check.json")
        assert cli.main(["check", str(CONFIGS / "example3_sweep.json"), "--output", out]) == cli.EXIT_OK
        routes = json.loads(open(out).read())["routing"]
        assert [route["route"] for route in routes] == ["bounded_three_solutions"]
        for route in routes:
            assert route["lambda_interval"] is None or route["lambda_interval"][0] >= 2.0


class TestSolve:
    def test_borderline_solve_outputs(self, tmp_path):
        cfg = _config(tmp_path)
        values = str(tmp_path / "v.csv")
        summary = str(tmp_path / "s.csv")
        code = cli.main(["solve", cfg, "--values-out", values, "--summary-out", summary])
        assert code == cli.EXIT_OK

        v_lines = open(values).read().splitlines()
        assert v_lines[0] == "solution_id,k,component,value"
        # lambda = 5 sits above every threshold but the linear system is
        # invertible, so only the zero sequence solves it
        assert v_lines[1:] == ["0,1,0,0.0", "0,2,0,0.0"]

        s_lines = open(summary).read().splitlines()
        assert s_lines[0] == (
            "solution_id,action,residual_norm,morse_index,"
            "classification,in_Y,method,converged,flags"
        )
        fields = s_lines[1].split(",")
        assert fields[0] == "0"
        assert float(fields[1]) == 0.0
        assert int(fields[3]) == 2
        assert fields[4] == "maximum"
        assert s_lines[-1] == "# sign_flip_symmetry_ok: true"

    def test_solve_rerun_byte_identical(self, tmp_path):
        cfg = _config(tmp_path)
        pairs = []
        for tag in ("x", "y"):
            values = str(tmp_path / f"v_{tag}.csv")
            summary = str(tmp_path / f"s_{tag}.csv")
            assert (
                cli.main(
                    ["solve", cfg, "--values-out", values, "--summary-out", summary]
                )
                == cli.EXIT_OK
            )
            pairs.append((values, summary))
        assert filecmp.cmp(pairs[0][0], pairs[1][0], shallow=False)
        assert filecmp.cmp(pairs[0][1], pairs[1][1], shallow=False)

    @pytest.mark.parametrize(
        "name, lam, values_digest, summary_digest",
        [
            (
                "example2_m3",
                None,
                "a05f8f48effefd0c068818b4cb000b345ff7bc80651599c6c6dff04a8808573c",
                "1ef40cee0aecb65d429f2741d3885e6af9811eedf9329e984361c998120e3f42",
            ),
            (
                # the benchmark's sweep point: lambda = 10 at the shipped 8 starts
                "example3_sweep",
                10.0,
                "6236f84d940e1024a5b0a0cd3e4db60c2d318f3bfe4b57c33208deae62cebaaa",
                "cbd4d405d69bcef195221112217d49daf06b14f6f9fe9ae37d234134c8d3eb08",
            ),
        ],
    )
    def test_solve_bytes_unchanged(self, tmp_path, name, lam, values_digest, summary_digest):
        """The solve outputs are those of the per-record solver tail: the
        stacked checks, records, dedupe and Newton solves keep every record,
        merge and output byte."""
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        if lam is not None:
            cfg["lambda"] = lam
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        values, summary = tmp_path / "v.csv", tmp_path / "s.csv"
        argv = ["solve", str(path), "--values-out", str(values), "--summary-out", str(summary)]
        assert cli.main(argv) == cli.EXIT_OK
        assert hashlib.sha256(values.read_bytes()).hexdigest() == values_digest
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == summary_digest

    def test_tol_override_rejects_nonsense(self, tmp_path):
        cfg = _config(tmp_path)
        assert cli.main(["solve", cfg, "--tol", "-1"]) == cli.EXIT_CONFIG


class TestOverflowingLambda:
    """example3 at a lambda where the residual, its norm and the deflated
    Jacobian overflow: every start stops on a failed step, and only the
    zero sequence is found (before, LAPACK's least-squares SVD failed on an
    infinite Jacobian, and solve exited 3)."""

    @staticmethod
    def _run(tmp_path, *argv):
        """(exit code, stderr) of the CLI in a fresh interpreter, whose
        stderr also holds what LAPACK prints; a run that warns or fails
        leaves it non-empty."""
        env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
        out = subprocess.run(
            [sys.executable, "-m", "pklap.cli", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        return out.returncode, out.stderr

    def test_solve_finds_the_zero_sequence(self, tmp_path):
        cfg = json.loads((CONFIGS / "example3_sweep.json").read_text())
        cfg["lambda"] = 1e308
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, err = self._run(tmp_path, "solve", str(path), "--values-out", "v.csv", "--summary-out", "s.csv")
        assert (code, err) == (cli.EXIT_OK, "")
        assert (tmp_path / "v.csv").read_text().splitlines()[1:] == ["0,1,0,0.0", "0,2,0,0.0"]

    def test_sweep_keeps_every_grid_point(self, tmp_path):
        argv = ["sweep", str(CONFIGS / "example3_sweep.json"), "--lambda-min", "1", "--lambda-max", "1e308"]
        code, err = self._run(tmp_path, *argv, "--steps", "2", "--output", "sweep.csv")
        assert (code, err) == (cli.EXIT_OK, "")
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1:3] == ["1.0,1,0,0.0", "1e+308,1,0,0.0"]


class TestSweep:
    def _quartic_config(self, tmp_path):
        return _config(
            tmp_path,
            name="quartic.json",
            nonlinearity={
                "builtin": "power",
                "params": {"a": 1.0, "b": 1.0, "s": 4.0, "r": 4.0},
            },
            solver={"starts": 4},
        )

    def test_grid_validation(self, tmp_path):
        cfg = self._quartic_config(tmp_path)
        out = str(tmp_path / "sweep.csv")
        args = ["sweep", cfg, "--output", out]
        assert cli.main(args + ["--lambda-min", "2", "--lambda-max", "1"]) == cli.EXIT_CONFIG
        assert cli.main(args + ["--lambda-min", "-1", "--lambda-max", "1"]) == cli.EXIT_CONFIG
        assert (
            cli.main(
                args + ["--lambda-min", "1", "--lambda-max", "2", "--steps", "0"]
            )
            == cli.EXIT_CONFIG
        )

    @pytest.mark.parametrize(
        "bounds", [("1", "inf"), ("1", "nan"), ("inf", "inf"), ("nan", "2")]
    )
    def test_non_finite_bounds_are_config_errors(self, tmp_path, capsys, bounds):
        cfg = self._quartic_config(tmp_path)
        argv = ["sweep", cfg, "--lambda-min", bounds[0], "--lambda-max", bounds[1]]
        assert cli.main(argv + ["--output", str(tmp_path / "sweep.csv")]) == cli.EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    def test_sweep_rows_and_estimate(self, tmp_path):
        cfg = self._quartic_config(tmp_path)
        out = str(tmp_path / "sweep.csv")
        code = cli.main(
            [
                "sweep",
                cfg,
                "--lambda-min",
                "0.5",
                "--lambda-max",
                "1.5",
                "--steps",
                "2",
                "--output",
                out,
            ]
        )
        assert code == cli.EXIT_OK
        lines = open(out).read().splitlines()
        assert lines[0] == "lambda,count,nontrivial_count,min_action"
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(data) == 2
        # zero plus the pair of alternating solutions at every lambda
        for ln in data:
            _, count, nontriv, _ = ln.split(",")
            assert int(count) >= 3
            assert int(nontriv) >= 2
        assert lines[-1] == "# A_estimate: 0.5,1.5"

    def test_single_step_grid_is_a_config_error(self, tmp_path, capsys):
        """np.linspace(1, 2, 1) is [1.0]: one step would drop --lambda-max
        silently, so it is refused and nothing is written."""
        cfg = self._quartic_config(tmp_path)
        out = tmp_path / "one.csv"
        argv = ["sweep", cfg, "--lambda-min", "1.0", "--lambda-max", "2.0", "--steps", "1"]
        assert cli.main(argv + ["--output", str(out)]) == cli.EXIT_CONFIG
        assert "--steps must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_a_grid_that_collapses_in_floating_point_is_a_config_error(
        self, tmp_path, monkeypatch, capsys
    ):
        """1 and its next double leave no room for a third point: np.linspace
        gives [1, 1, 1.0000000000000002], which lambda_sweep refused with a
        ValueError that exited 3.  It is refused before any solve."""
        monkeypatch.setattr(cli, "lambda_sweep", lambda *a, **k: pytest.fail("lambda_sweep ran"))
        out = tmp_path / "collapsed.csv"
        argv = ["sweep", str(CONFIGS / "example3_sweep.json"), "--output", str(out)]
        argv += ["--lambda-min", "1", "--lambda-max", "1.0000000000000002", "--steps", "3"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: --lambda-min 1.0 and --lambda-max 1.0000000000000002")
        assert "--steps 3" in err and err.count("\n") == 1
        assert not out.exists()


class TestGradcheck:
    def test_passes_on_consistent_derivatives(self, tmp_path):
        cfg = _config(tmp_path)
        out = str(tmp_path / "grad.json")
        assert (
            cli.main(["gradcheck", cfg, "--points", "25", "--output", out])
            == cli.EXIT_OK
        )
        payload = json.loads(open(out).read())
        assert payload["passed"] is True
        assert payload["max_relative_error"] <= 1e-5
        assert payload["points"] == 25

    @pytest.mark.parametrize("step", ["inf", "nan", "-inf"])
    def test_non_finite_step_is_config_error(self, tmp_path, capsys, step):
        out = str(tmp_path / "grad.json")
        argv = ["gradcheck", _config(tmp_path), "--step", step, "--output", out]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    def test_overflowing_step_is_compute_error(self, tmp_path, capsys):
        out = str(tmp_path / "grad.json")
        argv = ["gradcheck", _config(tmp_path), "--step", "1e300", "--output", out]
        with np.errstate(over="ignore"):
            assert cli.main(argv) == cli.EXIT_COMPUTE
        err = capsys.readouterr().err
        assert "gradcheck failed" in err
        assert "Traceback" not in err

    def test_detects_corrupted_derivative(self, tmp_path, monkeypatch, capsys):
        real = make_builtin("power", 2, {"a": 1.0, "b": 1.0, "s": 2.0, "r": 2.0})
        scale = 1.02

        def dF(K, U1, U2):
            F2, F3 = real.nonlinearity.dF(K, U1, U2)
            return F2, scale * F3

        broken_nl = real.nonlinearity._replace(dF=dF)
        broken = BuiltinSpec(
            real.name, real.params, broken_nl, growth=real.growth
        )
        monkeypatch.setattr(cli, "make_builtin", lambda *a, **k: broken)

        cfg = _config(tmp_path)
        out = str(tmp_path / "grad.json")
        code = cli.main(["gradcheck", cfg, "--points", "10", "--output", out])
        assert code == cli.EXIT_COMPUTE
        payload = json.loads(open(out).read())
        assert payload["passed"] is False
        assert payload["max_relative_error"] > 1e-5
        assert payload["worst_point"] is not None
        assert "worst point" in capsys.readouterr().err

    def test_overflowing_gradient_norm_is_measured(self, tmp_path):
        """At p = 400 the gradient's norm overflows at several of the 20
        points, which made their error |g - g_fd| / inf = 0 (or NaN, then
        skipped).  The norms are taken on the scaled point: every error is
        finite, and no numpy warning is issued."""
        cfg = _config(tmp_path, m=4, p=400.0, **{"lambda": 1.0})
        prob = cli.load_config(cfg).problem
        points = analysis.rng_for(0, 31).normal(size=(20, 4, 1))
        with np.errstate(over="ignore"):
            out, _ = _residual_rows(points, prob)
            assert np.isinf(_row_norms(out.reshape(20, -1))).sum() >= 2
        out = tmp_path / "grad.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            errors = cli._gradcheck_errors(points, prob, None)
            assert cli.main(["gradcheck", cfg, "--points", "20", "--output", str(out)]) == cli.EXIT_OK
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert all(0.0 < e < 1e-5 for e in errors)
        payload = json.loads(out.read_text())
        assert payload["max_relative_error"] == max(errors) and payload["passed"] is True

    def test_non_finite_error_fails_the_check(self, tmp_path, monkeypatch, capsys):
        """A NaN error ranks above every number: it is the reported worst
        point and fails the check, never skipped."""
        monkeypatch.setattr(cli, "_gradcheck_errors", lambda u, prob, step: [1e-9, math.nan, 2e-9])
        out = tmp_path / "grad.json"
        assert cli.main(["gradcheck", _config(tmp_path), "--points", "3", "--output", str(out)]) == cli.EXIT_COMPUTE
        payload = json.loads(out.read_text())
        assert payload["passed"] is False and payload["max_relative_error"] == "nan"
        assert payload["worst_point"] == analysis.rng_for(0, 31).normal(size=(3, 2, 1))[1].tolist()
        assert "gradient mismatch nan" in capsys.readouterr().err
