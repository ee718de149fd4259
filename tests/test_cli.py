import filecmp
import hashlib
import importlib.util
import json
import math
import pathlib
import sys
import warnings

import numpy as np
import pytest

import pklap.analysis as analysis
import pklap.cli as cli
from pklap.core import EvaluationError, Nonlinearity, _row_norms
from pklap.nonlinearities import BuiltinSpec, make_builtin, make_power
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


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["check", str(tmp_path / "none.json")])
        assert code == cli.EXIT_CONFIG
        assert "configuration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag,computation",
        [
            ("check", "--output", "_check_payload"),
            ("solve", "--values-out", "find_multiple"),
            ("solve", "--summary-out", "find_multiple"),
            ("sweep", "--output", "lambda_sweep"),
            ("gradcheck", "--output", "_gradcheck_errors"),
        ],
    )
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

    def test_no_command_is_usage_error(self):
        assert cli.main([]) == cli.EXIT_CONFIG

    def test_bad_flag_value(self, tmp_path):
        cfg = _config(tmp_path)
        out = str(tmp_path / "g.json")
        assert cli.main(["gradcheck", cfg, "--points", "0", "--output", out]) == cli.EXIT_CONFIG

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
        pinned.  They last moved with xi in closed form at m = 4, in xi
        only (3.49e-120, the descent's value, to 1.09e-165); before that
        with the level radii by Newton's method on log t, in lambda_star,
        the bounded route's interval and the B.3 margin only."""
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
        assert digest == "cab897651dae33c80e90b8f159921d404f8cb446115e054a8ce3a222daf583ee"

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
        assert payload["lambda_star"] == pytest.approx(2.149126479012437)
        [route] = payload["routing"]
        assert route["route"] == "bounded_three_solutions"
        assert route["interval_is_estimate"] is True
        assert route["lambda_interval"][0] == 0.0
        assert route["lambda_interval"][1] == pytest.approx(2.149126479012437)
        names = {rep["name"] for rep in payload["reports"]}
        assert {"A.7", "A.8", "A.9", "B.2", "B.3"} <= names

    @pytest.mark.parametrize("name", ["power_borderline", "example3_sweep"])
    def test_xi_computed_once(self, tmp_path, monkeypatch, name):
        # power_borderline has a growth profile, so thresholds() computes
        # xi; example3_sweep has bounds only.  Both go through the search
        # that xi_constant and thresholds share.
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
        from pklap.analysis import thresholds
        from pklap.core import ExponentFunction, Problem

        prob = Problem(
            m=m,
            n=1,
            exponent=ExponentFunction.constant(p, m),
            nonlinearity=spec.nonlinearity,
            lam=1.0,
        )
        thr = thresholds(prob, spec.growth)
        return cli._routing(prob, spec, thr, None), thr

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

        broken_nl = Nonlinearity(
            m=real.nonlinearity.m,
            F=real.nonlinearity.F,
            F2_prime=real.nonlinearity.F2_prime,
            F3_prime=lambda k, u1, u2: scale * real.nonlinearity.F3_prime(k, u1, u2),
            n=real.nonlinearity.n,
            name="power",
        )
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
