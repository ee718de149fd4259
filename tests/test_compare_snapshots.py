"""tools/compare_snapshots.py: its exit codes and its margin, xi, lambda_star and route report.

The tool compares two output snapshots.  It passes (exit 0) when outputs
moved only in their numbers, and fails (exit 1) when a verdict, a check's
`xi_converged` or a gradcheck's `passed` changes, when a file is on one
side only, or when a non-JSON file differs.
"""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "compare_snapshots.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_snapshots", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check(margin, verdict="holds_on_samples", c1=0.5, xi=0.25, xi_converged=True, lambda_star=None):
    return {
        "reports": [
            {"name": "C.1", "verdict": "holds_on_samples", "margin": c1},
            {"name": "anticoercivity", "verdict": verdict, "margin": margin},
        ],
        "xi": xi,
        "xi_converged": xi_converged,
        "lambda_star": lambda_star,
    }


def _snapshots(tmp_path, base_files, new_files):
    dirs = []
    for side, files in (("base", base_files), ("new", new_files)):
        d = tmp_path / side
        d.mkdir()
        for name, content in files.items():
            text = content if isinstance(content, str) else json.dumps(content)
            (d / name).write_text(text)
        dirs.append(str(d))
    return dirs


def _run(tool, capsys, tmp_path, base_files, new_files):
    code = tool.main(_snapshots(tmp_path, base_files, new_files))
    return code, capsys.readouterr().out.splitlines()


def test_moved_numbers_pass_and_report_their_largest_margin_change(tool, capsys, tmp_path):
    base = {"a.check.json": _check(1.0e11), "b.check.json": _check(2.0), "c.csv": "x\n"}
    new = {"a.check.json": _check(1.0e11 + 4.0), "b.check.json": _check(2.0, c1=0.25), "c.csv": "x\n"}
    code, out = _run(tool, capsys, tmp_path, base, new)
    assert code == 0
    assert "  margin anticoercivity: 100000000000.0 -> 100000000004.0 (relative 4e-11)" in out
    assert "  margin C.1: 0.5 -> 0.25 (relative 0.5)" in out
    assert out[-1] == (
        "3 files, 2 differ, 0 fail, largest relative margin change 0.5, "
        "largest relative xi change 0, largest relative lambda_star change 0"
    )


def test_identical_snapshots_pass(tool, capsys, tmp_path):
    files = {"a.check.json": _check(1.0), "b.csv": "1,2\n"}
    code, out = _run(tool, capsys, tmp_path, files, files)
    assert code == 0
    assert out == [
        "2 files, 0 differ, 0 fail, largest relative margin change 0, largest relative xi change 0, "
        "largest relative lambda_star change 0"
    ]


def test_a_margin_that_becomes_infinite_is_an_infinite_change(tool, capsys, tmp_path):
    code, out = _run(tool, capsys, tmp_path, {"a.check.json": _check(1.0)}, {"a.check.json": _check("inf")})
    assert code == 0
    assert out[-1].endswith(
        "largest relative margin change inf, largest relative xi change 0, largest relative lambda_star change 0"
    )


def test_a_changed_verdict_fails(tool, capsys, tmp_path):
    code, out = _run(
        tool, capsys, tmp_path, {"a.check.json": _check(1.0)}, {"a.check.json": _check(-1.0, "violated")}
    )
    assert code == 1
    assert "  verdict anticoercivity: holds_on_samples -> violated" in out


def test_a_file_on_one_side_only_fails(tool, capsys, tmp_path):
    code, out = _run(tool, capsys, tmp_path, {"a.csv": "1\n", "b.csv": "2\n"}, {"a.csv": "1\n"})
    assert code == 1
    assert out[0].startswith("b.csv: only in ")


def test_a_non_json_difference_fails(tool, capsys, tmp_path):
    code, out = _run(tool, capsys, tmp_path, {"a.values.csv": "1.0\n"}, {"a.values.csv": "1.5\n"})
    assert code == 1
    assert out == [
        "a.values.csv: differs",
        "1 files, 1 differ, 1 fail, largest relative margin change 0, largest relative xi change 0, "
        "largest relative lambda_star change 0",
    ]


def test_a_changed_gradcheck_pass_fails(tool, capsys, tmp_path):
    base = {"max_relative_error": 1e-9, "passed": True}
    new = {"max_relative_error": 2e-5, "passed": False}
    code, out = _run(tool, capsys, tmp_path, {"a.gradcheck.json": base}, {"a.gradcheck.json": new})
    assert code == 1
    assert "  passed: True -> False" in out


def test_a_moved_gradcheck_error_passes(tool, capsys, tmp_path):
    base = {"max_relative_error": 1e-9, "passed": True}
    new = {"max_relative_error": 3e-9, "passed": True}
    code, _ = _run(tool, capsys, tmp_path, {"a.gradcheck.json": base}, {"a.gradcheck.json": new})
    assert code == 0


def test_a_moved_xi_passes_and_reports_its_relative_change(tool, capsys, tmp_path):
    base = {"a.check.json": _check(1.0, xi=0.25), "b.check.json": _check(1.0, xi=4.0)}
    new = {"a.check.json": _check(1.0, xi=0.2), "b.check.json": _check(1.0, xi=4.0 + 2.0**-50)}
    code, out = _run(tool, capsys, tmp_path, base, new)
    assert code == 0
    assert "  keys: xi" in out
    assert "  xi: 0.25 -> 0.2 (relative 0.2)" in out
    assert "  xi: 4.0 -> 4.000000000000001 (relative 2.22e-16)" in out
    assert out[-1] == (
        "2 files, 2 differ, 0 fail, largest relative margin change 0, "
        "largest relative xi change 0.2, largest relative lambda_star change 0"
    )


def test_a_changed_xi_converged_fails(tool, capsys, tmp_path):
    base = {"a.check.json": _check(1.0, xi=1.0)}
    new = {"a.check.json": _check(1.0, xi=0.5, xi_converged=False)}
    code, out = _run(tool, capsys, tmp_path, base, new)
    assert code == 1
    assert "  xi_converged: True -> False" in out
    assert out[-1].startswith("1 files, 1 differ, 1 fail, ")


def test_a_moved_lambda_star_passes_and_reports_its_relative_change(tool, capsys, tmp_path):
    base = {"a.check.json": _check(1.0, lambda_star=2.0), "b.check.json": _check(1.0, lambda_star=0.5)}
    new = {"a.check.json": _check(1.0, lambda_star=2.5), "b.check.json": _check(1.0, lambda_star=0.5)}
    code, out = _run(tool, capsys, tmp_path, base, new)
    assert code == 0
    assert out[:3] == ["a.check.json: differs", "  keys: lambda_star", "  lambda_star: 2.0 -> 2.5 (relative 0.25)"]
    assert out[-1] == (
        "2 files, 1 differ, 0 fail, largest relative margin change 0, "
        "largest relative xi change 0, largest relative lambda_star change 0.25"
    )


def test_a_lambda_star_that_appears_or_becomes_infinite_is_an_infinite_change(tool, capsys, tmp_path):
    base = {"a.check.json": _check(1.0), "b.check.json": _check(1.0, lambda_star=2.0)}
    new = {"a.check.json": _check(1.0, lambda_star=2.0), "b.check.json": _check(1.0, lambda_star="inf")}
    code, out = _run(tool, capsys, tmp_path, base, new)
    assert code == 0
    assert "  lambda_star: None -> 2.0 (relative inf)" in out
    assert "  lambda_star: 2.0 -> inf (relative inf)" in out
    assert out[-1].endswith("largest relative lambda_star change inf")


def test_a_moved_route_interval_passes_and_is_printed_old_to_new(tool, capsys, tmp_path):
    def check(routing):
        return dict(_check(1.0), routing=routing)

    bounded = {"route": "bounded_three_solutions", "reason": "r", "lambda_interval": [0.0, 2.0]}
    growth = {"route": "above_lambda1", "reason": "g", "lambda_interval": [3.0, "inf"]}
    base = {"a.check.json": check([growth, bounded]), "b.check.json": check([growth])}
    new = {
        "a.check.json": check([growth, dict(bounded, lambda_interval=None)]),
        "b.check.json": check([dict(growth, lambda_interval=[4.0, "inf"]), bounded]),
    }
    code, out = _run(tool, capsys, tmp_path, base, new)
    assert code == 0
    assert out[:3] == [
        "a.check.json: differs",
        "  keys: routing",
        "  route bounded_three_solutions lambda_interval: [0.0, 2.0] -> None",
    ]
    assert out[3:7] == [
        "b.check.json: differs",
        "  keys: routing",
        "  route above_lambda1 lambda_interval: [3.0, 'inf'] -> [4.0, 'inf']",
        "  route bounded_three_solutions lambda_interval: None -> [0.0, 2.0]",
    ]
    assert out[-1].startswith("2 files, 2 differ, 0 fail, ")
