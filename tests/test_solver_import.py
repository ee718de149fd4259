"""`pklap check` and `pklap gradcheck` never import pklap.solvers, and
every solver name still resolves where it did.

The package resolves its solver names on first access and the CLI imports
the solvers on the first `solve` or `sweep`, so the start-up of the analysis
commands does not compile the solver stack.  Each test runs in a fresh
interpreter, as this process imported the solvers long ago.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted(str(path) for path in (ROOT / "configs").glob("*.json"))


def _run(script: str, cwd) -> list[str]:
    """The lines script prints, run by a fresh interpreter on the package
    of this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_check_and_gradcheck_do_not_load_the_solvers(tmp_path):
    script = (
        "import sys\n"
        "import pklap\n"
        "import pklap.cli as cli\n"
        "loaded = ['pklap.solvers' in sys.modules]\n"
        f"for config in {CONFIGS!r}:\n"
        "    assert cli.main(['check', config, '--output', 'c.json']) == 0\n"
        "    assert cli.main(['gradcheck', config, '--points', '5', '--output', 'g.json']) == 0\n"
        "    loaded.append('pklap.solvers' in sys.modules)\n"
        "print('RESULT', loaded)\n"
    )
    out = _run(script, tmp_path)
    assert out[-1] == f"RESULT {[False] * (len(CONFIGS) + 1)}"


def test_the_solver_names_resolve(tmp_path):
    """Attribute access, the submodule, `from pklap import *` and the CLI's
    globals all reach pklap.solvers; an unknown name still fails."""
    script = (
        "import sys\n"
        "import pklap\n"
        "import pklap.cli as cli\n"
        "assert 'pklap.solvers' not in sys.modules\n"
        "from pklap import solvers\n"
        "assert pklap.solvers is solvers is sys.modules['pklap.solvers']\n"
        "for name in ('SolutionSet', 'SweepResult', 'find_multiple', 'lambda_sweep',\n"
        "             'mountain_pass', 'subspace_basis', 'SolverConfig'):\n"
        "    assert getattr(pklap, name) is getattr(solvers, name), name\n"
        "namespace = {}\n"
        "exec('from pklap import *', namespace)\n"
        "assert set(pklap.__all__) <= set(namespace), set(pklap.__all__) - set(namespace)\n"
        "assert namespace['find_multiple'] is solvers.find_multiple\n"
        "assert pklap.SolverConfig is cli.SolverConfig is pklap.core.SolverConfig\n"
        "assert solvers.SUBSPACE_Y is pklap.core.SUBSPACE_Y\n"
        "try:\n"
        "    pklap.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert _run(script, tmp_path) == ["module 'pklap' has no attribute 'no_such_name'"]


def test_from_pklap_import_loads_the_solvers(tmp_path):
    script = (
        "import sys\n"
        "from pklap import find_multiple\n"
        "print(find_multiple.__module__, 'pklap.solvers' in sys.modules)\n"
    )
    assert _run(script, tmp_path) == ["pklap.solvers True"]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--starts", "2", "--values-out", "v.csv", "--summary-out", "s.csv"],
        ["sweep", "--lambda-min", "1", "--lambda-max", "2", "--steps", "2"],
    ],
    ids=["solve", "sweep"],
)
def test_solve_and_sweep_load_the_solvers(tmp_path, argv):
    argv = argv[:1] + [str(ROOT / "configs" / "example3_sweep.json")] + argv[1:]
    script = (
        "import sys\n"
        "import pklap.cli as cli\n"
        "before = 'pklap.solvers' in sys.modules\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print('RESULT', before, 'pklap.solvers' in sys.modules)\n"
    )
    assert _run(script, tmp_path)[-1] == "RESULT False True"
