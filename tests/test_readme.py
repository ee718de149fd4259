"""Every fenced python block of README.md runs as written, and the README's
list of solver keys matches SolverConfig."""

import dataclasses
import os
import re

import pytest

from pklap.solvers import SolverConfig

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _python_blocks():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)


def test_readme_has_python_blocks():
    assert _python_blocks()


@pytest.mark.parametrize("index", range(len(_python_blocks())))
def test_readme_python_block_runs(index, capsys):
    code = _python_blocks()[index]
    exec(compile(code, f"README.md python block {index}", "exec"), {"__name__": "__readme__"})
    # the library example prints one line per record it found
    assert capsys.readouterr().out.strip()


def test_readme_solver_keys_match_solver_config():
    """The README's "`solver` accepts:" list names exactly the SolverConfig
    fields, so a field added or removed on either side fails here."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    match = re.search(r"^`solver` accepts: (.*?)\.(?:\s|$)", text, re.S | re.M)
    assert match, "README has no `solver` accepts: line"
    listed = re.findall(r"`(\w+)`", match.group(1))
    assert len(listed) == len(set(listed))
    assert set(listed) == {f.name for f in dataclasses.fields(SolverConfig)}
