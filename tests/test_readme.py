"""Every fenced python block of README.md runs as written."""

import os
import re

import pytest

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
