"""Every fenced python block of README.md runs as written, and the README's
list of solver keys, its line-search block sizes, the xi descent's step cap,
its fixed settings and its entry points match the code."""

import os
import re

import pytest

import pklap
from pklap import analysis, core, functional
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
    assert set(listed) == set(SolverConfig._fields)


# The line search's block sizes, by the words that name it in the README
# paragraph that quotes them.
_BLOCK_OWNERS = {
    r"\bline search\b": core._SEARCH_BLOCKS,
}


def test_readme_block_sizes_match_the_code():
    """Every "blocks of a, b and c" in the README sits in a paragraph that
    names the line search, and equals its blocks; the blocks are quoted."""
    with open(README, encoding="utf-8") as fh:
        paragraphs = re.split(r"\n\s*\n", fh.read())
    quoted = set()
    for text in paragraphs:
        text = " ".join(text.split())
        quotes = re.findall(r"blocks of (\d+(?:, \d+)* and \d+)", text)
        if not quotes:
            continue
        owners = [word for word in _BLOCK_OWNERS if re.search(word, text)]
        assert len(owners) == 1, text
        for quote in quotes:
            sizes = tuple(int(v) for v in re.findall(r"\d+", quote))
            assert sizes == _BLOCK_OWNERS[owners[0]], text
        quoted.add(owners[0])
    assert quoted == set(_BLOCK_OWNERS)


def test_readme_step_cap_matches_the_xi_descent():
    """The 2^k of every "step cap of 2^k" in the README is the xi descent's
    _XI_STEP_CAP."""
    with open(README, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    quotes = re.findall(r"step cap of 2\^(\d+)", text)
    assert quotes and all(2.0 ** int(q) == analysis._XI_STEP_CAP for q in quotes)


def test_readme_entry_points_resolve():
    """Every backticked name of the README's "Useful entry points" paragraph,
    and every name in pklap.__all__, is an attribute of pklap."""
    with open(README, encoding="utf-8") as fh:
        paragraphs = re.split(r"\n\s*\n", fh.read())
    entry = [p for p in paragraphs if p.startswith("Useful entry points:")]
    assert len(entry) == 1
    names = re.findall(r"`([^`]+)`", entry[0])
    assert names
    assert [n for n in names + list(pklap.__all__) if not hasattr(pklap, n)] == []


def _num(x):
    """x as the README writes it: 1e-5, not 1e-05."""
    return f"{x:g}".replace("e-0", "e-")


def test_readme_fixed_settings_match_the_code():
    """Each line of the README's "Fixed settings" list quotes the module
    constants it names."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("### Fixed settings", 1)[1].split("\n#", 1)[0]
    text = " ".join(section.split())
    quoted = [
        f"A.7-A.9 take {analysis._A_SAMPLES} samples each",
        f"and {analysis._A6_PER_SHELL} random t per period",
        f"C.1-C.3 take {analysis._C_SAMPLES} samples, at a slack of {_num(analysis.INEQUALITY_SLACK)}",
        f"{analysis._B2_DIRECTIONS} random directions with {analysis._B2_PER_DIRECTION} sample pairs",
        f"up to {_num(analysis._B2_EXPAND)} times the level radius",
        f"takes {analysis._PROBE_DIRECTIONS} random rays",
        f"takes {analysis._XI_STARTS} starts from seed {analysis._XI_SEED}",
        f"tolerance of {_num(analysis._XI_TOL)} or {analysis._XI_MAX_ITER} steps",
        f"step {_num(functional.HESSIAN_STEP_SCALE)} max(1, |u|)",
        f"within {_num(functional.MORSE_ZERO_TOL_SCALE)} max(1, spectral radius)",
    ]
    assert [q for q in quoted if q not in text] == []
