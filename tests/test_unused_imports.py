"""No module of the package (except `__init__.py`, which re-exports), of
the tests or of the tools imports a name that it never reads, and the
package defines no private module-level name that none of its modules
reads.

A moved function leaves its old imports behind where nothing else notices
them, and a removed caller leaves its private helpers and constants behind.
An import whose statement carries `# noqa: F401` is kept on purpose (for
its side effect of loading a module) and is exempt, and so is a private
name that the benchmark's tracer wraps by name (the seam tables of
`perfbench/tracer.py`, read from the file).  The package's third-party
imports are also exactly its declared runtime dependencies.
"""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "pklap").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
MODULES += sorted((ROOT / "tests").glob("*.py"))
MODULES += sorted((ROOT / "tools").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """The names that source's import statements bind and that no name
    expression of the module reads, as "line: name"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{node.lineno}: {name}")
    return unused


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(tau)\n"
    assert _unused_imports(source) == ["1: os", "3: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private names (one leading underscore) that a top-level
    statement of a module in sources (module name -> source) binds and
    that no module reads, as a name, an attribute or an imported name, as
    "module.name"."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            unread += [
                f"{module}.{name}"
                for name in bound
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return unread


def _tracer_seams() -> set[str]:
    """"module.name" of every package function and class that
    perfbench/tracer.py wraps, from its seam tables."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    seams = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "").endswith("_SEAMS"):
            seams.update(f"{row[1]}.{row[2]}" for row in ast.literal_eval(node.value))
    return seams


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "a": "_USED = 1\n_BUDGET = 800\n\ndef _family(m):\n    return m\n\ndef f():\n    return _USED\n",
        "b": "from .a import f\n\nclass _Kept:\n    pass\n\ndef g(x):\n    return x._Kept\n",
    }
    assert _unread_private_names(sources) == ["a._BUDGET", "a._family"]


def test_the_seam_tables_are_read():
    assert {"solvers._same_solution", "cli._atomic_write", "core.Nonlinearity"} <= _tracer_seams()


def test_no_unread_private_names():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert set(_unread_private_names(sources)) - _tracer_seams() == set()


def test_third_party_imports_are_the_declared_dependencies():
    """A dependency that no module imports is not declared (scipy was, with
    no import), and every third-party module the package imports is."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}
    imported = set()
    for path in (ROOT / "src" / "pklap").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"pklap"} == declared == {"numpy"}
