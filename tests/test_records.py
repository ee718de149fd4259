"""One record idiom: every immutable record of the package subclasses
`core._Record`, and none is a dataclass.

The base reads a record's fields from its annotations and their defaults
from its class body, and gives it construction by position or keyword,
validation in __post_init__, immutability, value equality and
namedtuple's _fields and _replace.  The tests below pin that behaviour on
the package's own records.
"""

import ast
import dataclasses
import inspect
import pathlib

import numpy as np
import pytest

from pklap import analysis, cli, core, functional, nonlinearities, solvers
from pklap.analysis import CheckReport
from pklap.core import ExponentFunction, PeriodicSequence, Problem, SolverConfig

PACKAGE = pathlib.Path(core.__file__).resolve().parent

RECORDS = {
    core: ("PeriodicSequence", "ExponentFunction", "Nonlinearity", "Problem", "SolutionRecord", "SolverConfig"),
    analysis: ("CheckReport", "GrowthProfile", "BoundProfile", "Thresholds", "LambdaStarEstimate"),
    functional: ("SpectralSummary",),
    nonlinearities: ("BuiltinSpec",),
    cli: ("LoadedConfig",),
    solvers: ("SolutionSet", "SweepResult"),
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def test_the_package_has_no_dataclass():
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Attribute) and node.attr == "dataclass"), name
            if isinstance(node, ast.Import):
                assert "dataclasses" not in [alias.name for alias in node.names], name
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                assert [alias.name for alias in node.names] == ["FrozenInstanceError"], name


def test_the_base_is_defined_once_and_every_record_subclasses_it():
    defined, subclassing = [], set()
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "_Record":
                defined.append(name)
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "_Record" for base in node.bases
            ):
                subclassing.add((name, node.name))
    assert defined == ["core"]
    expected = {(module.__name__.rsplit(".", 1)[1], cls) for module, names in RECORDS.items() for cls in names}
    assert len(expected) == 16
    assert subclassing == expected
    for module, names in RECORDS.items():
        for cls in names:
            assert issubclass(getattr(module, cls), core._Record)


def _problem(lam=1.0):
    spec = nonlinearities.make_builtin("power", 3, {"a": 1.0, "b": 1.0, "s": 3.0, "r": 3.0})
    return Problem(3, 1, ExponentFunction.constant(2.0, 3), spec.nonlinearity, lam)


def test_assignment_and_deletion_raise():
    cfg, seq = SolverConfig(), PeriodicSequence.zeros(3)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'starts'"):
        cfg.starts = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        seq.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'values'"):
        del seq.values
    assert cfg.starts == 16


def test_arguments_by_position_or_keyword():
    assert SolverConfig(8, 1e-9, seed=3) == SolverConfig(starts=8, residual_tol=1e-9, seed=3)
    with pytest.raises(TypeError, match="missing argument 'lam'"):
        Problem(3, 1, ExponentFunction.constant(2.0, 3), _problem().nonlinearity)
    with pytest.raises(TypeError, match="unexpected or repeated argument 'tol'"):
        SolverConfig(tol=1e-9)
    with pytest.raises(TypeError, match="unexpected or repeated argument 'starts'"):
        SolverConfig(8, starts=8)
    with pytest.raises(TypeError, match="takes 4 arguments, got 5"):
        SolverConfig(8, 1e-9, 1e-6, 0, 1)


def test_replace_validates_anew():
    with pytest.raises(ValueError, match="starts must be >= 1"):
        SolverConfig()._replace(starts=0)
    prob = _problem()
    with pytest.raises(ValueError, match="lambda must be a positive real"):
        prob._replace(lam=-1.0)
    with pytest.raises(TypeError, match="unexpected or repeated argument 'mu'"):
        prob._replace(mu=1.0)
    moved = prob._replace(lam=2.0)
    assert (moved.lam, prob.lam) == (2.0, 1.0)
    assert moved.exponent is prob.exponent


def test_fields_defaults_and_repr():
    assert SolverConfig._fields == ("starts", "residual_tol", "dedupe_tol", "seed")
    assert repr(SolverConfig()) == "SolverConfig(starts=16, residual_tol=1e-10, dedupe_tol=1e-06, seed=0)"
    assert ExponentFunction._fields == ("values",)
    assert ExponentFunction.constant(2.0, 3).all_two
    assert hash(SolverConfig()) == hash(SolverConfig())


def test_check_reports_do_not_share_a_detail():
    first, second = CheckReport("a", "holds", 0.0), CheckReport("a", "holds", 0.0)
    assert first.detail == {} and first.detail is not second.detail
    assert first == second


def test_signature_lists_the_fields():
    assert list(inspect.signature(Problem).parameters) == ["m", "n", "exponent", "nonlinearity", "lam"]
    assert inspect.signature(SolverConfig).parameters["seed"].default == 0


def test_a_post_init_patched_on_the_class_sees_every_construction(monkeypatch):
    """The benchmark counts constructions by replacing
    PeriodicSequence.__post_init__ on the class, after import."""
    count = []
    original = PeriodicSequence.__dict__["__post_init__"]

    def counted(obj):
        count.append(1)
        return original(obj)

    monkeypatch.setattr(PeriodicSequence, "__post_init__", counted)
    u = PeriodicSequence(np.ones(3))
    v = PeriodicSequence.from_flat(np.zeros(3), 3)
    w = (u + v)._replace(values=np.ones(3))
    assert len(count) == 4
    assert w.values.flags.writeable is False
