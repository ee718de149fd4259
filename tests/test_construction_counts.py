"""What building a family costs, pinned by counts: constructing a built-in
or loading a config builds one Nonlinearity, calls its F kernel once, on
the m pairs (k, 0, 0), never calls dF or f_direct, draws no random
generator and runs no sampled check."""

import collections

import numpy as np
import pytest

import pklap.cli as cli
import pklap.nonlinearities as nonlinearities
from pklap import analysis
from pklap.core import Nonlinearity
from test_cli import CONFIGS, _bench_check_configs

SHIPPED = ("example1_m4", "example2_m3", "example3_sweep", "power_borderline")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the constructions of Nonlinearity, the calls of the F, dF and
    f_direct of every family it builds (F also keeps its arguments), the
    random generators built and the check_bounds calls."""
    calls = collections.Counter()
    origin = []
    init = Nonlinearity.__init__

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            if name == "F":
                origin.append(args)
            return fn(*args, **kwargs)

        return call

    def spied(self, m, F, dF, f_direct=None, **kwargs):
        calls["Nonlinearity"] += 1
        if f_direct is not None:
            f_direct = counted("f_direct", f_direct)
        init(self, m, counted("F", F), counted("dF", dF), f_direct, **kwargs)

    monkeypatch.setattr(Nonlinearity, "__init__", spied)
    monkeypatch.setattr(np.random, "default_rng", counted("rng", np.random.default_rng))
    for module in (analysis, nonlinearities, cli):
        if getattr(module, "check_bounds", None) is analysis.check_bounds:
            monkeypatch.setattr(module, "check_bounds", counted("check_bounds", analysis.check_bounds))
    return calls, origin


def _assert_one_origin_call(calls, origin, m):
    assert calls["Nonlinearity"] == calls["F"] == 1
    assert calls["dF"] == calls["f_direct"] == 0
    assert calls["rng"] == calls["check_bounds"] == 0
    K, U1, U2 = origin[0]
    assert K.tolist() == list(range(1, m + 1))
    assert U1.shape == U2.shape == (m, 1) and not U1.any() and not U2.any()


_BATCH = _bench_check_configs(0)


@pytest.mark.parametrize("config", sorted(_BATCH))
def test_building_a_builtin_calls_F_once(kernel_calls, config):
    """At the m of every shipped and check-batch config."""
    calls, origin = kernel_calls
    raw = _BATCH[config]
    name, m = raw["nonlinearity"]["builtin"], raw["m"]
    nonlinearities.make_builtin(name, m, raw["nonlinearity"]["params"])
    _assert_one_origin_call(calls, origin, m)


@pytest.mark.parametrize("config", SHIPPED)
def test_loading_a_shipped_config_calls_F_once(kernel_calls, config):
    calls, origin = kernel_calls
    loaded = cli.load_config(str(CONFIGS / f"{config}.json"))
    _assert_one_origin_call(calls, origin, loaded.problem.m)
