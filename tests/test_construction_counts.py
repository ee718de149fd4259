"""What building a family costs, pinned by counts: constructing a built-in
or loading a config calls the F kernel once, on the m pairs (k, 0, 0), and
never calls dF or f_direct.  example3's radii guard builds its own family
and samples it through check_bounds; its kernel calls are counted apart."""

import collections

import pytest

import pklap.cli as cli
import pklap.nonlinearities as nonlinearities
from pklap.core import Nonlinearity
from test_cli import CONFIGS, _bench_check_configs

SHIPPED = ("example1_m4", "example2_m3", "example3_sweep", "power_borderline")


@pytest.fixture
def kernel_calls(monkeypatch, cold_caches):
    """Counts the calls of the F, dF and f_direct of every family the
    constructor builds (F also keeps its arguments), and those made inside
    example3's radii guard, which runs uncached here."""
    calls = collections.Counter()
    origin = []
    init = Nonlinearity.__init__

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            if name == "F":
                origin.append(args)
            return fn(*args)

        return call

    def spied(self, m, F, dF, f_direct=None, **kwargs):
        if f_direct is not None:
            f_direct = counted("f_direct", f_direct)
        init(self, m, counted("F", F), counted("dF", dF), f_direct, **kwargs)

    run_guard = nonlinearities._guard_message.__wrapped__

    def guard(*args):
        before = calls.copy()
        message = run_guard(*args)
        calls.update({f"guard_{k}": v for k, v in (calls - before).items()})
        calls["guard"] += 1
        return message

    monkeypatch.setattr(Nonlinearity, "__init__", spied)
    monkeypatch.setattr(nonlinearities, "_guard_message", guard)
    return calls, origin


def _assert_one_origin_call(calls, origin, name, m):
    guard = calls["guard"]
    assert guard == (1 if name == "example3" else 0)
    assert calls["F"] - calls["guard_F"] == 1
    assert calls["dF"] == calls["guard_dF"] == 0
    assert calls["f_direct"] == 0
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
    _assert_one_origin_call(calls, origin, name, m)


@pytest.mark.parametrize("config", SHIPPED)
def test_loading_a_shipped_config_calls_F_once(kernel_calls, config):
    calls, origin = kernel_calls
    loaded = cli.load_config(str(CONFIGS / f"{config}.json"))
    _assert_one_origin_call(calls, origin, loaded.builtin.name, loaded.problem.m)
