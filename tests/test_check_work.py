"""The work of `pklap check`, counted, so that a leaner check provably
evaluates what it reports and nothing it discards.

Every term of the action and every residual goes through
`operators._stack_pass`, under whichever module name calls it, and every
value of F through `Nonlinearity._F_points`.  For each of the nine
configs of the check benchmark at run seed 1, the rows the pass receives
for each term it is asked for, and the points the F kernel receives, are
counted over one `check`, from loading the config to writing its report.
The counts depend only on the configs and their seeds.

Before B.2/B.3 asked the pass for the potential alone, it also took mu on
all 44 * 91 = 4004 of its points and discarded it: the two example3
configs then counted 5207 mu rows, where they now count the 1203 of the
lambda-star estimate.  Every other count is as it was then.
"""

import json
import warnings

import pytest

import pklap.analysis as analysis
import pklap.cli as cli
import pklap.operators as operators
from pklap.core import Nonlinearity
from test_lean_rounds import _workloads


def _check_configs():
    """The check benchmark's configs at run seed 1."""
    return _workloads().check_configs(1)


def _count_work(monkeypatch):
    """Spies on the stacked pass and the F kernel; returns the dict they fill."""
    seen = {"mu_rows": 0, "potential_rows": 0, "residual_rows": 0, "F_points": 0}
    real_pass, real_F = operators._stack_pass, Nonlinearity._F_points

    def stack_pass(vals, prob, mu=False, potential=False, residual=False):
        for term, asked in (("mu", mu), ("potential", potential), ("residual", residual)):
            seen[term + "_rows"] += len(vals) if asked else 0
        return real_pass(vals, prob, mu=mu, potential=potential, residual=residual)

    def F_points(self, K, U1, U2):
        seen["F_points"] += K.size
        return real_F(self, K, U1, U2)

    for module in (operators, analysis):
        monkeypatch.setattr(module, "_stack_pass", stack_pass)
    monkeypatch.setattr(Nonlinearity, "_F_points", F_points)
    return seen


@pytest.mark.parametrize("name", sorted(_check_configs()))
def test_check_work(monkeypatch, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_check_configs()[name]))
    seen = _count_work(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # an unconverged xi
        assert cli.main(["check", str(path), "--output", str(tmp_path / "check.json")]) == cli.EXIT_OK
    assert seen == PINNED[name]


PINNED = {
    "example1_m4": {"mu_rows": 168, "potential_rows": 168, "residual_rows": 0, "F_points": 20964},
    "example1_m8_varp": {"mu_rows": 200, "potential_rows": 200, "residual_rows": 0, "F_points": 34184},
    "example2_m3": {"mu_rows": 168, "potential_rows": 168, "residual_rows": 0, "F_points": 17723},
    "example2_m9": {"mu_rows": 216, "potential_rows": 216, "residual_rows": 0, "F_points": 37601},
    "example3_m8_Y": {"mu_rows": 1203, "potential_rows": 5208, "residual_rows": 0, "F_points": 53672},
    "example3_sweep": {"mu_rows": 1203, "potential_rows": 5208, "residual_rows": 0, "F_points": 22418},
    "power_borderline": {"mu_rows": 152, "potential_rows": 152, "residual_rows": 0, "F_points": 10354},
    "power_m12_varp": {"mu_rows": 232, "potential_rows": 232, "residual_rows": 0, "F_points": 23084},
    "power_m8_varp": {"mu_rows": 200, "potential_rows": 200, "residual_rows": 0, "F_points": 17800},
}
