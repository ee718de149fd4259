"""The anticoercivity probe's structured rays.

`analysis.anticoercivity_probe` judges its 32 sampled rays and then the
fixed rays of `analysis._structured_rays` (coordinate rays and the top
eigenvectors of the m-cycle Laplacian, both signs, per component), all in
one `_action_or_limit_rows` call.  The structured rays replaced a gradient
ascent of J from the sampled rays with the highest values; the verdicts
that ascent gave on 248 probes are pinned here.
"""

import json
import math
import pathlib

import numpy as np
import pytest

import pklap.analysis as analysis
import pklap.cli as cli
from pklap.analysis import _structured_rays, anticoercivity_probe
from pklap.core import _row_norms
from test_cli import _bench_check_configs
from test_lockstep import FAMILIES, _problem
from test_stacked_checks import _dumps, _loop_probe

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _top_modes(m):
    return 1 if m % 2 == 0 else (2 if m > 1 else 0)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 1), (4, 2), (9, 1), (12, 3)])
def test_structured_rays_are_deterministic_unit_rows(m, n):
    """2 n (m + T) unit rows, the same bits on every call: per component,
    the coordinate rays and the top eigenvectors of the cycle Laplacian
    (eigenvalue 2 - 2 cos(2 pi floor(m/2) / m)), each with both signs."""
    rays = _structured_rays(m, n)
    T = _top_modes(m)
    assert rays.shape == (2 * n * (m + T), m * n)
    assert rays.tobytes() == _structured_rays(m, n).tobytes()
    assert np.allclose(_row_norms(rays), 1.0, rtol=0.0, atol=1e-15)
    laplacian = 2 * np.eye(m) - np.roll(np.eye(m), 1, axis=0) - np.roll(np.eye(m), -1, axis=0)
    top = 2 - 2 * math.cos(2 * math.pi * (m // 2) / m)
    for j, block in enumerate(rays.reshape(n, 2, m + T, m, n)):
        others = np.delete(block, j, axis=3)
        assert not others.any()
        plus, minus = block[..., j]
        assert minus.tolist() == (0.0 - plus).tolist()
        assert plus[:m].tolist() == np.eye(m).tolist()
        for mode in plus[m:]:
            assert np.allclose(laplacian @ mode, top * mode, atol=1e-12)


# The verdicts of the gradient ascent that the structured rays replaced
# (anticoercivity_probe(..., optimize_worst=True) before its removal),
# H holding and V violated: the seven configs with a growth profile of
# perfbench.workloads.check_configs(seed) at seeds 1 to 20, and the six
# test_lockstep.FAMILIES at three lambdas and seeds 0 to 5.
CONFIG_VERDICTS = {
    "example1_m4": "HHHHHHHHHHHHHHHHHHHH",
    "example1_m8_varp": "HHHHHHHHHHHHHHHHHHHH",
    "example2_m3": "VVVVVVVVVVVVVVVVVVVV",
    "example2_m9": "VVVVVVVVVVVVVVVVVVVV",
    "power_borderline": "HHHHHHHHHHHHHHHHHHHH",
    "power_m12_varp": "HHHHHHHHHHHHHHHHHHHH",
    "power_m8_varp": "HHHHHHHHHHHHHHHHHHHH",
}
FAMILY_VERDICTS = {
    ("example1", 0.3): "HHHHHH",
    ("example1", 1.3): "HHHHHH",
    ("example1", 5.0): "HHHHHH",
    ("example2", 0.3): "VVVVVV",
    ("example2", 1.3): "VVVVVV",
    ("example2", 5.0): "VVVVVV",
    ("example3", 0.3): "VVVVVV",
    ("example3", 1.3): "VVVVVV",
    ("example3", 5.0): "VVVVVV",
    ("n2", 0.3): "VVVVVV",
    ("n2", 1.3): "VVVVVV",
    ("n2", 5.0): "VVVVVV",
    ("per_point", 0.3): "VHHHHH",
    ("per_point", 1.3): "HHHHHH",
    ("per_point", 5.0): "HHHHHH",
    ("power", 0.3): "VVVVVV",
    ("power", 1.3): "VVVVVV",
    ("power", 5.0): "HHHHHH",
}
_CODE = {"holds_on_samples": "H", "violated": "V"}


def _load(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return cli.load_config(str(path))


def test_config_verdicts_match_the_ascent(tmp_path):
    got = {}
    for seed in range(1, 21):
        for name, cfg in _bench_check_configs(seed).items():
            loaded = _load(tmp_path, cfg)
            if loaded.builtin.growth is not None:
                rep = anticoercivity_probe(loaded.problem, seed=cfg["seed"])
                got[name] = got.get(name, "") + _CODE[rep.verdict]
    assert got == CONFIG_VERDICTS


def test_family_verdicts_match_the_ascent():
    got = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for name, lam in FAMILY_VERDICTS:
            prob = _problem(FAMILIES[name], lam=lam)
            got[name, lam] = "".join(_CODE[anticoercivity_probe(prob, seed=s).verdict] for s in range(6))
    assert got == FAMILY_VERDICTS


@pytest.mark.parametrize("name", ["example2_m3", "example2_m9"])
def test_example2_witness_is_a_structured_coordinate_ray(tmp_path, name):
    """example2's F = cos^2(k pi / m) (u1 u2)^4 vanishes on coordinate rays,
    where J = mu grows.  At benchmark seeds 1 to 20 every sampled ray
    passes, and the witness is the first structured ray, e_1."""
    for seed in range(1, 21):
        cfg = _bench_check_configs(seed)[name]
        rep = anticoercivity_probe(_load(tmp_path, cfg).problem, seed=cfg["seed"])
        m = cfg["m"]
        assert rep.verdict == "violated" and rep.witness["structured"]
        assert rep.witness["direction"].tolist() == np.eye(m)[0].tolist()
        assert rep.samples == 32 + 2 * (m + 2) and rep.detail["structured"] == 2 * (m + 2)


def test_probe_makes_few_stacked_calls(monkeypatch):
    """On the shipped example1_m4 the probe evaluates its 32 sampled and
    10 structured rays at 4 radii in one call of 168 rows."""
    loaded = cli.load_config(str(CONFIGS / "example1_m4.json"))
    calls = []
    real = analysis._action_or_limit_rows
    monkeypatch.setattr(
        analysis, "_action_or_limit_rows", lambda x, prob: calls.append(x.size // prob.dim) or real(x, prob)
    )
    rep = anticoercivity_probe(loaded.problem, seed=loaded.solver.seed)
    assert calls == [(32 + 10) * 4]
    assert rep.samples == 42


@pytest.mark.parametrize(
    "cfg,structured",
    [
        # the snapshot's power_p60 and power_p1100: a sampled ray is the witness
        ({"m": 2, "n": 1, "p": [60, 60], "lambda": 5.0, "seed": 3,
          "nonlinearity": {"builtin": "power", "params": {"a": 1.0, "b": 1.0, "s": 2.0, "r": 2.0}}},
         False),
        (dict(json.loads((CONFIGS / "power_borderline.json").read_text()), p=1100), False),
        # example2_m3: every sampled ray passes, and a structured ray fails
        (json.loads((CONFIGS / "example2_m3.json").read_text()), True),
    ],
)
def test_structured_witness_only_when_every_sampled_ray_passes(tmp_path, cfg, structured):
    loaded = _load(tmp_path, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _loop_probe(loaded.problem, seed=loaded.solver.seed)
    got = anticoercivity_probe(loaded.problem, seed=loaded.solver.seed)
    assert got.verdict == "violated" and got.witness["structured"] == structured
    assert got.samples == 32 + 2 * (cfg["m"] + _top_modes(cfg["m"]))
    assert _dumps(got) == _dumps(ref)
