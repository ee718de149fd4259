"""The sampled A.4 - A.9 draws against their per-sample reference.

`check_growth` (A.4, A.5) and `check_bounds` (A.7 - A.9) draw each
condition's samples from one seeded generator, one array call per drawn
quantity and the same calls at every n: the periods K with one
`rng.integers` call, a (2, count) block of uniforms with one `rng.random`
call, and then the points' signs (n = 1, one `rng.random` call) or unit
directions (n > 1, `_unit_directions`); A.7 draws its box with one
`rng.uniform` call.  The tests catch the K and U that `_sampled_condition`
receives with a spy while the checks run, and compare them bitwise with
`_loop_draw` below, which takes the same stream one uniform, one sign and
one direction at a time and builds each sample alone on Python floats.
The last tests pin what the array calls guarantee: the same key gives the
same samples, a condition makes as many generator calls at any budget, and
a larger gradcheck `--points` extends its point set; and they count the
generators a check builds.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pklap.cli as cli
from pklap import analysis
from pklap.analysis import BoundProfile, check_bounds, check_growth, rng_for
from pklap.core import Nonlinearity
from pklap.nonlinearities import make_example3, make_power
from test_cli import CONFIGS, _bench_check_configs
from test_stacked_checks import _unit_direction

N1_PERIODS = (2, 3, 4, 5, 8, 9, 12)
BOX = 1e3  # the half-width of A.7's box, analysis._A7_BOX


def _loop_draw(rng, m, n, count, magnitudes):
    """count samples of a signed-point condition, drawn one at a time: the
    periods (one integers call), the 2 * count uniforms, then a sign or a
    direction for each u1 and then for each u2.  magnitudes(d0, d1) gives
    a sample's (|u1|, |u2|) from its two uniforms."""
    K = rng.integers(1, m + 1, size=count)
    D = [[rng.random() for _ in range(count)] for _ in range(2)]
    if n == 1:
        orient = [[1.0 if rng.random() < 0.5 else -1.0 for _ in range(count)] for _ in range(2)]
    else:
        orient = [[_unit_direction(rng, n, 1, False).reshape(-1) for _ in range(count)] for _ in range(2)]
    U = np.empty((2, count, n))
    for i in range(count):
        for j, mag in enumerate(magnitudes(D[0][i], D[1][i])):
            U[j, i] = mag * orient[j][i]
    return K, U


def _loop_box(rng, m, n, count):
    """A.7's samples: the periods, then each box coordinate of each u1 and
    then of each u2, one uniform call at a time."""
    K = rng.integers(1, m + 1, size=count)
    U = np.array([[[rng.uniform(-BOX, BOX) for _ in range(n)] for _ in range(count)] for _ in range(2)])
    return K, U


def _growth_refs(g):
    return {
        "A.4": (4, lambda d0, d1: (g.M + 10.0 * d0, g.M + 10.0 * d1)),
        "A.5": (5, lambda d0, d1: (2.0 * g.eta * d0 * d1, 2.0 * g.eta * d0 * (1.0 - d1))),
    }


def _bound_refs(b):
    return {
        "A.7": (7, None),
        "A.8": (8, lambda d0, d1: (b.rho1 * (1.0 - d0 * 0.999999), b.rho1 * (1.0 - d1 * 0.999999))),
        "A.9": (
            9,
            lambda d0, d1: (
                b.rho2 + (b.rho3 - b.rho2) * (1.0 - d0 * 0.999999),
                b.rho2 + (b.rho3 - b.rho2) * (1.0 - d1 * 0.999999),
            ),
        ),
    }


def _caught_samples(run):
    """(name, K, U) of every _sampled_condition call made while run() runs."""
    seen = []
    real = analysis._sampled_condition

    def spy(name, nl, K, U, seed, margin):
        seen.append((name, K, U))
        return real(name, nl, K, U, seed, margin)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_sampled_condition", spy)
        run()
    return seen


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_samples_match(got, refs, m, n, count, seed):
    assert [name for name, _, _ in got] == list(refs)
    for name, K, U in got:
        key, magnitudes = refs[name]
        rng = rng_for(seed, key)
        want = _loop_box(rng, m, n, count) if magnitudes is None else _loop_draw(rng, m, n, count, magnitudes)
        assert _same(K, want[0]), f"seed {seed}, count {count}: {name} K differs"
        assert _same(U, want[1]), f"seed {seed}, count {count}: {name} U differs"


_CACHE = {}


def _families(m, n=1):
    """(nonlinearity, growth, bound profile) at period m, built once."""
    if (m, n) not in _CACHE:
        _, g = make_power(m, 1.0, 2.0, 3.0, 2.5)
        if n == 1:
            nl, b = make_example3(m)
        else:

            def F(K, U1, U2):
                return np.sum(U1**2, axis=1) - 0.25 * np.sum(U2**2, axis=1) * K

            def dF(K, U1, U2):
                return 2.0 * U1, -0.5 * U2 * K[:, None]

            nl = Nonlinearity(m, F, dF, n=2)
            b = BoundProfile(C=1.0, rho1=0.5, rho2=1.3, rho3=1.6)
        _CACHE[m, n] = (nl, g, b)
    return _CACHE[m, n]


def _check_both(m, n, budget, seed):
    nl, g, b = _families(m, n)
    count = max(budget, 100)
    got = _caught_samples(lambda: check_growth(nl, g, sample_budget=budget, seed=seed))
    _assert_samples_match(got, _growth_refs(g), m, n, count, seed)
    got = _caught_samples(lambda: check_bounds(nl, b, sample_budget=budget, seed=seed))
    _assert_samples_match(got, _bound_refs(b), m, n, count, seed)


@pytest.mark.parametrize("m", N1_PERIODS)
def test_n1_draws_match_the_loop_over_seeds(m):
    for seed in range(20):
        _check_both(m, 1, 100, seed)


@pytest.mark.parametrize("budget", [101, 801, 4000])
@pytest.mark.parametrize("m", [3, 12])
def test_odd_and_default_counts_match_the_loop(m, budget):
    _check_both(m, 1, budget, seed=11)


@pytest.mark.parametrize("m", [3, 4])
def test_n2_draws_match_the_loop(m):
    for seed in range(3):
        _check_both(m, 2, 100, seed)


@settings(max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 40),
    budget=st.integers(1, 700),
)
def test_draws_match_the_loop_property(seed, m, budget):
    _check_both(m, 1, budget, seed)


def test_rng_for_builds_a_pcg64_generator():
    # every pinned sample stream is a PCG64 stream
    rng = rng_for(3, 4)
    assert isinstance(rng, np.random.Generator)
    assert type(rng.bit_generator) is np.random.PCG64


def test_the_same_key_gives_the_same_samples():
    nl, g, b = _families(5, 2)

    def samples(seed):
        return _caught_samples(
            lambda: (check_growth(nl, g, sample_budget=300, seed=seed), check_bounds(nl, b, 300, seed=seed))
        )

    first, again, other = samples(4), samples(4), samples(5)
    assert len(first) == 5
    for (name, K, U), (_, K2, U2), (_, K3, U3) in zip(first, again, other):
        assert _same(K, K2) and _same(U, U2), name
        assert not _same(U, U3), name


@pytest.mark.parametrize("name", ["A.4", "A.5", "A.8", "A.9"])
def test_n2_points_have_the_drawn_magnitudes_and_unit_directions(name):
    """Each n = 2 point is its drawn magnitude times a unit direction: the
    magnitudes come from the condition's uniforms, in their range."""
    nl, g, b = _families(4, 2)
    caught = _caught_samples(
        lambda: (check_growth(nl, g, sample_budget=500, seed=2), check_bounds(nl, b, 500, seed=2))
    )
    got = {condition: U for condition, _, U in caught}
    refs = {**_growth_refs(g), **_bound_refs(b)}
    key, magnitudes = refs[name]
    rng = rng_for(2, key)
    rng.integers(1, 5, size=500)
    D = rng.random((2, 500))
    mags = np.array([magnitudes(d0, d1) for d0, d1 in D.T.tolist()]).T
    U = got[name]
    norms = np.linalg.norm(U, axis=2)
    np.testing.assert_allclose(norms, mags, rtol=4e-16, atol=0)
    directions = U / mags[:, :, None]
    np.testing.assert_allclose(np.linalg.norm(directions, axis=2), 1.0, rtol=4e-16)
    # and the directions point every way: both signs in each component
    assert (directions > 0).any(axis=(0, 1)).all() and (directions < 0).any(axis=(0, 1)).all()


class _CountingGenerator:
    """A generator that counts the draw calls made on it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return counted


def _calls_per_key(run):
    calls = {}
    real = analysis.rng_for

    def counting(seed, *keys):
        return _CountingGenerator(real(seed, *keys), calls.setdefault(keys, []))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "rng_for", counting)
        run()
    return calls


@pytest.mark.parametrize("n", [1, 2])
def test_a_condition_makes_as_many_generator_calls_at_any_budget(n):
    nl, g, b = _families(3, n)

    def counts(budget):
        return _calls_per_key(
            lambda: (check_growth(nl, g, sample_budget=budget), check_bounds(nl, b, budget))
        )

    small, large = counts(100), counts(4000)
    assert small == large
    for key in [(4,), (5,), (8,), (9,)]:
        assert small[key] == ["integers", "random", "random" if n == 1 else "normal"]
    assert small[(7,)] == ["integers", "uniform"]


def test_a_larger_points_extends_the_gradcheck_point_set(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 3, "n": 1, "p": 2.5, "lambda": 1.0, "seed": 6,
                               "nonlinearity": {"builtin": "example2"}}))
    seen = []
    real = cli._gradcheck_errors

    def spy(u, prob, step):
        seen.append(u.copy())
        return real(u, prob, step)

    monkeypatch.setattr(cli, "_gradcheck_errors", spy)
    for points in (5, 12):
        out = str(tmp_path / f"grad{points}.json")
        assert cli.main(["gradcheck", str(cfg), "--points", str(points), "--output", out]) == cli.EXIT_OK
    few, many = seen
    assert few.shape == (5, 3, 1) and many.shape == (12, 3, 1)
    assert _same(many[:5], few)


def _generator_keys(run):
    """The keys of every generator that analysis and the CLI build while run runs."""
    keys = []
    real = analysis.rng_for

    def counting(seed, *key):
        keys.append(key)
        return real(seed, *key)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "rng_for", counting)
        mp.setattr(cli, "rng_for", counting)
        run()
    return keys


def test_a_bounded_check_builds_two_generators_per_lambda_star_radius(cold_caches, tmp_path):
    """The shipped example3 check: C.1 - C.3, A.7 - A.9, B.2/B.3, and then
    lambda-star's direction and fraction streams at each of its three
    radii.  Building the family draws nothing."""
    out = str(tmp_path / "check.json")
    config = str(CONFIGS / "example3_sweep.json")
    keys = _generator_keys(lambda: cli.main(["check", config, "--output", out]))
    assert keys == [(41,), (7,), (8,), (9,), (23,)] + [
        (key, ir) for ir in range(3) for key in (47, 48)
    ]


def test_a_check_batch_instance_builds_82_generators(cold_caches, tmp_path):
    """check and a 50-point gradcheck on the nine configs of one benchmark
    check batch, in a process that has run neither, build 76 generators
    (the name keeps the 82 of a sampled radii guard in example3's
    construction, which drew three more streams for each of its two
    shapes): 83 when each check ran its own xi descent (example1_m8_varp
    and power_m8_varp share (m, n, p_plus) = (8, 1, 3)), 89 when A.6 drew
    its three variants apart also where they share one exponent pair
    (power_borderline and the two power varp configs, constant s = r), and
    1277 when lambda-star drew one stream per sample."""

    def run():
        for name, cfg in _bench_check_configs(7).items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert cli.main(["check", str(path), "--output", str(tmp_path / "c.json")]) == cli.EXIT_OK
            argv = ["gradcheck", str(path), "--points", "50", "--output", str(tmp_path / "g.json")]
            assert cli.main(argv) == cli.EXIT_OK

    keys = _generator_keys(run)
    assert len(keys) == 76
    assert keys.count((8, 1)) == keys.count((12, 1)) == 1  # one xi descent per key
    assert keys.count((7,)) == 2  # A.7 of each example3 check
    assert sum(key[0] == 6 for key in keys) == 4 * 3 + 3 * 1  # A.6 streams of seven growth configs
    assert sum(len(key) == 2 and key[0] in (47, 48) for key in keys) == 12
