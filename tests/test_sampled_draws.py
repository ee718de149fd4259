"""The sampled A.4 - A.9 draws against their per-sample reference.

`check_growth` (A.4, A.5) and `check_bounds` (A.7 - A.9) take their samples
from `analysis._draw`, one seeded generator per condition.  However it
draws them, the arrays K, U1, U2 and extra it returns must be bitwise those
of `_loop_draw` below: one sample at a time, each with its own scalar
`rng.integers`, `rng.random` and `rng.uniform` calls, in the order the five
draw functions below make them.  The tests catch `_draw`'s results with a
spy while the checks run and compare them with that loop on a fresh
generator of the same key.  The last tests call `_draw` directly: where a
block cannot be decoded (a k numpy would draw again, or a half word left
in the generator's buffer) it must restore the generator and loop, and a
decoded block must leave the generator where the loop does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pklap import analysis
from pklap.analysis import BoundProfile, _unit_direction, check_bounds, check_growth, rng_for
from pklap.core import Nonlinearity
from pklap.nonlinearities import make_example3, make_power

N1_PERIODS = (2, 3, 4, 5, 8, 9, 12)
BOX = 1e3  # check_bounds' default box_halfwidth


def _signed_point(rng, magnitude, n):
    if n == 1:
        return magnitude * (1.0 if rng.random() < 0.5 else -1.0)
    v = _unit_direction(rng, n, 1, zero_mean=False).reshape(-1)
    return magnitude * v


def _loop_draw(rng, count, n, draw):
    """count samples of draw(rng) -> (k, u1, u2, *extra), one at a time."""
    K = np.empty(count, dtype=np.int64)
    U1 = np.empty((count, n))
    U2 = np.empty((count, n))
    extra = None
    for i in range(count):
        K[i], U1[i], U2[i], *rest = draw(rng)
        if rest:
            if extra is None:
                extra = np.empty((count, len(rest)))
            extra[i] = rest
    return K, U1, U2, extra


def _growth_draws(g, m, n):
    def draw_a4(rng):
        k = int(rng.integers(1, m + 1))
        m1 = g.M + 10.0 * rng.random()
        m2 = g.M + 10.0 * rng.random()
        return k, _signed_point(rng, m1, n), _signed_point(rng, m2, n), m1, m2

    def draw_a5(rng):
        k = int(rng.integers(1, m + 1))
        total = 2.0 * g.eta * rng.random()
        t = rng.random()
        return k, _signed_point(rng, t * total, n), _signed_point(rng, (1.0 - t) * total, n)

    return [(4, draw_a4), (5, draw_a5)]


def _bound_draws(b, m, n):
    def draw_a7(rng):
        k = int(rng.integers(1, m + 1))
        u1 = rng.uniform(-BOX, BOX, size=n)
        return k, u1, rng.uniform(-BOX, BOX, size=n)

    def draw_a8(rng):
        k = int(rng.integers(1, m + 1))
        u1 = _signed_point(rng, b.rho1 * (1.0 - rng.random() * 0.999999), n)
        return k, u1, _signed_point(rng, b.rho1 * (1.0 - rng.random() * 0.999999), n)

    def draw_a9(rng):
        k = int(rng.integers(1, m + 1))
        r1 = b.rho2 + (b.rho3 - b.rho2) * (1.0 - rng.random() * 0.999999)
        r2 = b.rho2 + (b.rho3 - b.rho2) * (1.0 - rng.random() * 0.999999)
        return k, _signed_point(rng, r1, n), _signed_point(rng, r2, n)

    return [(7, draw_a7), (8, draw_a8), (9, draw_a9)]


def _caught_draws(run):
    """The results of every _draw call made while run() runs, in order."""
    seen = []
    real = analysis._draw

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_draw", spy)
        run()
    return seen


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_draws(got, want, what=""):
    for name, a, b in zip(("K", "U1", "U2", "extra"), got, want):
        assert _same(a, b), f"{what}{name} differs"


def _assert_draws_match(got, draws, count, n, seed):
    assert len(got) == len(draws)
    for out, (key, draw) in zip(got, draws):
        want = _loop_draw(rng_for(seed, key), count, n, draw)
        _assert_same_draws(out, want, f"seed {seed}, count {count}: A.{key} ")


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

            def F2(K, U1, U2):
                return 2.0 * U1

            def F3(K, U1, U2):
                return -0.5 * U2 * K[:, None]

            nl = Nonlinearity.from_arrays(m, F, F2, F3, n=2)
            b = BoundProfile(C=1.0, rho1=0.5, rho2=1.3, rho3=1.6)
        _CACHE[m, n] = (nl, g, b)
    return _CACHE[m, n]


def _check_both(m, n, budget, seed):
    nl, g, b = _families(m, n)
    count = max(budget, 100)
    got = _caught_draws(lambda: check_growth(nl, g, sample_budget=budget, seed=seed))
    _assert_draws_match(got, _growth_draws(g, m, n), count, n, seed)
    got = _caught_draws(lambda: check_bounds(nl, b, sample_budget=budget, seed=seed))
    _assert_draws_match(got, _bound_draws(b, m, n), count, n, seed)


@pytest.mark.parametrize("m", N1_PERIODS)
def test_n1_draws_match_the_loop_over_seeds(m):
    for seed in range(20):
        _check_both(m, 1, 100, seed)


@pytest.mark.parametrize("budget", [101, 801, 4000])
@pytest.mark.parametrize("m", [3, 12])
def test_odd_and_default_counts_match_the_loop(m, budget):
    _check_both(m, 1, budget, seed=11)


@pytest.mark.parametrize("m", [2, 5, 8])
def test_example3_guard_draws_match_the_loop(m):
    # make_example3 re-checks its bound profile with check_bounds at budget 800, seed 7
    got = _caught_draws(lambda: make_example3(m))
    _, b = make_example3(m)
    _assert_draws_match(got, _bound_draws(b, m, 1), 800, 1, 7)


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
    # the block decoding of the n = 1 draws reads PCG64's raw words
    rng = rng_for(3, 4)
    assert isinstance(rng, np.random.Generator)
    assert type(rng.bit_generator) is np.random.PCG64


# Direct _draw calls: A.4's formula over _draw's source, and its scalar reference.
GROWTH = make_power(2, 1.0, 2.0, 3.0, 2.5)[1]


def _a4_formula(src):
    k = src.k()
    m1 = GROWTH.M + 10.0 * src.u()
    m2 = GROWTH.M + 10.0 * src.u()
    return k, src.point(m1), src.point(m2), m1, m2


def _a4_reference(m):
    return _growth_draws(GROWTH, m, 1)[0][1]


def test_forced_rejection_falls_back_to_the_loop_on_the_restored_stream():
    # every k is rejected, so each condition restores its generator and loops
    nl, g, b = _families(12)
    asked = []

    def threshold(m):
        asked.append(m)
        return 2**32

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_lemire_threshold", threshold)
        got = _caught_draws(lambda: check_growth(nl, g, sample_budget=301, seed=5))
        _assert_draws_match(got, _growth_draws(g, 12, 1), 301, 1, 5)
        got = _caught_draws(lambda: check_bounds(nl, b, sample_budget=301, seed=5))
        _assert_draws_match(got, _bound_draws(b, 12, 1), 301, 1, 5)
    assert asked == [12] * 5


def test_a_large_period_rejects_and_falls_back():
    # (2^32 - m) % m = 2^30 at m = 3 * 2^30: a quarter of the 32-bit draws is rejected
    m = 3 * 2**30
    rng = rng_for(0, 1)
    state = rng.bit_generator.state
    assert analysis._decoded_draws(rng, 101, m, 4) is None
    assert rng.bit_generator.state == state
    got = analysis._draw(rng_for(0, 1), 101, m, 1, 4, _a4_formula)
    _assert_same_draws(got, _loop_draw(rng_for(0, 1), 101, 1, _a4_reference(m)))


@pytest.mark.parametrize("count", [100, 101])
def test_the_decoded_block_leaves_the_generator_where_the_loop_does(count):
    rng, ref = rng_for(2, 4), rng_for(2, 4)
    got = analysis._draw(rng, count, 9, 1, 4, _a4_formula)
    _assert_same_draws(got, _loop_draw(ref, count, 1, _a4_reference(9)))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()
    assert rng.integers(1, 10) == ref.integers(1, 10)


def test_a_buffered_half_word_falls_back_to_the_loop():
    rng, ref = rng_for(4, 4), rng_for(4, 4)
    rng.integers(1, 5)
    ref.integers(1, 5)
    assert rng.bit_generator.state["has_uint32"] == 1
    got = analysis._draw(rng, 100, 9, 1, 4, _a4_formula)
    _assert_same_draws(got, _loop_draw(ref, 100, 1, _a4_reference(9)))


@pytest.mark.parametrize("n", [1, 2])
def test_an_infinite_box_raises_as_uniform_does(n):
    def draw(src):
        return src.k(), src.box(-1e308, 1e308), src.box(-1e308, 1e308)

    with pytest.raises(OverflowError):
        analysis._draw(rng_for(0, 7), 100, 5, n, 2, draw)
