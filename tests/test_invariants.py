"""Symmetries of the action that the mathematics guarantees.

- Sign flip: each built-in potential is even, so J(-u) = J(u) and the
  residual is odd, g(-u) = -g(u).  The built-ins see u only through |.|,
  even powers or odd partials, and negation is exact, so both hold exactly.
- Cyclic shift: when p, F and lambda do not depend on k (the power family at
  constant p, s and r), shifting u shifts the residual.  The residual is
  row-local arithmetic, so the shift holds bitwise; the action sums the same
  terms in another order, so it holds to rounding.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pklap.core import ExponentFunction, Problem
from pklap.functional import action, mu, potential
from pklap.nonlinearities import make_builtin, make_power
from pklap.operators import residual_values

BUILTINS = {
    "example1": (4, {}),
    "example2": (3, {}),
    "example3": (4, {}),
    "power": (5, {"a": 1.0, "b": 0.5, "s": [2.0, 2.5, 3.0, 3.5, 4.0], "r": 2.5}),
}

coords = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1.0, -1.0]))
exponents = st.floats(1.1, 4.0)
lambdas = st.floats(0.01, 10.0)


@functools.lru_cache(maxsize=None)
def _builtin(name):
    m, params = BUILTINS[name]
    return make_builtin(name, m, params).nonlinearity


@settings(max_examples=200)
@given(name=st.sampled_from(sorted(BUILTINS)), lam=lambdas, data=st.data())
def test_even_builtins_sign_flip(name, lam, data):
    nl = _builtin(name)
    m = nl.m
    p = data.draw(st.lists(exponents, min_size=m, max_size=m))
    u = np.array(data.draw(st.lists(coords, min_size=m, max_size=m))).reshape(m, 1)
    prob = Problem(m=m, n=1, exponent=ExponentFunction(np.array(p)), nonlinearity=nl, lam=lam)
    assert action(-u, prob) == action(u, prob)
    # == rather than bit patterns: a zero difference is +0.0 at -u and -0.0
    # in the negated residual, and only the sign of such zeros may differ
    assert np.array_equal(residual_values(-u, prob), -residual_values(u, prob))


@settings(max_examples=200)
@given(
    m=st.integers(2, 12),
    p=exponents,
    s=st.floats(2.0, 4.0),
    r=st.floats(2.0, 4.0),
    a=st.floats(0.1, 2.0),
    b=st.floats(0.1, 2.0),
    lam=lambdas,
    data=st.data(),
)
def test_power_family_cyclic_shift(m, p, s, r, a, b, lam, data):
    nl, _ = make_power(m, a, b, s, r)
    prob = Problem(m=m, n=1, exponent=ExponentFunction.constant(p, m), nonlinearity=nl, lam=lam)
    u = np.array(data.draw(st.lists(coords, min_size=m, max_size=m))).reshape(m, 1)
    shifted = np.roll(u, 1, axis=0)
    g = residual_values(u, prob)
    g_shifted = residual_values(shifted, prob)
    assert np.array_equal(g_shifted.view(np.uint64), np.roll(g, 1, axis=0).view(np.uint64))
    # the reordered sums round differently; bound by the size of their terms
    scale = mu(u, prob) + lam * abs(potential(u, prob))
    assert abs(action(shifted, prob) - action(u, prob)) <= 1e-12 * scale
