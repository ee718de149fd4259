"""The stacked tail of find_multiple against its one-row forms.

After the lock-step Newton batch of a stage, find_multiple solves every
Newton step of a round with one stacked solve, compares each candidate
with all known solutions at once, and in the end builds and classifies the
kept solutions' records in stacks (one Hessian stencil, one eigvalsh, one
action call).  Each stacked path must give, row by row, the bits and the
warnings of its one-row case: _newton_step, morse_summary, one-row
_make_records calls and the pairwise _same_solution loop.  The sign-flip post-check is one residual call that
keeps the loop's verdict and failure order.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pklap import solvers
from pklap.core import EvaluationError, ExponentFunction, PeriodicSequence, Problem
from pklap.functional import _action_values, _morse_summaries, morse_summary
from pklap.nonlinearities import make_builtin
from pklap.operators import residual_values
from pklap.solvers import (
    SolverConfig,
    _canonical,
    _first_match,
    _KnownSolutions,
    _make_records,
    _newton_step,
    _newton_steps,
    _same_solution,
    _sign_flip_ok,
)

POWER = {"a": 1.0, "b": 0.5, "s": 3.0, "r": 2.5}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _problem(name, m, p=None, lam=1.3, params=None):
    with warnings.catch_warnings():
        # growth profiles with a vanishing alpha warn about their thresholds
        warnings.simplefilter("ignore", RuntimeWarning)
        nl = make_builtin(name, m, params or (POWER if name == "power" else None)).nonlinearity
    p = np.linspace(2.0, 3.5, m) if p is None else p
    return Problem(m=m, n=nl.n, exponent=ExponentFunction(p), nonlinearity=nl, lam=lam)


def _points(prob, count, seed):
    """Points from 0.1 to 100 in norm: the large ones give asymmetric FD
    Hessians, and so warnings."""
    rng = np.random.default_rng(seed)
    scales = np.array([0.1, 1.0, 3.0, 10.0, 30.0, 100.0])[np.arange(count) % 6]
    return rng.normal(size=(count, prob.dim)) * scales[:, None]


def _recorded(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, [(w.category, str(w.message)) for w in caught]


# --- stacked Newton steps -------------------------------------------------

def _step_stack():
    """Rows: regular, singular (least squares), an overflowing solve (least
    squares gives a finite step), a non-finite g (no step at all)."""
    jac = np.array([
        [[2.0, 1.0], [1.0, 3.0]],
        [[1.0, 2.0], [2.0, 4.0]],
        [[1e-300, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, 1.0]],
        [[4.0, -1.0], [0.5, 2.0]],
    ])
    g = np.array([[1.0, 2.0], [1.0, 1.0], [1e300, 1.0], [np.inf, 0.0], [-3.0, 0.25]])
    return jac, g


@pytest.mark.parametrize("rows", [[0, 1, 2, 3, 4], [0, 2, 3, 4], [0, 4], [1], [2], [3]])
def test_stacked_steps_match_each_row(rows):
    """With the singular row the stacked solve raises and every row takes
    _newton_step; without it the stack solves, and only the non-finite rows
    are redone."""
    jac, g = _step_stack()
    jac, g = jac[rows], g[rows]
    deltas, ok = _newton_steps(jac, g)
    assert deltas.shape == g.shape and ok.shape == (len(rows),)
    for b in range(len(rows)):
        ref = _newton_step(jac[b], g[b])
        assert ok[b] == (ref is not None)
        if ref is not None:
            assert _same_bits(deltas[b], ref)


def test_stacked_steps_cover_both_fallbacks(monkeypatch):
    """Count the per-row fallbacks: all five rows when the stack holds the
    singular matrix, only the two non-finite rows when it does not."""
    jac, g = _step_stack()
    calls = []
    real = solvers._newton_step
    monkeypatch.setattr(solvers, "_newton_step", lambda j, v: calls.append(1) or real(j, v))
    _, ok = _newton_steps(jac, g)
    assert len(calls) == 5 and ok.tolist() == [True, True, True, False, True]
    calls.clear()
    _, ok = _newton_steps(jac[[0, 2, 3, 4]], g[[0, 2, 3, 4]])
    assert len(calls) == 2 and ok.tolist() == [True, True, False, True]
    calls.clear()
    _newton_steps(jac[[0, 4]], g[[0, 4]])
    assert calls == []


@pytest.mark.parametrize(
    "jac, g",
    [([[np.nan]], [1.0]), ([[np.inf, 1.0], [0.0, 0.0]], [1.0, 1.0]), ([[0.0]], [np.inf])],
    ids=["nan_jacobian", "inf_singular_jacobian", "inf_residual"],
)
def test_a_non_finite_system_fails_its_step_without_least_squares(monkeypatch, jac, g):
    """Where the solve fails on a Jacobian or residual that is not finite,
    the step is None and LAPACK's least squares, whose SVD fails on such a
    matrix, is never called."""
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: pytest.fail("lstsq ran"))
    jac, g = np.array(jac), np.array(g)
    assert _newton_step(jac, g) is None
    _, ok = _newton_steps(jac[None], g[None])
    assert ok.tolist() == [False]


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 8), rows=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_stacked_steps_match_each_row_on_random_systems(dim, rows, seed):
    rng = np.random.default_rng(seed)
    jac = rng.normal(size=(rows, dim, dim))
    g = rng.normal(size=(rows, dim))
    deltas, ok = _newton_steps(jac, g)
    for b in range(rows):
        ref = _newton_step(jac[b], g[b])
        assert ok[b] and _same_bits(deltas[b], ref)


# --- stacked Morse classification -----------------------------------------

_MORSE_CASES = [
    (name, m)
    for name in ("example1", "example2", "example3", "power")
    for m in (2, 3, 4, 8)
    if not (name == "example1" and m == 3)  # example1 needs an even period
]


@pytest.mark.parametrize("name, m", _MORSE_CASES)
def test_stacked_morse_matches_morse_summary(name, m):
    prob = _problem(name, m)
    x = _points(prob, 12, seed=m)
    stacked, stacked_warnings = _recorded(lambda: _morse_summaries(x, prob))
    alone, alone_warnings = _recorded(
        lambda: [morse_summary(PeriodicSequence.from_flat(row, m, prob.n), prob) for row in x]
    )
    assert stacked_warnings == alone_warnings
    for got, ref in zip(stacked, alone, strict=True):
        assert _same_bits(got.eigenvalues, ref.eigenvalues)
        assert (got.negative_count, got.zero_count, got.positive_count) == (
            ref.negative_count, ref.zero_count, ref.positive_count
        )
        assert _same_bits(got.zero_tol, ref.zero_tol)
        assert got.classification == ref.classification
    # explicit zero tolerance
    for got, row in zip(_morse_summaries(x[:3], prob, zero_tol=1e-3), x[:3]):
        ref = morse_summary(PeriodicSequence.from_flat(row, m, prob.n), prob, zero_tol=1e-3)
        assert got.zero_tol == 1e-3 and got.classification == ref.classification


def test_stacked_morse_warnings_are_not_vacuous():
    """The large points give asymmetry warnings, one per row above the
    threshold, in row order; p < 2 warns once per row."""
    prob = _problem("example3", 8)
    _, caught = _recorded(lambda: _morse_summaries(_points(prob, 12, seed=8), prob))
    assert len(caught) >= 2
    assert all("asymmetry" in msg for _, msg in caught)
    low_p = _problem("example3", 4, p=np.full(4, 1.5))
    _, caught = _recorded(lambda: _morse_summaries(_points(low_p, 3, seed=1)[:3] * 0.01, low_p))
    assert sum("p_minus < 2" in msg for _, msg in caught) == 3


# --- stacked records -------------------------------------------------------

def _assert_same_record(got, ref):
    assert _same_bits(got.u.values, ref.u.values)
    for field in ("morse_index", "in_Y", "classification", "method", "start_index", "converged", "flags"):
        assert getattr(got, field) == getattr(ref, field), field
    assert type(got.residual_norm) is float and type(got.action_value) is float
    assert _same_bits(got.residual_norm, ref.residual_norm)
    assert _same_bits(got.action_value, ref.action_value)


@pytest.mark.parametrize("name, m", [("example1", 4), ("example3", 2), ("power", 3), ("example2", 8)])
@pytest.mark.parametrize("classify", [True, False])
def test_make_records_match_make_record(name, m, classify):
    """B stacked rows against B one-row _make_records calls."""
    prob = _problem(name, m)
    x = _points(prob, 6, seed=3)
    x[2] = 0.0
    x[3] -= x[3].mean()  # a zero-mean row, so in_Y varies
    cfg = SolverConfig(residual_tol=1e-6)
    norms = np.array([float(np.linalg.norm(residual_values(row.reshape(m, prob.n), prob))) for row in x])
    origins = [("deflated", 4), ("newton", None), ("newton", 0), ("deflated", 7), ("deflated", 2), ("newton", 9)]
    flags = () if classify else ("y_critical_only",)
    stacked, stacked_warnings = _recorded(
        lambda: _make_records(prob, x, norms, origins, cfg, flags, classify)
    )
    alone, alone_warnings = _recorded(
        lambda: [
            _make_records(prob, x[b : b + 1], norms[b : b + 1], origins[b : b + 1], cfg, flags, classify)[0]
            for b in range(len(x))
        ]
    )
    assert stacked_warnings == alone_warnings
    for got, ref in zip(stacked, alone, strict=True):
        _assert_same_record(got, ref)
    assert {r.in_Y for r in stacked} == {True, False}
    assert [(r.method, r.start_index) for r in stacked] == origins
    assert _same_bits(np.array([r.residual_norm for r in stacked]), norms)
    assert stacked[2].converged and stacked[2].start_index == 0
    assert _make_records(prob, x[:0], norms[:0], [], cfg, flags, classify) == []


def test_make_records_raise_on_a_non_finite_action():
    prob = _problem("power", 3, p=np.full(3, 2.0))
    x = np.array([[1.0, 2.0, 3.0], [1e200, -1e200, 0.0]])
    origins = [("newton", 0), ("newton", 1)]
    with pytest.raises(EvaluationError), np.errstate(over="ignore"):
        _make_records(prob, x, np.zeros(2), origins, SolverConfig(), classify=False)


# --- stacked dedupe --------------------------------------------------------

def _loop_first_match(a, known, prob, cfg, actions=None):
    """The pairwise dedupe loop try_add ran before it was stacked."""
    for i, b in enumerate(known):
        pair = None if actions is None else (actions[0], float(actions[1][i]))
        if _same_solution(a, b, prob, cfg, pair):
            return i
    return None


_DEDUPE_PROBLEMS = {
    # F == 0: every constant solves, and segments between constants are flat
    "zero": _problem("power", 3, p=np.full(3, 2.0), lam=1.0, params={"a": 0.0, "b": 0.0, "s": 2.0, "r": 2.0}),
    "example1": _problem("example1", 4, p=np.full(4, 2.0), lam=1.0),
}


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(_DEDUPE_PROBLEMS)),
    k=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
    near=st.sampled_from([1e-9, 3e-7, 1e-6, 3e-6, 1e-3]),
    shuffle_actions=st.booleans(),
)
def test_stacked_dedupe_matches_pairwise_loop(name, k, seed, near, shuffle_actions):
    """Random known sets of constants, points near the candidate (relative
    distance around dedupe_tol) and unrelated points; actions are the true
    ones, or drawn so that the gap prefilter fires on some rows and not on
    others."""
    prob = _DEDUPE_PROBLEMS[name]
    cfg = SolverConfig()
    rng = np.random.default_rng(seed)
    a = rng.normal(size=prob.dim) * rng.choice([0.5, 2.0])
    if rng.random() < 0.5:
        a[:] = a[0]  # a constant candidate
    kinds = rng.integers(0, 3, size=k)
    known = np.empty((k, prob.dim))
    for i, kind in enumerate(kinds):
        if kind == 0:
            known[i] = rng.normal()  # a constant
        elif kind == 1:
            step = near * max(1.0, float(np.linalg.norm(a))) / np.sqrt(prob.dim)
            known[i] = a + step * rng.normal(size=prob.dim)
        else:
            known[i] = 2.0 * rng.normal(size=prob.dim)
    j_a = float(_action_values(a[None], prob)[0])
    j_known = _action_values(known, prob) if k else np.empty(0)
    if shuffle_actions:
        j_known = j_known + rng.choice([0.0, 1e-13, 1e-3, 10.0], size=k)
    expect = _loop_first_match(a, known, prob, cfg, (j_a, j_known))
    assert _first_match(a, known, prob, cfg, (j_a, j_known)) == expect
    assert _first_match(a, known, prob, cfg) == _loop_first_match(a, known, prob, cfg)


def test_stacked_dedupe_runs_the_segment_test_only_on_survivors(monkeypatch):
    """Rows after the first close one, and rows the action gap rules out,
    never reach the segment test; the survivors reach it in row order."""
    prob = _DEDUPE_PROBLEMS["zero"]
    cfg = SolverConfig()
    a = np.array([1.0, 2.0, 3.0])
    known = np.array([
        [5.0, -1.0, 0.0],  # far, same action: segment test, fails
        [0.5, 0.5, 0.5],  # a constant, action gap: ruled out
        [7.0, 1.0, 2.0],  # far, same action: segment test, fails
        a * (1.0 + 1e-9),  # close: the match
        [0.0, 0.0, 0.0],  # after the match: never looked at
    ])
    seen = []
    real = solvers._flat_connected

    def spy(x, b, prob_, bar):
        seen.append(b.tolist())
        return real(x, b, prob_, bar)

    monkeypatch.setattr(solvers, "_flat_connected", spy)
    actions = (3.0, np.array([3.0, 100.0, 3.0, 3.0, 3.0]))
    assert _first_match(a, known, prob, cfg, actions) == 3
    assert seen == [known[0].tolist(), known[2].tolist()]
    assert _first_match(a, known[:0], prob, cfg, (3.0, np.empty(0))) is None
    # two constants are joined by a flat segment (F == 0), far apart as they are
    seen.clear()
    known = np.array([[0.0, 1.0, 0.0], [4.0, 4.0, 4.0]])
    assert _first_match(np.full(3, 1.0), known, prob, cfg, (0.0, np.array([1.0, 0.0]))) == 1
    assert seen == [known[1].tolist()]
    # an action gap within rounding slack, above bar * distance, still runs
    # the segment test
    seen.clear()
    b = np.full(3, 1.0 + 5e-6)
    assert _first_match(np.full(3, 1.0), b[None], prob, cfg, (0.0, np.array([5e-13]))) == 0
    assert seen == [b.tolist()]


@pytest.mark.parametrize("name", sorted(_DEDUPE_PROBLEMS))
def test_known_solutions_keep_representatives_beside_records(name):
    """Appends and replacements keep the stacked points, representatives,
    actions, norms and origins together, row by row; a duplicate with a
    larger residual norm changes nothing."""
    prob = _DEDUPE_PROBLEMS[name]
    cfg = SolverConfig()
    rng = np.random.default_rng(4)
    p, q = rng.normal(size=(2, prob.dim))
    x = np.stack([p, q, p * (1.0 + 1e-9), q * (1.0 - 1e-9)])
    actions = _action_values(x, prob)
    norms = [1e-12, 1e-12, 1e-13, 1e-11]
    origins = [("newton", 0), ("newton", 1), ("deflated", 2), ("deflated", 3)]
    found = _KnownSolutions(prob, cfg)
    assert [found.add(*row) for row in zip(x, actions.tolist(), norms, origins)] == [True, True, False, False]
    assert _same_bits(found.x, x[[2, 1]])
    assert _same_bits(found.canon, np.array([_canonical(row, prob) for row in x[[2, 1]]]))
    assert _same_bits(found.actions, actions[[2, 1]])
    assert found.norms.tolist() == [1e-13, 1e-12]
    assert found.origins == [("deflated", 2), ("newton", 1)]


# --- sign-flip post-check -------------------------------------------------

def test_sign_flip_check_keeps_the_loop_order():
    """False at the first row above the bar, even when a later row's
    residual is not finite; EvaluationError when a non-finite row comes
    first; True when every row is below the bar."""
    prob = _problem("power", 3, p=np.full(3, 2.0))
    zero = np.zeros((3, 1))
    far = np.array([[1.0], [-2.0], [0.5]])
    broken = np.array([[np.nan], [0.0], [0.0]])
    assert _sign_flip_ok(prob, np.stack([zero, zero]), 1e-9) is True
    assert _sign_flip_ok(prob, np.stack([zero, far, broken]), 1e-9) is False
    with pytest.raises(EvaluationError):
        _sign_flip_ok(prob, np.stack([zero, broken, far]), 1e-9)
    # the loop it replaces, on the same stacks
    for stack in (np.stack([zero, far, broken]), np.stack([zero, broken, far])):
        try:
            expect = _loop_sign_flip_ok(prob, stack, 1e-9)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                _sign_flip_ok(prob, stack, 1e-9)
        else:
            assert _sign_flip_ok(prob, stack, 1e-9) is expect


def _loop_sign_flip_ok(prob, values, bar):
    """The per-record loop find_multiple ran before the check was stacked."""
    for u in values:
        if float(np.linalg.norm(residual_values(-u, prob))) > bar:
            return False
    return True
