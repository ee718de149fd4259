import math
import warnings

import numpy as np
import pytest

import pklap.cli as cli
from pklap.analysis import HOLDS, check_bounds, check_growth
from pklap.nonlinearities import (
    BUILTIN_NAMES,
    BuiltinSpec,
    make_builtin,
    make_example1,
    make_example2,
    make_example3,
    make_power,
)
from test_cli import _config
from test_core import check_assembly
from test_lockstep import BUILTINS

EXACT_REJECTIONS = [
    ({"C": 0.99999999}, "A.7"),
    ({"rho1": math.sqrt(math.pi / 2.0) + 1e-3, "rho2": 1.36}, "A.8"),
    ({"rho3": math.sqrt(math.pi) + 0.01}, "A.9"),
    ({"rho3": 1e200}, "A.9"),
]


def _boundary_draws(seed, count):
    """(m, params) pairs, each moving one of C, rho1, rho2 or rho3 by up to
    0.05 around a boundary of its condition: C around max_k |sin(k pi/m)|,
    rho1 around sqrt(pi/2), and rho2 and rho3 around the ends of the first
    and second windows of A.9."""
    rng = np.random.default_rng(seed)

    def root(x):
        return math.sqrt(x * math.pi)

    for _ in range(count):
        m = int(rng.choice([2, 3, 4, 5, 8]))
        delta = float(rng.uniform(-0.05, 0.05))
        kind = int(rng.integers(6))
        yield m, [
            {"C": max(abs(math.sin(math.pi * k / m)) for k in range(1, m)) + delta},
            {"rho1": root(0.5) + delta},
            {"rho2": root(0.5) + delta},
            {"rho3": root(1.0) + delta},
            {"rho2": root(1.5) + delta, "rho3": root(2.0) - 0.06},
            {"rho2": root(1.5) + 0.06, "rho3": root(2.0) + delta},
        ][kind]


def _kernel_breaks(nl, name, radii):
    """Whether the F kernel breaks condition name at a point of its region:
    F > C somewhere on the box |u| <= 1000 (A.7), F >= 0 somewhere on the
    punctured box 0 < |u1|, |u2| <= rho1 (A.8), or F <= 0 somewhere on the
    annulus rho2 < |u1|, |u2| <= rho3 (A.9), searched along u1 = u2 (for
    A.7, u2 = 0) at the periods where the weight is largest."""
    grid = np.linspace(0.0, 1.0, 2001)
    if name == "A.7":
        t1, t2 = np.sqrt(math.pi * (1.0 + grid)), np.zeros_like(grid)
    elif name == "A.8":
        t1 = t2 = radii["rho1"] * grid[1:]
    else:
        lo, hi = radii["rho2"], min(radii["rho3"], radii["rho2"] + 10.0)
        t1 = t2 = np.append(np.nextafter(lo, math.inf), lo + (hi - lo) * grid[1:])
    peak = np.full((nl.m, 1), math.sqrt(1.5 * math.pi))  # F = w_k there
    k = 1 + int(np.argmax(nl.F_many(np.arange(1, nl.m + 1), peak, np.zeros_like(peak))))
    F = nl.F_many(np.full(len(t1), k), t1[:, None], t2[:, None])
    if name == "A.7":
        return bool((F > radii["C"]).any())
    return bool((F >= 0.0).any() if name == "A.8" else (F <= 0.0).any())


def _assembly_gap(nl, points=100, seed=0, scale=2.0):
    """Worst |f_assembled - f_direct| over random scalar arguments."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        k = int(rng.integers(1, nl.m + 1))
        u1, u2, u3 = rng.normal(scale=scale, size=3)
        lhs = nl.f(k, np.array([u1]), np.array([u2]), np.array([u3]))
        rhs = nl.f_direct(k, u1, u2, u3)
        worst = max(worst, float(np.max(np.abs(lhs - np.atleast_1d(rhs)))))
    return worst


class TestExample1:
    def test_pointwise_oracle(self):
        nl, _ = make_example1(2)
        # k = 2 (even): 1 + 1 + sin(2)
        assert nl.F_at(2, np.array([1.0]), np.array([1.0])) == pytest.approx(
            2.0 + math.sin(2.0)
        )
        # k = 1 (odd): the perturbation flips sign
        assert nl.F_at(1, np.array([1.0]), np.array([1.0])) == pytest.approx(
            2.0 - math.sin(2.0)
        )

    def test_even_period_required(self):
        with pytest.raises(ValueError, match="even period"):
            make_example1(3)
        with pytest.raises(ValueError):
            make_example1(1)

    def test_assembled_matches_direct(self):
        nl, _ = make_example1(4)
        assert _assembly_gap(nl) < 1e-9

    def test_growth_profile_fields(self):
        _, growth = make_example1(4)
        assert growth.M == 1.0
        assert growth.eta == 0.5
        assert np.all(growth.alpha3 == -1.0)
        # exponents alternate: 2 at odd k, 4 at even k
        assert growth.s.at(1) == 2.0
        assert growth.s.at(2) == 4.0
        assert growth.s.p_minus == 2.0 and growth.s.p_plus == 4.0


class TestExample2:
    def test_weight_periodicity(self):
        nl, _ = make_example2(3)
        u1, u2 = np.array([1.3]), np.array([-0.7])
        for k in (1, 2, 3):
            assert nl.F_at(k, u1, u2) == nl.F_at(k + 3, u1, u2)

    def test_pointwise_oracle(self):
        nl, _ = make_example2(3)
        # cos^2(pi/3) = 1/4; (1 * 2)^4 = 16
        assert nl.F_at(1, np.array([1.0]), np.array([2.0])) == pytest.approx(4.0)

    def test_assembled_matches_direct(self):
        nl, _ = make_example2(3)
        assert _assembly_gap(nl) < 1e-9

    def test_even_period_degenerates(self):
        # the weight vanishes at k = m/2, so the growth profile must warn
        with pytest.warns(RuntimeWarning, match="vanishing alpha"):
            _, growth = make_example2(4)
        assert not growth.positive
        assert growth.alpha1_min == 0.0

    def test_odd_period_stays_positive(self):
        _, growth = make_example2(3)
        assert growth.positive
        assert growth.s.p_minus >= 3.0


class TestExample3:
    def test_default_radii(self):
        _, bounds = make_example3(2)
        assert bounds.C == 1.0
        assert bounds.rho1 == 0.5
        assert bounds.rho2 == pytest.approx(1.3533141373155002)
        assert bounds.rho3 == pytest.approx(1.6724538509055158)

    def test_sign_structure(self):
        nl, _ = make_example3(2)
        # inside the well the potential is negative (k = 1 carries weight 1)
        assert nl.F_at(1, np.array([0.3]), np.array([0.3])) < 0.0
        # on the positive annulus sin(|u|^2) < 0
        assert nl.F_at(1, np.array([1.4]), np.array([1.4])) > 0.0
        # the weight kills every term at k = m
        assert nl.F_at(2, np.array([0.3]), np.array([0.3])) == 0.0

    def test_bad_radii_rejected_at_construction(self):
        # an annulus inside the negative well cannot satisfy the sign check
        with pytest.raises(ValueError, match="bound condition"):
            make_example3(2, rho1=0.3, rho2=0.5, rho3=0.7)

    def test_guard_accepts_custom_valid_radii(self):
        nl, bounds = make_example3(3, rho1=0.4, rho3=math.sqrt(math.pi) - 0.2)
        assert bounds.rho1 == 0.4
        assert nl.m == 3

    @pytest.mark.parametrize("params, name", EXACT_REJECTIONS)
    def test_radii_the_samples_miss_are_rejected(self, tmp_path, params, name):
        """Each breaks its condition exactly, by a margin that samples can
        miss: C below the weight's maximum 1, 2 rho1^2 just above pi, rho3
        past the window's end 2 pi, and rho3 = 1e200, whose annulus samples
        all give F = NaN."""
        with pytest.raises(ValueError, match=f"^bound condition {name} fails for the chosen radii: "):
            make_example3(2, **params)
        cfg = _config(tmp_path, **{"lambda": 1.0}, nonlinearity={"builtin": "example3", "params": params})
        out = tmp_path / "check.json"
        assert cli.main(["check", cfg, "--output", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize(
        "params",
        [
            {},
            {"rho1": 0.4},
            {"rho1": 1.0},
            {"rho3": math.sqrt(math.pi) - 0.2},
            {"rho2": math.sqrt(1.5 * math.pi) + 0.01, "rho3": math.sqrt(2.0 * math.pi) - 0.01},
        ],
        ids=["defaults", "rho1_0.4", "rho1_1.0", "rho3_inner", "second_window"],
    )
    def test_radii_inside_the_conditions_build(self, m, params):
        nl, bounds = make_example3(m, **params)
        assert nl.m == m and all(getattr(bounds, key) == value for key, value in params.items())

    def test_the_exact_conditions_agree_with_samples_and_the_kernel(self):
        """Seeded radii around each boundary: accepted ones pass check_bounds
        at 4000 samples and seeds 0 - 2, and for rejected ones the F kernel
        breaks the named inequality at a point of the named region."""
        accepted = rejected = 0
        for m, params in _boundary_draws(seed=0, count=36):
            try:
                nl, bounds = make_example3(m, **params)
            except ValueError as exc:
                name = str(exc).split()[2]
                nl, defaults = make_example3(m)
                assert _kernel_breaks(nl, name, {**vars(defaults), **params}), (m, params, name)
                rejected += 1
                continue
            for seed in range(3):
                reports = check_bounds(nl, bounds, seed=seed)
                assert [report.verdict for report in reports] == [HOLDS] * 3, (m, params, seed)
            accepted += 1
        assert accepted >= 10 and rejected >= 10


class TestPowerFamily:
    def test_zero_flag(self):
        with pytest.warns(RuntimeWarning, match="vanishing alpha"):
            nl, _ = make_power(2, a=0.0, b=0.0, s=2.0, r=2.0)
        assert nl.is_zero
        nl2, _ = make_power(2, a=1.0, b=1.0, s=2.0, r=2.0)
        assert not nl2.is_zero

    def test_exponents_below_two_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            make_power(2, a=1.0, b=1.0, s=1.5, r=2.0)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            make_power(2, a=-1.0, b=1.0, s=2.0, r=2.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["a", "b"])
    def test_non_finite_coefficients_rejected_by_name(self, tmp_path, capsys, name, value):
        """A coefficient that is not finite is named (before, it surfaced as
        "potential must vanish at the origin: |F(1,0,0)| = nan")."""
        message = f"power coefficient {name} must be finite, got {value!r}"
        with pytest.raises(ValueError, match=message):
            make_power(2, **{"a": 1.0, "b": 1.0, "s": 2.0, "r": 2.0, name: value})
        if value == math.inf:  # JSON reads 1e400 as inf
            cfg = _config(tmp_path)
            with open(cfg, encoding="utf-8") as fh:
                text = fh.read().replace(f'"{name}": 1.0', f'"{name}": 1e400')
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text)
            assert cli.main(["check", cfg, "--output", str(tmp_path / "r.json")]) == cli.EXIT_CONFIG
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_growth_bound_is_exact(self):
        """F equals its growth bound, so the A.4 margin is exactly zero."""
        nl, growth = make_power(2, a=1.0, b=1.0, s=2.0, r=2.0)
        reports = {r.name: r for r in check_growth(nl, growth, sample_budget=300)}
        assert reports["A.4"].verdict == HOLDS
        assert reports["A.4"].margin == 0.0

    def test_derivatives_vanish_at_origin(self):
        nl, _ = make_power(2, a=1.0, b=1.0, s=2.0, r=3.0)
        F2, F3 = nl.dF(np.array([1, 1]), np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]]))
        assert F2[0, 0] == 0.0
        assert F3[1, 0] == 0.0

    def test_per_index_exponent_lists(self):
        nl, growth = make_power(2, a=1.0, b=1.0, s=[2.0, 4.0], r=3.0)
        assert growth.s.at(2) == 4.0
        assert growth.r.at(2) == 3.0
        # |t1|^4 branch at k = 2
        assert nl.F_at(2, np.array([2.0]), np.array([0.0])) == pytest.approx(16.0)


class TestMakeBuiltin:
    def test_registry(self):
        assert BUILTIN_NAMES == ("example1", "example2", "example3", "power")
        with pytest.raises(ValueError, match="unknown built-in"):
            make_builtin("example9", 2)

    def test_wraps_profiles(self):
        spec = make_builtin("example1", 2)
        assert isinstance(spec, BuiltinSpec)
        assert spec.growth is not None and spec.bounds is None
        spec3 = make_builtin("example3", 2)
        assert spec3.bounds is not None and spec3.growth is None

    def test_rejects_stray_params(self):
        with pytest.raises(ValueError, match="unexpected parameters"):
            make_builtin("example1", 2, {"rho1": 0.3})
        with pytest.raises(ValueError, match="unexpected parameters"):
            make_builtin("power", 2, {"a": 1, "b": 1, "s": 2, "r": 2, "c": 3})

    def test_power_requires_all_params(self):
        with pytest.raises(ValueError, match="needs parameters"):
            make_builtin("power", 2, {"a": 1.0, "b": 1.0})

    def test_example3_params_forwarded(self):
        spec = make_builtin("example3", 2, {"rho1": 0.4})
        assert spec.bounds.rho1 == 0.4
        assert spec.params == {"rho1": 0.4}


# Every built-in closed form, at the periods of the shipped and benchmark
# configs and a few more; example2 at even m has a vanishing weight.
CLOSED_FORMS = [("example1", m) for m in (2, 4, 6, 8)] + [("example2", m) for m in (2, 3, 4, 9)]


@pytest.mark.parametrize("name,m", CLOSED_FORMS)
def test_f_direct_matches_the_assembled_term(name, m):
    """Construction does not call f_direct; here each built-in closed form
    meets the assembled coupling term at 2000 points with periods in
    -2m..2m, where construction once compared 100."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        nl = make_builtin(name, m).nonlinearity
    check_assembly(nl, points=2000)


def test_closed_forms_are_the_cross_checked_families():
    with_closed_form = sorted(
        name
        for name, (m, params) in BUILTINS.items()
        if make_builtin(name, m, params).nonlinearity.f_direct is not None
    )
    assert with_closed_form == sorted({name for name, _ in CLOSED_FORMS})
