"""Built-in potentials: three scalar showcase families plus pure powers.

All built-ins are scalar (n = 1).  Their formulas reduce the period index
modulo m before any trigonometry, so they are exactly m-periodic in k and
weights like |sin(pi*k/m)| vanish exactly where they should.  Each formula
is written once, as the two array kernels a Nonlinearity is made of: F,
and dF, which gives both partial gradients at the same pairs and computes
the terms they share once.  example1 and example2 also carry a per-point
closed form f_direct, an independent second derivation; construction does
not call it, and the test suite compares it with the assembled coupling
term.

Powers are taken with np.float_power, which calls C pow on every element,
as Python's ** does on floats.  numpy's ** (np.power) takes a SIMD pow on
some CPUs that differs from C pow in the last bit on a few percent of
values, and turns x**2 into x*x; with it, reruns on another CPU, and the
values of the per-point formulas these replace, would not be reproduced
bit for bit.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .analysis import BoundProfile, GrowthProfile
from .core import ExponentFunction, Nonlinearity, _Record


def _sc(u) -> float:
    """Coerce a scalar-or-length-1-array argument to a float."""
    return float(np.asarray(u, dtype=float).reshape(()))


class BuiltinSpec(_Record):
    """A named built-in potential with whatever profile data applies to it."""

    name: str
    params: dict
    nonlinearity: Nonlinearity
    growth: Optional[GrowthProfile] = None
    bounds: Optional[BoundProfile] = None


def make_example1(m: int) -> tuple[Nonlinearity, GrowthProfile]:
    """Quartic potential with an alternating sine perturbation (even m only).

    F(k, t1, t2) = t1^4 + t2^4 + (-1)^k sin(t1^4 + t2^4).  The alternating
    sign is only m-periodic when m is even.  Growth data: the bound
    F >= |t1|^s(k) + |t2|^r(k) - 1 holds from M = 1 on, with s = r
    alternating between 4 (even k) and 2 (odd k).
    """
    if m < 2 or m % 2 != 0:
        raise ValueError(f"this potential needs an even period, got m = {m}")

    def sign(k: int) -> float:
        return 1.0 if k % 2 == 0 else -1.0

    signs = np.array([sign(k) for k in range(1, m + 1)])

    def quartic(U1, U2):
        return np.float_power(U1[:, 0], 4) + np.float_power(U2[:, 0], 4)

    def F(K, U1, U2):
        x = quartic(U1, U2)
        return x + signs[K - 1] * np.sin(x)

    def dF(K, U1, U2):
        weight = 1.0 + signs[K - 1] * np.cos(quartic(U1, U2))
        return (
            (4.0 * np.float_power(U1[:, 0], 3) * weight)[:, None],
            (4.0 * np.float_power(U2[:, 0], 3) * weight)[:, None],
        )

    def f_direct(k, u1, u2, u3):
        t1, t2, t3 = _sc(u1), _sc(u2), _sc(u3)
        return 4.0 * t2**3 * (
            2.0 + sign(k) * (math.cos(t1**4 + t2**4) - math.cos(t2**4 + t3**4))
        )

    nl = Nonlinearity(
        m, F, dF, f_direct=f_direct, name="example1", even_symmetric=True
    )
    exponents = ExponentFunction(
        np.array([4.0 if k % 2 == 0 else 2.0 for k in range(1, m + 1)])
    )
    growth = GrowthProfile(
        m=m,
        M=1.0,
        eta=0.5,
        alpha1=np.ones(m),
        alpha2=np.ones(m),
        alpha3=-np.ones(m),
        s=exponents,
        r=exponents,
    )
    return nl, growth


def make_example2(m: int) -> tuple[Nonlinearity, GrowthProfile]:
    """Product-quartic potential with a cosine-squared weight.

    F(k, t1, t2) = cos^2(k*pi/m) (t1*t2)^4, with growth exponents
    s = r = sin(k*pi/m) + 3.  For even m the weight vanishes at k = m/2 and
    the growth profile degenerates there (its construction warns; the
    derived lambda thresholds become infinite).
    """
    if m < 2:
        raise ValueError(f"period m must be >= 2, got {m}")

    def c2(k: int) -> float:
        # exact zero at 2k = m (floating-point cos leaves ~1e-33 there)
        if 2 * (k % m) == m:
            return 0.0
        return math.cos(math.pi * (k % m) / m) ** 2

    weights = np.array([c2(k) for k in range(1, m + 1)])

    def F(K, U1, U2):
        t1, t2 = U1[:, 0], U2[:, 0]
        return weights[K - 1] * np.float_power(t1, 4) * np.float_power(t2, 4)

    def dF(K, U1, U2):
        t1, t2 = U1[:, 0], U2[:, 0]
        w = 4.0 * weights[K - 1]
        return (
            (w * np.float_power(t1, 3) * np.float_power(t2, 4))[:, None],
            (w * np.float_power(t1, 4) * np.float_power(t2, 3))[:, None],
        )

    def f_direct(k, u1, u2, u3):
        t1, t2, t3 = _sc(u1), _sc(u2), _sc(u3)
        return 4.0 * t2**3 * (c2(k - 1) * t3**4 + c2(k) * t1**4)

    nl = Nonlinearity(
        m, F, dF, f_direct=f_direct, name="example2", even_symmetric=True
    )
    exponents = ExponentFunction(
        np.array([math.sin(math.pi * (k % m) / m) + 3.0 for k in range(1, m + 1)])
    )
    growth = GrowthProfile(
        m=m,
        M=2.0**0.25,
        eta=0.5,
        alpha1=weights,
        alpha2=weights,
        alpha3=np.zeros(m),
        s=exponents,
        r=exponents,
    )
    return nl, growth


def make_example3(
    m: int,
    C: float = 1.0,
    rho1: float = 0.5,
    rho2: float | None = None,
    rho3: float | None = None,
) -> tuple[Nonlinearity, BoundProfile]:
    """Bounded sine-well potential with a |sin(k*pi/m)| weight.

    F(k, u1, u2) = -sin(s) w_k with s = u1^2 + u2^2 and w_k = |sin(k*pi/m)|.
    The default radii put the negative well inside |u| <= rho1 and the
    positive annulus at rho2 < |u| <= rho3.  F depends on s alone, so the
    sign conditions are exact inequalities on C and the radii, judged at
    the periods where w_k > 0: A.7 (F <= C on the box |u| <= 1000) holds
    iff C >= max_k w_k; A.8 (s runs over (0, 2 rho1^2]) iff 2 rho1^2 <= pi;
    A.9 (s runs over (2 rho2^2, 2 rho3^2]) iff that interval lies in one
    [(2j+1) pi, (2j+2) pi], j >= 0.  Radii that break one raise a
    ValueError naming the first, with its numbers.
    """
    if m < 2:
        raise ValueError(f"period m must be >= 2, got {m}")
    if rho2 is None:
        rho2 = math.sqrt(math.pi / 2.0) + 0.1
    if rho3 is None:
        rho3 = math.sqrt(math.pi) - 0.1
    bounds = BoundProfile(C=C, rho1=rho1, rho2=rho2, rho3=rho3)

    weights = np.array([abs(math.sin(math.pi * (k % m) / m)) for k in range(1, m + 1)])
    w_max = float(weights.max())
    # r * r, not r**2, which raises OverflowError where the square is inf;
    # A.9's window j is the first that ends at or above hi
    s1, lo, hi = (2.0 * float(r) * float(r) for r in (rho1, rho2, rho3))
    j = math.ceil(hi / (2.0 * math.pi)) - 1 if hi < math.inf else 0
    for name, holds, inequality in (
        ("A.7", C >= w_max, f"C = {float(C)!r} < max_k |sin(k pi/m)| = {w_max!r}"),
        ("A.8", s1 <= math.pi, f"2 rho1^2 = {s1!r} > pi"),
        ("A.9", (2 * j + 1) * math.pi <= lo and hi <= (2 * j + 2) * math.pi,
         f"[2 rho2^2, 2 rho3^2] = [{lo!r}, {hi!r}] lies in no [(2j+1) pi, (2j+2) pi], j >= 0"),
    ):
        if not holds:
            raise ValueError(f"bound condition {name} fails for the chosen radii: {inequality}")

    def square_sum(U1, U2):
        return np.float_power(U1[:, 0], 2) + np.float_power(U2[:, 0], 2)

    def F(K, U1, U2):
        return -np.sin(square_sum(U1, U2)) * weights[K - 1]

    def dF(K, U1, U2):
        c, w = np.cos(square_sum(U1, U2)), weights[K - 1]
        return (-2.0 * U1[:, 0] * c * w)[:, None], (-2.0 * U2[:, 0] * c * w)[:, None]

    return Nonlinearity(m, F, dF, name="example3", even_symmetric=True), bounds


def _exponent_arg(values, m: int, what: str) -> ExponentFunction:
    if isinstance(values, ExponentFunction):
        exp = values
    else:
        arr = np.asarray(values, dtype=float).reshape(-1)
        if arr.size == 1:
            arr = np.full(m, arr[0])
        exp = ExponentFunction(arr)
    if exp.m != m:
        raise ValueError(f"{what} must have {m} entries, got {exp.m}")
    if exp.p_minus < 2.0:
        raise ValueError(f"{what} entries must be >= 2, got min {exp.p_minus}")
    return exp


def make_power(
    m: int, a: float, b: float, s, r
) -> tuple[Nonlinearity, GrowthProfile]:
    """Decoupled power potential F = a|u1|^s(k) + b|u2|^r(k).

    The growth bound holds with equality from M = 1 on (alpha1 = a,
    alpha2 = b, alpha3 = 0).  a = b = 0 gives the zero potential, which the
    solvers treat specially (constant shifts of a solution are quotiented
    out when deduplicating).
    """
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise ValueError(f"power coefficient {name} must be finite, got {value!r}")
    if a < 0 or b < 0:
        raise ValueError("power coefficients must be >= 0")
    s_exp = _exponent_arg(s, m, "s")
    r_exp = _exponent_arg(r, m, "r")
    s_vals, r_vals = s_exp.values, r_exp.values

    def F(K, U1, U2):
        t1, t2 = np.abs(U1[:, 0]), np.abs(U2[:, 0])
        return a * np.float_power(t1, s_vals[K - 1]) + b * np.float_power(t2, r_vals[K - 1])

    def partial(coeff, e, t):
        # 0 at t = 0 exactly, as the limit of coeff * e * |t|^(e-2) * t
        value = coeff * e * np.float_power(np.abs(t), e - 2.0) * t
        return np.where(t == 0.0, 0.0, value)[:, None]

    def dF(K, U1, U2):
        return partial(a, s_vals[K - 1], U1[:, 0]), partial(b, r_vals[K - 1], U2[:, 0])

    nl = Nonlinearity(
        m,
        F,
        dF,
        name="power",
        is_zero=(a == 0.0 and b == 0.0),
        even_symmetric=True,
    )
    growth = GrowthProfile(
        m=m,
        M=1.0,
        eta=0.5,
        alpha1=np.full(m, float(a)),
        alpha2=np.full(m, float(b)),
        alpha3=np.zeros(m),
        s=s_exp,
        r=r_exp,
    )
    return nl, growth


BUILTIN_NAMES = ("example1", "example2", "example3", "power")


def make_builtin(name: str, m: int, params: dict | None = None) -> BuiltinSpec:
    """Instantiate a built-in by name; params are family-specific."""
    params = dict(params or {})
    if name == "example1":
        _reject_params(params, ())
        nl, growth = make_example1(m)
        return BuiltinSpec(name, {}, nl, growth=growth)
    if name == "example2":
        _reject_params(params, ())
        nl, growth = make_example2(m)
        return BuiltinSpec(name, {}, nl, growth=growth)
    if name == "example3":
        allowed = {"C", "rho1", "rho2", "rho3"}
        _reject_params(params, allowed)
        nl, bounds = make_example3(m, **params)
        return BuiltinSpec(name, params, nl, bounds=bounds)
    if name == "power":
        allowed = {"a", "b", "s", "r"}
        missing = allowed - set(params)
        if missing:
            raise ValueError(f"power potential needs parameters {sorted(missing)}")
        _reject_params(params, allowed)
        nl, growth = make_power(m, params["a"], params["b"], params["s"], params["r"])
        return BuiltinSpec(name, params, nl, growth=growth)
    raise ValueError(f"unknown built-in {name!r}; choose from {BUILTIN_NAMES}")


def _reject_params(params: dict, allowed) -> None:
    extra = set(params) - set(allowed)
    if extra:
        raise ValueError(f"unexpected parameters {sorted(extra)}")
