"""Catalog of the explicit model contact forms and their embedding checks.

Each entry records the chart (in the order that makes the verified sign
Positive), the expected contact sign, and the fiber-enrollment metadata when
the model carries one.  Entries with parameters are instantiated at the
catalog's default values, written once, as the builder's argument; the
builders are exposed for other parameter choices.  Fixed forms, components
and exclusions are written as text and read by the parser of `expr`; the
Hopf check pulls back once per process, along a block rotation by a symbolic
angle built with the ring operations, and keeps its sample points as columns.
The builders without parameters (`solid_torus_universal_form`,
`bennequin_tube_form`, `hopf_plane_field_form`) return one shared form per
process, as `model_library` shares one catalog, so each of these forms
compiles its kernels once per process.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .expr import ONE, ZERO, Cos, Expr, Sin, Var, _atom, _sum, compile_expr, parse_expr
from .forms import (Chart, OneForm, _padded, _pulled_coefficients, coefficient_values, parse_form,
                    pullback, r_of_slope)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModelForm:
    key: str
    description: str
    form: OneForm
    expected_sign: Optional[str]  # None for the 4-dimensional entry
    enrollment: Optional[Fraction] = None


def _box(names, bounds, periodic=(), exclusions=()):
    """The chart; each exclusion is (text, eps), its text over the names."""
    return Chart(tuple(names), tuple(bounds), tuple(periodic),
                 tuple((parse_expr(text, names), eps) for text, eps in exclusions))


def connection_family(u: Expr) -> OneForm:
    """The local connection model dtheta - u(x, y, theta) dx.

    The plane field is a positive contact structure exactly when d_y u < 0;
    the chart order (y, x, theta) realises that sign as Positive.
    """
    chart = _box(["y", "x", "theta"],
                 [(-2.0, 2.0), (-2.0, 2.0), (0.0, TWO_PI)],
                 periodic=(False, False, True))
    return OneForm(chart, (ZERO, -u, ONE))


def fiber_rotation_form(n: int) -> OneForm:
    """cos(2n pi t) dx - sin(2n pi t) dy on a fibered tube; enrollment -n."""
    chart = _box(["x", "y", "t"], [(-1.0, 1.0), (-1.0, 1.0), (0.0, 1.0)],
                 periodic=(False, False, True))
    return parse_form("cos(2*n*pi*t)*dx - sin(2*n*pi*t)*dy", chart, {"n": n})


def clairaut_band_form(n: int) -> OneForm:
    """cos(n pi x) dy - sin(n pi x) dt on an annular band of Legendrian circles.

    n is even exactly when the plane field is orientable; the enrollment
    along the fibering circles is -n/2.
    """
    chart = _box(["x", "y", "t"], [(0.0, 2.0), (-1.0, 1.0), (-1.0, 1.0)],
                 periodic=(True, False, False))
    return parse_form("cos(n*pi*x)*dy - sin(n*pi*x)*dt", chart, {"n": n})


@functools.cache
def solid_torus_universal_form() -> OneForm:
    """(1 - r^4) dz + r^2 dtheta, the universally tight solid-torus model."""
    chart = _box(["r", "theta", "z"],
                 [(0.05, 1.4), (0.0, TWO_PI), (0.0, TWO_PI)],
                 periodic=(False, True, True),
                 exclusions=(("r", 1e-3),))
    return parse_form("(1-r^4)*dz + r^2*dtheta", chart)


def three_torus_form(m: int) -> OneForm:
    """cos(m theta) dx1 - sin(m theta) dx2 on the 3-torus; enrollment -m."""
    chart = _box(["x1", "x2", "theta"], [(0.0, 1.0), (0.0, 1.0), (0.0, TWO_PI)],
                 periodic=(True, True, True))
    return parse_form("cos(m*theta)*dx1 - sin(m*theta)*dx2", chart, {"m": m})


@functools.cache
def bennequin_tube_form() -> OneForm:
    """dz + p dtheta near a standard Legendrian unknot; order (p, theta, z)."""
    chart = _box(["p", "theta", "z"], [(-1.0, 1.0), (0.0, TWO_PI), (-1.0, 1.0)],
                 periodic=(False, True, False))
    return parse_form("dz + p*dtheta", chart)


@functools.cache
def hopf_plane_field_form() -> OneForm:
    """x1 dy1 - y1 dx1 + x2 dy2 - y2 dx2, the complex-tangency field on the 3-sphere."""
    chart = _box(["x1", "y1", "x2", "y2"], [(-1.0, 1.0)] * 4)
    return parse_form("x1*dy1 - y1*dx1 + x2*dy2 - y2*dx2", chart)


def model_library() -> Dict[str, ModelForm]:
    """The catalog of explicit model forms, instantiated at default
    parameters: built once per process, in a new dict on each call."""
    return dict(_catalog())


@functools.cache
def _catalog() -> Dict[str, ModelForm]:
    entries: List[ModelForm] = []
    u_default = parse_expr("-y", ["y", "x", "theta"])
    entries.append(ModelForm(
        "connection_family",
        "vertical connection model dtheta - u dx with d_y u < 0 (u = -y)",
        connection_family(u_default), "Positive"))
    entries.append(ModelForm(
        "fiber_rotation", "tube of fibers along which the plane field turns n times",
        fiber_rotation_form(2), "Positive", enrollment=Fraction(-2)))
    entries.append(ModelForm(
        "clairaut_band", "annulus fibered by Legendrian circles, half-integer twisting",
        clairaut_band_form(2), "Positive", enrollment=Fraction(-1)))
    entries.append(ModelForm(
        "solid_torus_universal", "universally tight solid torus with radial slope profile",
        solid_torus_universal_form(), "Positive"))
    entries.append(ModelForm(
        "standard_r3", "standard tight structure dz - y dx",
        parse_form("dz - y*dx", _box(["x", "y", "z"], [(-2.0, 2.0)] * 3)), "Positive"))
    entries.append(ModelForm(
        "transverse_knot_tube", "tube around a transverse knot, dt + r^2 dtheta",
        parse_form("dt + r^2*dtheta",
                   _box(["r", "theta", "t"], [(0.05, 1.0), (0.0, TWO_PI), (0.0, 1.0)],
                        periodic=(False, True, True),
                        exclusions=(("r", 1e-3),))), "Positive"))
    entries.append(ModelForm(
        "radial_standard", "rotationally symmetric tight structure dz + x dy - y dx",
        parse_form("dz + x*dy - y*dx", _box(["x", "y", "z"], [(-2.0, 2.0)] * 3)), "Positive"))
    entries.append(ModelForm(
        "three_torus", "fiber-tangent structure on the 3-torus, m turns",
        three_torus_form(2), "Positive", enrollment=Fraction(-2)))
    entries.append(ModelForm(
        "bennequin_tube", "neighborhood of a tb = -1 Legendrian unknot, dz + p dtheta",
        bennequin_tube_form(), "Positive"))
    entries.append(ModelForm(
        "hopf_plane_field", "complex tangencies of the unit 3-sphere (4 ambient coordinates)",
        hopf_plane_field_form(), None, enrollment=Fraction(-2)))
    return {m.key: m for m in entries}


# ---------------------------------------------------------------------------
# embedding checks

def fiber_tube_embedding(n: int) -> Tuple[Sequence[Expr], Chart]:
    """Components (p, theta, z) of the tube embedding of the n-turn band model.

    Pulls dz + p dtheta back to exactly cos(2n pi x) dy - sin(2n pi x) dt.
    """
    src = _box(["x", "y", "t"], [(0.0, 1.0), (-0.9, 0.9), (-0.9, 0.9)],
               periodic=(True, False, False))
    names = ["x", "y", "t"]
    comp_p = parse_expr(f"{n}*(sin(2*{n}*pi*x)*y + cos(2*{n}*pi*x)*t)", names)
    comp_theta = parse_expr("2*pi*x", names)
    comp_z = parse_expr(f"cos(2*{n}*pi*x)*y - sin(2*{n}*pi*x)*t", names)
    return (comp_p, comp_theta, comp_z), src


def fiber_tube_pullback(n: int) -> Tuple[OneForm, OneForm]:
    """(pullback of dz + p dtheta, expected band form cos(2n pi x) dy - sin(2n pi x) dt)."""
    comps, src = fiber_tube_embedding(n)
    target = bennequin_tube_form()
    pulled = pullback(comps, src, target)
    expected = parse_form("cos(2*n*pi*x)*dy - sin(2*n*pi*x)*dt", src, {"n": n})
    return pulled, expected


def torus_wrapping_embedding(p: int, q: int, sign: int) -> Tuple[Sequence[Expr], Chart]:
    """Components (r, theta, z) of the wrapped solid-torus embedding.

    (a e^{is}, t) -> (2 a r(p,q) (1 +- (a/q) cos(qs - pt)),
                      s + (a/q) sin(2(qs - pt)), t).
    The radius r(p, q) solves the slope equation and enters as an exact
    rational approximation (error ~1e-12, harmless for the sign check).
    For q = 1 the radial factor degenerates at a = q/2, so the chart stops
    at a = 0.45 < 1/2.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    rpq = Fraction(r_of_slope(p, q)).limit_denominator(10 ** 12)
    src = _box(["a", "s", "t"], [(0.05, 0.45), (0.0, TWO_PI), (0.0, TWO_PI)],
               periodic=(False, True, True),
               exclusions=(("a", 1e-3),))
    names = ["a", "s", "t"]
    pm = "+" if sign > 0 else "-"
    comp_r = parse_expr(f"2*a*rpq*(1 {pm} (a/{q})*cos({q}*s - ({p})*t))", names,
                        {"rpq": rpq})
    comp_theta = parse_expr(f"s + (a/{q})*sin(2*({q}*s - ({p})*t))", names)
    comp_z = parse_expr("t", names)
    return (comp_r, comp_theta, comp_z), src


def torus_wrapping_pullback(p: int, q: int, sign: int) -> OneForm:
    """Pullback of the solid-torus model under the wrapped embedding."""
    comps, src = torus_wrapping_embedding(p, q, sign)
    return pullback(comps, src, solid_torus_universal_form())


@dataclass(frozen=True)
class HopfCheck:
    """Result of the block-rotation invariance check of the 4-coordinate form."""

    ok: bool
    max_error: float
    times: Tuple[Fraction, ...]


@functools.cache
def _hopf_rotated(variant: int) -> tuple:
    """The Hopf form pulled back along (z, w) -> (e^{i theta} z, e^{+-i theta} w):
    its coefficients and their kernels over the chart names and theta."""
    lam = hopf_plane_field_form()
    c, s = (_atom(kind(_atom(Var("theta")))) for kind in (Cos, Sin))
    v = s if variant > 0 else -s
    x1, y1, x2, y2 = (_atom(Var(name)) for name in lam.chart.names)
    comps = (_sum((c * x1, s * y1), (1, -1)), _sum((s * x1, c * y1)),
             _sum((c * x2, v * y2), (1, -1)), _sum((v * x2, c * y2)))
    pulled = _pulled_coefficients(comps, lam.chart.names, lam)
    return pulled, tuple(compile_expr(p, (*lam.chart.names, "theta")) for p in pulled)


@functools.cache
def _hopf_reference(points: int) -> tuple:
    """The columns of the seeded sample points of the Hopf chart and the
    form's coefficients there, computed once per process for each `points`."""
    lam = hopf_plane_field_form()
    pts = lam.chart.random_points(points, random.Random(11))
    cols = [np.array([p[n] for p in pts]) for n in lam.chart.names]
    return cols, coefficient_values(lam, cols)


def hopf_invariance_check(times: Optional[Sequence[Fraction]] = None,
                          points: int = 200) -> HopfCheck:
    """Check that both block-rotation flows preserve the 4-coordinate form.

    The pullback under each sampled rotation (`_hopf_rotated` at theta = float(2t)*pi)
    is compared coefficient-wise with the original at random points; it passes within 1e-12.
    An angle past the float range makes `max_error` NaN, and the check fail.
    """
    if times is None:
        times = tuple(Fraction(k, 10) for k in range(10))
    cols, original = _hopf_reference(points)
    worst = 0.0
    for t in times:
        try:
            theta = float(2 * Fraction(t)) * math.pi
        except OverflowError:  # 2t itself past the float range
            theta = math.inf if Fraction(t) > 0 else -math.inf
        for variant in (1, -1):
            with np.errstate(all="ignore"):
                pulled = np.array([_padded(fn, cols, theta) for fn in _hopf_rotated(variant)[1]])
            worst = float(np.maximum(worst, abs(pulled - original).max(initial=0.0)))  # keeps NaN
    return HopfCheck(ok=worst <= 1e-12, max_error=worst, times=tuple(Fraction(t) for t in times))
