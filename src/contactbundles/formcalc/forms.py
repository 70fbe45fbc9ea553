"""Charts, 1-forms and the calculus used for contact verification.

A chart is a box of 3 or 4 named coordinates with per-axis ranges, periodic
flags and exclusions |expr| < eps.  Coordinate names are opaque; cylindrical
charts are ordinary charts with an exclusion along the axis.  The positive
volume is dx1 ^ dx2 ^ dx3 in chart order, so catalog entries fix the chart
order that reproduces the intended sign.

Form surface syntax:

    form  := ['-'] term (('+'|'-') term)*
    term  := coeff '*' basis | basis
    basis := 'd' IDENT

with `coeff` a product in the expression grammar of `expr`; `expr._Parser`
implements both grammars.  A term without a basis differential is rejected
(a 1-form has no scalar part), and so is a differential anywhere but at the
end of its term.

Numbers come from `compile_expr` evaluated on numpy arrays; the tree-walking
`expr.eval_expr` is the reference it is tested against.  `contact_sign`
evaluates on sparse `meshgrid` axes, so its cost follows the axes the
coefficient and the exclusions read, and its grid is bounded by
MAX_GRID_POINTS.  Callers that need one value per point (`coefficient_values`,
`characteristic_slope_on_torus`, refinement) pad kernel values to the full
shape with `_padded`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .expr import (Add, Div, Expr, FormSyntaxError, Mul, Neg, Rat,
                   UnknownVariableError, ZERO, _Parser, compile_expr, diff,
                   normalize, parse_expr, render, subst, variables)


class DegenerateKernel(ValueError):
    """The kernel line field is tangent-degenerate on the sampled torus."""


class SlopeOutOfRange(ValueError):
    """Requested characteristic slope is not attained by the model family."""


@dataclass(frozen=True)
class Chart:
    """Named coordinate box with periodicity flags and exclusions."""

    names: Tuple[str, ...]
    ranges: Tuple[Tuple[float, float], ...]
    periodic: Tuple[bool, ...] = ()
    exclusions: Tuple[Tuple[Expr, float], ...] = ()

    def __post_init__(self):
        if not (3 <= len(self.names) <= 4):
            raise ValueError("charts have 3 or 4 coordinates")
        if len(set(self.names)) != len(self.names):
            raise ValueError("coordinate names must be distinct")
        if len(self.ranges) != len(self.names):
            raise ValueError("one range per coordinate")
        if not self.periodic:
            object.__setattr__(self, "periodic", tuple(False for _ in self.names))
        if len(self.periodic) != len(self.names):
            raise ValueError("one periodic flag per coordinate")
        for lo, hi in self.ranges:
            if not (lo < hi):
                raise ValueError("ranges must be nonempty")
        for _, eps in self.exclusions:
            if eps <= 0:
                raise ValueError("exclusion eps must be positive")

    @property
    def dim(self) -> int:
        return len(self.names)

    def axis(self, name: str) -> int:
        return self.names.index(name)

    def grid_axes(self, counts: Union[int, Sequence[int]]) -> List[np.ndarray]:
        axes = []
        for (lo, hi), per, n in zip(self.ranges, self.periodic, grid_counts(counts, self.dim)):
            if per:
                axes.append(lo + (hi - lo) * np.arange(n) / n)
            else:
                axes.append(np.linspace(lo, hi, n))
        return axes

    def sample_mask(self, mesh: Sequence[np.ndarray]) -> np.ndarray:
        """True where the point survives all exclusions, on the broadcast
        shape of the coordinates the exclusions read: length 1 along every
        other axis, so sparse `meshgrid` axes give a reduced mask."""
        keep = np.ones((1,) * np.ndim(mesh[0]), dtype=bool)
        for expr, eps in self.exclusions:
            fn = compile_expr(normalize(expr), self.names)
            with np.errstate(all="ignore"):
                keep = keep & (np.abs(fn(*mesh)) >= eps)
        return keep

    def random_points(self, count: int, rng) -> List[Dict[str, float]]:
        """`count` uniform points that survive the exclusions, drawn one
        coordinate at a time from `rng` until enough are kept."""
        pts: List[Dict[str, float]] = []
        while len(pts) < count:
            draws = [[rng.uniform(lo, hi) for lo, hi in self.ranges]
                     for _ in range(count - len(pts))]
            keep = np.broadcast_to(self.sample_mask(list(np.array(draws).T)), len(draws))
            pts += [dict(zip(self.names, d)) for d, k in zip(draws, keep) if k]
        return pts


#: most points `grid_counts` admits: grid 256 on a 3-dimensional chart.
#: `contact_sign` evaluates on the reduced grid, so the bound matters for
#: coefficients that read every coordinate.  The torus pullback coefficient
#: of the benchmark is one; its tracemalloc peak in `contact_sign` is 52 MB
#: at 2^21 points (grid 128), about 25 bytes per point, and 416 MB at 2^24.
#: Refinement is not covered: it adds 3^dim points per flagged sample.
MAX_GRID_POINTS = 2 ** 24


def grid_counts(grid: Union[int, Sequence[int]], dim: int) -> Tuple[int, ...]:
    """Per-axis sample counts of `grid` (one count for every axis, or one
    per axis).  ValueError unless each is at least 1 and their product is at
    most MAX_GRID_POINTS."""
    counts = (grid,) * dim if isinstance(grid, int) else tuple(grid)
    if len(counts) != dim:
        raise ValueError("one sample count per axis")
    if min(counts) < 1 or math.prod(counts) > MAX_GRID_POINTS:
        raise ValueError(f"grid {grid} is outside the domain: at least 1 sample per axis "
                         f"and at most {MAX_GRID_POINTS} points")
    return counts


def _padded(fn, cols: Sequence) -> np.ndarray:
    """fn(*cols) on the full broadcast shape of `cols`: the kernel's value
    plus 0.0*(cols[0] + cols[1] + ...)."""
    return fn(*cols) + 0.0 * functools.reduce(operator.add, cols)


@dataclass(frozen=True)
class OneForm:
    """A differential 1-form: one coefficient expression per chart coordinate."""

    chart: Chart
    coefficients: Tuple[Expr, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.chart.dim:
            raise ValueError("one coefficient per coordinate")
        object.__setattr__(self, "coefficients", tuple(normalize(c) for c in self.coefficients))
        for c in self.coefficients:
            extra = variables(c) - set(self.chart.names)
            if extra:
                raise UnknownVariableError(sorted(extra)[0], 0)

    def text(self) -> str:
        parts = []
        for name, coeff in zip(self.chart.names, self.coefficients):
            if isinstance(coeff, Rat) and coeff.value == 0:
                continue
            if isinstance(coeff, Rat) and coeff.value == 1:
                parts.append(f"d{name}")
            else:
                parts.append(f"{render_coeff(coeff)}*d{name}")
        return " + ".join(parts) if parts else "0*d" + self.chart.names[0]


def render_coeff(coeff: Expr) -> str:
    s = render(coeff)
    if isinstance(coeff, (Add, Div)) or s.startswith("-"):
        return f"({s})"
    return s


@dataclass(frozen=True)
class TwoForm:
    """Antisymmetric coefficient table: entries for dx_i ^ dx_j with i < j."""

    chart: Chart
    table: Tuple[Tuple[int, int, Expr], ...]

    def coefficient(self, i: int, j: int) -> Expr:
        if i == j:
            return ZERO
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        for a, b, c in self.table:
            if (a, b) == (i, j):
                return normalize(c if sign == 1 else Neg(c))
        return ZERO


# ---------------------------------------------------------------------------
# parsing

def parse_form(text: str, chart: Chart, params: Optional[Mapping[str, object]] = None) -> OneForm:
    """Parse the form grammar over the chart's coordinates.

    Raises FormSyntaxError with a 0-based offset, or UnknownVariableError for
    identifiers that are neither coordinates, parameters, pi nor functions.
    """
    return OneForm(chart, _Parser(text, chart.names, params, basis=chart.names).parse_form())


def parse_chart(text: str) -> Chart:
    """Parse the plain-text chart header.

    chart x:[-2,2] y:[-2,2] z:[-2,2]; periodic theta; exclude r<1e-3;
    """
    names: List[str] = []
    ranges: List[Tuple[float, float]] = []
    periodic: List[str] = []
    exclusions: List[Tuple[str, float]] = []
    for stmt in text.split(";"):
        stmt = stmt.strip()
        if not stmt:
            continue
        head, _, rest = stmt.partition(" ")
        rest = rest.strip()
        if head == "chart":
            for fieldspec in rest.split():
                name, _, rng = fieldspec.partition(":")
                if not rng.startswith("[") or not rng.endswith("]"):
                    raise FormSyntaxError(f"bad range spec {fieldspec!r}", text.find(fieldspec))
                lo, _, hi = rng[1:-1].partition(",")
                names.append(name)
                ranges.append((float(Fraction(lo)), float(Fraction(hi))))
        elif head == "periodic":
            periodic.extend(rest.split())
        elif head == "exclude":
            expr_text, _, eps_text = rest.partition("<")
            exclusions.append((expr_text.strip(), float(Fraction(eps_text.strip()))))
        else:
            raise FormSyntaxError(f"unknown chart directive {head!r}", text.find(head))
    if not names:
        raise FormSyntaxError("no chart statement", 0)
    flags = tuple(n in periodic for n in names)
    excl = tuple((parse_expr(eexpr, names), eps) for eexpr, eps in exclusions)
    return Chart(tuple(names), tuple(ranges), flags, excl)


def parse_form_file(text: str, params: Optional[Mapping[str, object]] = None) -> OneForm:
    """Parse a chart header followed by a `form <...>` statement.

    `param name=value;` statements bind identifiers for the form expression.
    """
    header_parts: List[str] = []
    form_text: Optional[str] = None
    bound: Dict[str, object] = dict(params or {})
    for stmt in text.split(";"):
        s = stmt.strip()
        if not s:
            continue
        head = s.split(None, 1)[0]
        if head == "form":
            form_text = s[len("form"):].strip()
        elif head == "param":
            body = s[len("param"):].strip()
            name, _, val = body.partition("=")
            bound[name.strip()] = Fraction(val.strip())
        else:
            header_parts.append(s)
    if form_text is None:
        raise FormSyntaxError("missing form statement", len(text))
    chart = parse_chart("; ".join(header_parts) + ";")
    return parse_form(form_text, chart, bound)


# ---------------------------------------------------------------------------
# calculus

def exterior_derivative(form: OneForm) -> TwoForm:
    """d(alpha): table of d_i alpha_j - d_j alpha_i for i < j."""
    names = form.chart.names
    table = []
    for i, j in itertools.combinations(range(len(names)), 2):
        cij = normalize(Add((diff(form.coefficients[j], names[i]),
                             Neg(diff(form.coefficients[i], names[j])))))
        table.append((i, j, cij))
    return TwoForm(form.chart, tuple(table))


def volume_coefficient(form: OneForm) -> Expr:
    """Coefficient of alpha ^ d(alpha) against dx1 ^ dx2 ^ dx3 in chart order."""
    if form.chart.dim != 3:
        raise ValueError("contact condition requires a 3-dimensional chart")
    d = exterior_derivative(form)
    a1, a2, a3 = form.coefficients
    c23, c13, c12 = d.coefficient(1, 2), d.coefficient(0, 2), d.coefficient(0, 1)
    return normalize(Add((Mul((a1, c23)), Neg(Mul((a2, c13))), Mul((a3, c12)))))


@dataclass(frozen=True)
class ContactReport:
    """Sign classification of alpha ^ d(alpha) over a sample grid."""

    sign: str  # Positive | Negative | Mixed
    min_abs: float
    witnesses: Tuple[Tuple[float, ...], ...] = ()
    samples: int = 0
    tolerance: float = 1e-12

    def __post_init__(self):
        if self.sign in ("Positive", "Negative") and not (self.min_abs > self.tolerance):
            raise ValueError("definite sign requires min_abs above tolerance")


def contact_sign(form: OneForm, grid: Union[int, Sequence[int]] = 64,
                 tol: float = 1e-12) -> ContactReport:
    """Classify the sign of alpha ^ d(alpha) on the chart grid minus exclusions.

    Samples with |coefficient| below 10*tol trigger a local x2 refinement
    before a Mixed verdict is returned.

    The coefficient and the exclusion mask are evaluated on sparse
    `meshgrid` axes, i.e. on their broadcast shape, which spans only the
    axes they read.  A sample there stands for every grid point that differs
    from it along the other axes only, so counts, witnesses (the first grid
    point in C order) and the order of refined points are the dense grid's.
    """
    chart = form.chart
    coeff = volume_coefficient(form)
    fn = compile_expr(coeff, chart.names)
    axes = chart.grid_axes(grid)
    full = tuple(len(ax) for ax in axes)
    sparse = np.meshgrid(*axes, indexing="ij", sparse=True)
    keep = chart.sample_mask(sparse)
    with np.errstate(all="ignore"):
        vals = np.where(keep, fn(*sparse), np.nan)
    repeat = math.prod(full) // vals.size  # grid points per reduced sample
    flat = vals[np.isfinite(vals)]
    if flat.size == 0:
        raise ValueError("no samples survive the exclusions")

    def witness_at(mask: np.ndarray) -> Tuple[float, ...]:
        idx = [int(k[0]) for k in np.nonzero(mask)]
        return tuple(float(ax[i]) for ax, i in zip(axes, idx))

    has_pos = bool((flat > tol).any())
    has_neg = bool((flat < -tol).any())
    if has_pos and has_neg:
        wp = witness_at(np.nan_to_num(vals, nan=0.0) > tol)
        wn = witness_at(np.nan_to_num(vals, nan=0.0) < -tol)
        return ContactReport("Mixed", float(np.nanmin(np.abs(vals))), (wp, wn),
                             samples=int(flat.size) * repeat, tolerance=tol)

    flagged = np.isfinite(vals) & (np.abs(vals) < 10 * tol)
    min_abs = float(np.min(np.abs(flat)))
    if flagged.any():
        # each flagged sample and its 3^dim neighbours at half the grid step
        steps = np.array([(ax[1] - ax[0]) / 2 if len(ax) > 1 else 0.0 for ax in axes])
        idx = np.nonzero(np.broadcast_to(flagged, full))
        centers = np.stack([ax[i] for ax, i in zip(axes, idx)], axis=-1)
        offsets = np.array(list(itertools.product((-1, 0, 1), repeat=chart.dim)))
        pts = (centers[:, None, :] + offsets * steps).reshape(-1, chart.dim)
        cols = list(pts.T)
        with np.errstate(all="ignore"):
            ref_vals = _padded(fn, cols)
        kept = chart.sample_mask(cols) & np.isfinite(ref_vals)
        pts, ref_vals = pts[kept], ref_vals[kept]
        all_vals = np.concatenate([flat, ref_vals])
        min_abs = float(np.min(np.abs(all_vals)))
        if (np.abs(all_vals) <= tol).any() or ((all_vals > tol).any() and (all_vals < -tol).any()):
            witness = (tuple(pts[np.argmin(np.abs(ref_vals))].tolist()) if ref_vals.size
                       else witness_at(flagged))
            return ContactReport("Mixed", min_abs, (witness,),
                                 samples=int(flat.size) * repeat + int(ref_vals.size),
                                 tolerance=tol)
    sign = "Positive" if has_pos else "Negative"
    return ContactReport(sign, min_abs, (), samples=int(flat.size) * repeat, tolerance=tol)


def pullback(components: Sequence[Expr], source_chart: Chart, form: OneForm) -> OneForm:
    """Pull back `form` along the map whose target components are given.

    `components[i]` expresses target coordinate i (in the order of
    `form.chart.names`) in terms of the source chart; the result is
    sum_i (alpha_i o map) d(components[i]) expanded over the source basis.
    """
    if len(components) != form.chart.dim:
        raise ValueError("one component per target coordinate")
    mapping = dict(zip(form.chart.names, components))
    for comp in components:
        extra = variables(comp) - set(source_chart.names)
        if extra:
            raise UnknownVariableError(sorted(extra)[0], 0)
    coeffs = []
    for j, src_name in enumerate(source_chart.names):
        terms = []
        for i in range(form.chart.dim):
            pulled = subst(form.coefficients[i], mapping)
            terms.append(Mul((pulled, diff(components[i], src_name))))
        coeffs.append(Add(tuple(terms)))
    return OneForm(source_chart, tuple(coeffs))


def forms_equal_numeric(f1: OneForm, f2: OneForm, points: int = 1000,
                        tol: float = 1e-10, seed: int = 0) -> bool:
    """Coefficient-wise equality at random chart points (the package's equality test)."""
    if f1.chart.names != f2.chart.names:
        return False
    import random
    pts = f1.chart.random_points(points, random.Random(seed))
    gap = np.abs(coefficient_values(f1, pts) - coefficient_values(f2, pts))
    return not (gap > tol).any()


def coefficient_values(form: OneForm, points: Sequence[Mapping[str, float]]) -> np.ndarray:
    """Array [coefficient, point] of the form's coefficients at the points."""
    names = form.chart.names
    cols = [np.array([p[n] for p in points], dtype=float) for n in names]
    with np.errstate(all="ignore"):
        return np.array([_padded(compile_expr(c, names), cols) for c in form.coefficients])


@dataclass(frozen=True)
class TorusSlope:
    """Slope of the kernel line field on a fixed-radius torus, with its spread."""

    value: float
    spread: float
    radius: float


def characteristic_slope_on_torus(form: OneForm, r: float, samples: int = 24,
                                  radial: str = "r", angle: str = "theta",
                                  degeneracy_tol: float = 1e-12) -> TorusSlope:
    """Slope dz/dtheta of ker(alpha) restricted to the torus {radial = r}.

    The tangent space of the torus is spanned by the angle and height
    directions, so the kernel line has slope -alpha_angle / alpha_height;
    DegenerateKernel is raised if the height coefficient vanishes (vertical
    kernel) or both coefficients vanish on a sample.
    """
    chart = form.chart
    if chart.dim != 3:
        raise ValueError("torus slopes require a 3-dimensional chart")
    ia = chart.axis(angle)
    ir = chart.axis(radial)
    (iz,) = [k for k in range(3) if k not in (ia, ir)]
    turns = 2.0 * math.pi * np.arange(samples) / samples
    cols = [float(r)] * 3
    cols[ia], cols[iz] = np.meshgrid(turns, turns, indexing="ij")
    with np.errstate(all="ignore"):
        a_ang, a_z = (_padded(compile_expr(form.coefficients[k], chart.names), cols)
                      for k in (ia, iz))
    if not (np.abs(a_z) > degeneracy_tol).all():
        raise DegenerateKernel(f"height coefficient vanishes at radius {r}")
    slopes = (-a_ang / a_z).ravel()
    return TorusSlope(value=float(np.mean(slopes)),
                      spread=float(np.max(slopes) - np.min(slopes)),
                      radius=float(r))


def r_of_slope(p: int, q: int) -> float:
    """Radius r with r^2/(r^4 - 1) = p/q, in closed form.

    The slope map is strictly decreasing on (0, 1) with range (-inf, 0) and
    on (1, inf) with range (0, inf); slope 0 occurs only at the excluded
    axis, so it is out of range.  p, q must be coprime with q > 0.  With
    k = p/q and x = r^2 the equation is k*x^2 - x - k = 0, whose root in the
    right interval is, with s = sqrt(1 + 4k^2) and no cancellation,
    x = -2k/(1 + s) for k < 0 and x = (1 + s)/(2k) for k > 0.
    """
    from math import gcd
    if q <= 0:
        raise ValueError("q must be positive")
    if gcd(abs(p), q) != 1:
        raise ValueError("p/q must be in lowest terms")
    if p == 0:
        raise SlopeOutOfRange("slope 0 is attained only on the excluded axis r = 0")
    k = p / q
    s = math.hypot(1.0, 2.0 * k)
    return math.sqrt(-2.0 * k / (1.0 + s) if k < 0 else (1.0 + s) / (2.0 * k))
