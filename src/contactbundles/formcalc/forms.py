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

Coefficients are the polynomials of `expr` throughout: the parser returns
them, `exterior_derivative`, `volume_coefficient` and `pullback` compute on
them with the ring operations of `expr`, and `render` and
`compile_expr` read them.  A `OneForm` keeps the `normalize`d, shared
instance of each coefficient it is given, and compiles its kernels once, on
first use: the kernel of its volume coefficient and one per coefficient, kept
with the form and freed with it.

Numbers come from `compile_expr` kernels, value-numbered lists of numpy
steps evaluated on numpy arrays; the pointwise `eval_expr` of the tests
(tests/expr_reference.py) is the reference they are tested against.
`contact_sign` evaluates and refines on sparse `meshgrid` axes, so its cost
follows the axes the coefficient and the exclusions read, and its grid is
bounded by MAX_GRID_POINTS.  Callers that need one value per point
(`coefficient_values`, `characteristic_slope_on_torus`, a refinement block)
pad kernel values to the full shape with `_padded`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .expr import (_FUNCTIONS, _IDENT, ONE, ZERO, Expr, FormSyntaxError, UnknownVariableError,
                   _Parser, _read_number, _sum, compile_expr, diff, normalize, render, subst,
                   variables)


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

    @functools.cached_property
    def _exclusion_kernels(self) -> tuple:
        """(kernel, eps) for each exclusion, compiled on first use only;
        `cached_property` writes the instance dict, which frozen leaves open."""
        return tuple((compile_expr(expr, self.names), eps)
                     for expr, eps in self.exclusions)

    def sample_mask(self, mesh: Sequence[np.ndarray]) -> np.ndarray:
        """True where the point survives all exclusions, on the broadcast
        shape of the coordinates the exclusions read: length 1 along every
        other axis, so sparse `meshgrid` axes give a reduced mask."""
        keep = np.ones((1,) * np.ndim(mesh[0]), dtype=bool)
        for fn, eps in self._exclusion_kernels:
            with np.errstate(all="ignore"):
                keep = keep & (np.abs(fn(*mesh)) >= eps)
        return keep

    def random_points(self, count: int, rng) -> List[Dict[str, float]]:
        """`count` uniform points that survive the exclusions, drawn one
        coordinate at a time from `rng` until enough are kept.  ValueError
        once 1000*count draws have kept no point: the exclusions leave none,
        or almost none, of the box."""
        pts: List[Dict[str, float]] = []
        drawn = 0
        while len(pts) < count:
            if not pts and drawn >= 1000 * count:
                raise ValueError(f"no samples survive the exclusions in {drawn} random draws")
            draws = [[rng.uniform(lo, hi) for lo, hi in self.ranges]
                     for _ in range(count - len(pts))]
            drawn += len(draws)
            keep = np.broadcast_to(self.sample_mask(list(np.array(draws).T)), len(draws))
            pts += [dict(zip(self.names, d)) for d, k in zip(draws, keep) if k]
        return pts


#: most points `grid_counts` admits: grid 256 on a 3-dimensional chart.
#: `contact_sign` evaluates on the reduced grid, so the bound matters for
#: coefficients that read every coordinate: its tracemalloc peak, whatever
#: the verdict, is then 38 MiB at 2^21 points (grid 128) and 304 MiB at 2^24,
#: both for 1 + 3*x*y^2*z (Mixed) and for the benchmark's torus pullback
#: coefficient, whose Horner kernel holds one full-grid array (`compile_expr`).
#: Refinement adds 3^dim points per flagged sample of
#: that reduced grid, and takes REFINE_CHUNK of them at a time, so its memory
#: does not grow with it.
MAX_GRID_POINTS = 2 ** 24

#: |alpha ^ d(alpha)| at or below which `contact_sign` counts a sample as zero
SIGN_TOL = 1e-12

#: flagged reduced samples `contact_sign` refines at once; on a 3-dimensional
#: chart the refinement then adds about 5 MiB to the grid's own arrays in
#: tracemalloc, at any grid
REFINE_CHUNK = 2 ** 12


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
            if coeff == ZERO:
                continue
            if coeff == ONE:
                parts.append(f"d{name}")
            else:
                parts.append(f"{render_coeff(coeff)}*d{name}")
        return " + ".join(parts) if parts else "0*d" + self.chart.names[0]

    @functools.cached_property
    def _volume_kernel(self):
        """The kernel of `volume_coefficient`, compiled on first use only;
        `cached_property` writes the instance dict, which frozen leaves open."""
        return compile_expr(volume_coefficient(self), self.chart.names)

    @functools.cached_property
    def _coefficient_kernels(self) -> tuple:
        """The kernel of each coefficient, compiled on first use only."""
        return tuple(compile_expr(c, self.chart.names) for c in self.coefficients)


def render_coeff(coeff: Expr) -> str:
    s = render(coeff)
    if len(coeff.nums) > 1 or s.startswith("-"):
        return f"({s})"
    return s


@dataclass(frozen=True)
class TwoForm:
    """Antisymmetric coefficient table: entries for dx_i ^ dx_j with i < j."""

    chart: Chart
    table: Tuple[Tuple[int, int, Expr], ...]

    def coefficient(self, i: int, j: int) -> Expr:
        """The entry of dx_i ^ dx_j for i < j, and the negation of the entry
        of dx_j ^ dx_i for i > j."""
        c = next((c for a, b, c in self.table if (a, b) in ((i, j), (j, i))), ZERO)
        return c if i < j else -c


# ---------------------------------------------------------------------------
# parsing

def parse_form(text: str, chart: Chart, params: Optional[Mapping[str, object]] = None) -> OneForm:
    """Parse the form grammar over the chart's coordinates.

    Raises FormSyntaxError with a 0-based offset, or UnknownVariableError for
    identifiers that are neither coordinates, parameters, pi nor functions.
    """
    return OneForm(chart, _Parser(text, chart.names, params, basis=chart.names).parse_form())


def parse_form_file(text: str) -> OneForm:
    """Parse a chart header followed by a `form <...>` statement.

    chart x:[-2,2] y:[-2,2] z:[-2,2]; periodic z; exclude x<1e-3; form dz - y*dx

    A range's endpoints and its width must be finite floats, and a periodic
    name must be a chart coordinate.  `param name=value;` statements bind
    identifiers for the form expression.
    A param name must be an identifier that the form could otherwise not
    read: not a chart coordinate, pi, sin, cos, exp or a differential
    d<coordinate>.  A file has one chart and one form statement, and binds a
    name at most once.  Errors in the header and in `param` statements are
    at offsets into `text`; errors in the form are at offsets into the
    form's own text, from the first character after `form` and its blanks.
    """
    chart, form_text, bound = _parse_statements(text)
    return parse_form(form_text, chart, bound)


def _parse_statements(text: str) -> Tuple[Chart, str, Dict[str, Fraction]]:
    """The chart of the ';'-separated statements of `text`, the text of its
    form statement and the values its `param` statements bind."""
    names: List[str] = []
    ranges: List[Tuple[float, float]] = []
    periodic: List[Tuple[str, int]] = []  # name, file offset
    exclusions: List[Tuple[int, int, float]] = []  # start and end offsets, eps
    params: Dict[str, int] = {}  # name, file offset
    bound: Dict[str, Fraction] = {}
    seen = set()  # chart and form statements
    form_text: Optional[str] = None
    for stmt in re.finditer(r"[^;\s][^;]*", text):
        head = stmt[0].split(None, 1)[0]
        rest = stmt[0][len(head):]
        at = stmt.start() + len(head)  # offset of `rest`
        if head in seen:
            raise FormSyntaxError(f"second {head} statement", stmt.start())
        if head == "chart":
            seen.add(head)
            for field in re.finditer(r"\S+", rest):
                name, _, rng = field[0].partition(":")
                if not rng.startswith("[") or not rng.endswith("]"):
                    raise FormSyntaxError(f"bad range spec {field[0]!r}", at + field.start())
                pos = at + field.start() + len(name) + 1
                lo, _, hi = rng[1:-1].partition(",")
                lo, hi = _read_float(lo, pos), _read_float(hi, pos)
                if not math.isfinite(hi - lo):
                    raise FormSyntaxError(f"width of {rng} exceeds the float range", pos)
                names.append(name)
                ranges.append((lo, hi))
        elif head == "periodic":
            periodic.extend((f[0], at + f.start()) for f in re.finditer(r"\S+", rest))
        elif head == "exclude":
            expr_text, _, eps_text = rest.partition("<")
            end = at + len(expr_text)
            exclusions.append((at, end, _read_float(eps_text, end + 1)))
        elif head == "form":
            seen.add(head)
            form_text = rest.strip()
        elif head == "param":
            raw, _, val = rest.partition("=")
            name = raw.strip()
            pos = at + len(raw) - len(raw.lstrip())
            if not re.fullmatch(_IDENT, name):
                raise FormSyntaxError(f"param name {name!r} is not an identifier", pos)
            if name in params:
                raise FormSyntaxError(f"second param {name!r}", pos)
            params[name] = pos
            bound[name] = _read_number(val, at + len(raw) + 1)
        else:
            raise FormSyntaxError(f"unknown chart directive {head!r}", stmt.start())
    if form_text is None:
        raise FormSyntaxError("missing form statement", len(text))
    if not names:
        raise FormSyntaxError("no chart statement", 0)
    for name, pos in periodic:
        if name not in names:
            raise FormSyntaxError(f"periodic {name!r} is not a chart coordinate", pos)
    reserved = {"pi", *_FUNCTIONS, *(f"d{n}" for n in names)}
    for name, pos in params.items():
        if name in names:
            raise FormSyntaxError(f"param {name!r} is a chart coordinate", pos)
        if name in reserved:
            raise FormSyntaxError(f"param {name!r} is pi, a function or a differential", pos)
    marked = {name for name, _ in periodic}
    flags = tuple(n in marked for n in names)
    # read in place, an exclusion's error offsets are file offsets
    excl = tuple((_Parser(text, names, span=(at, end)).parse_coefficient(), eps)
                 for at, end, eps in exclusions)
    return Chart(tuple(names), tuple(ranges), flags, excl), form_text, bound


def _read_float(text: str, pos: int) -> float:
    """A header number as a float; FormSyntaxError at `pos` if not finite."""
    try:
        return float(_read_number(text, pos))
    except OverflowError:
        raise FormSyntaxError(f"{text.strip()} exceeds the float range", pos) from None


# ---------------------------------------------------------------------------
# calculus

def _d(form: OneForm) -> Dict[Tuple[int, int], Expr]:
    """d_i alpha_j - d_j alpha_i, keyed by (i, j) for i < j."""
    names, a = form.chart.names, form.coefficients
    return {(i, j): diff(a[j], names[i]) - diff(a[i], names[j])
            for i, j in itertools.combinations(range(len(names)), 2)}


def exterior_derivative(form: OneForm) -> TwoForm:
    """d(alpha): table of d_i alpha_j - d_j alpha_i for i < j."""
    return TwoForm(form.chart, tuple((i, j, p) for (i, j), p in _d(form).items()))


def volume_coefficient(form: OneForm) -> Expr:
    """Coefficient a1*d23 - a2*d13 + a3*d12 of alpha ^ d(alpha) against
    dx1 ^ dx2 ^ dx3 in chart order."""
    if form.chart.dim != 3:
        raise ValueError("contact condition requires a 3-dimensional chart")
    d = _d(form)
    a1, a2, a3 = form.coefficients
    return _sum((a1 * d[1, 2], a2 * d[0, 2], a3 * d[0, 1]), (1, -1, 1))


@dataclass(frozen=True)
class ContactReport:
    """Sign classification of alpha ^ d(alpha) over a sample grid."""

    sign: str  # Positive | Negative | Mixed
    min_abs: float
    witnesses: Tuple[Tuple[float, ...], ...] = ()
    samples: int = 0


def contact_sign(form: OneForm, grid: Union[int, Sequence[int]] = 64) -> ContactReport:
    """Classify the sign of alpha ^ d(alpha) on the chart grid minus exclusions.

    Samples with |coefficient| below 10*SIGN_TOL trigger a local x2 refinement
    before a Mixed verdict is returned: the 3^dim neighbours at half a grid
    step, each coordinate clamped to its range on a non-periodic axis.  A
    grid sample that no exclusion removes and where the coefficient is not
    finite (an overflow, a pole) raises ArithmeticError naming the first such
    point in C order.

    The coefficient and the exclusion mask are evaluated on sparse
    `meshgrid` axes, i.e. on their broadcast shape, which spans only the
    axes they read.  A sample there stands for every grid point that differs
    from it along the other axes only; those points, and their refined
    neighbours, share its values and its mask.  So each flagged sample is
    refined once and counted once per grid point it stands for, and counts,
    witnesses (the first grid point in C order) and min_abs are the dense
    grid's.

    Every grid question is read off one value array, NaN where an exclusion
    removes a sample, and its magnitudes, and a witness is a mask's first True
    entry (`np.argmax`): a Mixed verdict costs no more memory than a definite one.
    """
    chart = form.chart
    fn = form._volume_kernel
    axes = chart.grid_axes(grid)
    sparse = np.meshgrid(*axes, indexing="ij", sparse=True)
    keep = chart.sample_mask(sparse)
    with np.errstate(all="ignore"):
        vals = np.where(keep, fn(*sparse), np.nan)
    repeat = math.prod(len(ax) for ax in axes) // vals.size  # grid points per reduced sample
    finite = np.isfinite(vals)

    def witness_at(mask: np.ndarray) -> Tuple[float, ...]:
        idx = np.unravel_index(int(np.argmax(mask)), mask.shape)
        return tuple(float(ax[i]) for ax, i in zip(axes, idx))

    bad = keep & ~finite
    if bad.any():
        raise ArithmeticError(f"alpha ^ d(alpha) is {vals.flat[np.argmax(bad)]} at the grid "
                              f"point {witness_at(bad)}, which no exclusion removes")
    samples = int(np.count_nonzero(finite)) * repeat
    if not samples:
        raise ValueError("no samples survive the exclusions")

    mag = np.abs(vals)
    min_abs = float(np.nanmin(mag))
    has_pos = bool((vals > SIGN_TOL).any())
    has_neg = bool((vals < -SIGN_TOL).any())
    if has_pos and has_neg:
        return ContactReport("Mixed", min_abs, (witness_at(vals > SIGN_TOL),
                                                witness_at(vals < -SIGN_TOL)), samples=samples)

    flagged = mag < 10 * SIGN_TOL
    if flagged.any():
        # each flagged reduced sample and its 3^dim neighbours at half the
        # grid step, REFINE_CHUNK samples at a time in C order, found in
        # blocks of 16 * REFINE_CHUNK positions.  A reduced sample has index 0
        # on the unread axes, so it is the first in C order of the `repeat`
        # grid points it stands for, whose neighbours carry the same values
        # and mask.  A chunk of n samples is a (3, ..., 3, n) block with axis d
        # offset along dimension d, so the order of the refined points, by
        # sample and then by offset as in itertools.product((-1, 0, 1),
        # repeat=dim), is C order of its (3^dim, n) transpose.  A neighbour
        # beyond a non-periodic range is clamped onto its edge, not dropped:
        # every sample keeps 3^dim neighbours, so a count along an axis the
        # coefficient does not read stays `repeat` times the reduced one.
        steps = [(ax[1] - ax[0]) / 2 if len(ax) > 1 else 0.0 for ax in axes]
        clamp = [(-math.inf, math.inf) if per else rng
                 for rng, per in zip(chart.ranges, chart.periodic)]
        offsets = np.array((-1, 0, 1))
        dim = chart.dim
        best, witness, count = math.inf, None, 0
        scan = 16 * REFINE_CHUNK
        blocks = (np.flatnonzero(flagged.ravel()[s:s + scan]) + s
                  for s in range(0, flagged.size, scan))
        for chunk in (b[lo:lo + REFINE_CHUNK] for b in blocks
                      for lo in range(0, b.size, REFINE_CHUNK)):
            n = chunk.size
            centers = [ax[i] for ax, i in zip(axes, np.unravel_index(chunk, flagged.shape))]
            cols = [np.clip(c + (offsets * step)[:, None], *bounds).reshape(
                        (1,) * d + (3,) + (1,) * (dim - 1 - d) + (n,))
                    for d, (c, step, bounds) in enumerate(zip(centers, steps, clamp))]
            with np.errstate(all="ignore"):
                block = _padded(fn, cols)
            kept = chart.sample_mask(cols) & np.isfinite(block)
            ref_vals = block[kept]
            if not ref_vals.size:
                continue
            count += ref_vals.size * repeat
            low = float(np.min(np.abs(ref_vals)))
            if low < best:
                at = ((np.abs(block) == low) & kept).reshape(-1, n).T
                sample, offset = divmod(int(np.argmax(at)), 3 ** dim)
                digits = np.unravel_index(offset, (3,) * dim)
                best = low
                witness = tuple(float(c.reshape(3, n)[i, sample]) for c, i in zip(cols, digits))
            has_pos = has_pos or bool(ref_vals.max() > SIGN_TOL)
            has_neg = has_neg or bool(ref_vals.min() < -SIGN_TOL)
        min_abs = min(min_abs, best)
        if min_abs <= SIGN_TOL or (has_pos and has_neg):
            return ContactReport("Mixed", min_abs, (witness or witness_at(flagged),),
                                 samples=samples + count)
    sign = "Positive" if has_pos else "Negative"
    return ContactReport(sign, min_abs, (), samples=samples)


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
    pulled = [subst(c, mapping) for c in form.coefficients]
    return OneForm(source_chart, tuple(
        _sum(p * diff(c, name) for p, c in zip(pulled, components))
        for name in source_chart.names))


def forms_equal_numeric(f1: OneForm, f2: OneForm, points: int = 1000) -> bool:
    """Coefficient-wise equality at random chart points (the package's equality test);
    ValueError, from `Chart.random_points`, when the exclusions keep no point."""
    if f1.chart.names != f2.chart.names:
        return False
    import random
    pts = f1.chart.random_points(points, random.Random(0))
    gap = np.abs(coefficient_values(f1, pts) - coefficient_values(f2, pts))
    return not (gap > 1e-10).any()


def coefficient_values(form: OneForm, points: Sequence[Mapping[str, float]]) -> np.ndarray:
    """Array [coefficient, point] of the form's coefficients at the points."""
    names = form.chart.names
    cols = [np.array([p[n] for p in points], dtype=float) for n in names]
    with np.errstate(all="ignore"):
        return np.array([_padded(fn, cols) for fn in form._coefficient_kernels])


@dataclass(frozen=True)
class TorusSlope:
    """Slope of the kernel line field on a fixed-radius torus, with its spread."""

    value: float
    spread: float
    radius: float


def characteristic_slope_on_torus(form: OneForm, r: float) -> TorusSlope:
    """Slope dz/dtheta of ker(alpha) restricted to the torus of radius r in
    a chart with coordinates r and theta, averaged over a 24 x 24 grid of
    (theta, height) in [0, 2 pi)^2.

    The tangent space of the torus is spanned by the angle and height
    directions, so the kernel line has slope -alpha_angle / alpha_height;
    DegenerateKernel is raised if the height coefficient vanishes (vertical
    kernel) or both coefficients vanish on a sample.
    """
    chart = form.chart
    if chart.dim != 3:
        raise ValueError("torus slopes require a 3-dimensional chart")
    ia, ir = chart.axis("theta"), chart.axis("r")
    (iz,) = [k for k in range(3) if k not in (ia, ir)]
    turns = 2.0 * math.pi * np.arange(24) / 24
    cols = [float(r)] * 3
    cols[ia], cols[iz] = np.meshgrid(turns, turns, indexing="ij")
    with np.errstate(all="ignore"):
        a_ang, a_z = (_padded(form._coefficient_kernels[k], cols) for k in (ia, iz))
    if not (np.abs(a_z) > 1e-12).all():
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
