"""Charts, 1-forms and the calculus used for contact verification.

A chart is a box of 3 or 4 named coordinates with per-axis ranges, periodic
flags and exclusions |expr| < eps.  Coordinate names are opaque; cylindrical
charts are ordinary charts with an exclusion along the axis.  The positive
volume is dx1 ^ dx2 ^ dx3 in chart order, so catalog entries fix the chart
order that reproduces the intended sign.

Form surface syntax:

    form  := term (('+'|'-') term)*
    term  := coeff '*' basis | basis | coeff
    basis := 'd' IDENT

with `coeff` the expression grammar of `expr`.  A term without a basis
differential is rejected (a 1-form has no scalar part).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .expr import (Add, Div, Expr, FormSyntaxError, Mul, Neg, Rat,
                   UnknownVariableError, ZERO, compile_expr, diff, eval_expr,
                   normalize, parse_expr, rational, render, subst, tokenize, variables)


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
        if isinstance(counts, int):
            counts = [counts] * self.dim
        if len(counts) != self.dim:
            raise ValueError("one sample count per axis")
        axes = []
        for (lo, hi), per, n in zip(self.ranges, self.periodic, counts):
            if per:
                axes.append(lo + (hi - lo) * np.arange(n) / n)
            else:
                axes.append(np.linspace(lo, hi, n))
        return axes

    def sample_mask(self, mesh: Sequence[np.ndarray]) -> np.ndarray:
        """True where the point survives all exclusions."""
        keep = np.ones(np.broadcast(*mesh).shape, dtype=bool) if len(mesh) > 1 \
            else np.ones(mesh[0].shape, dtype=bool)
        for expr, eps in self.exclusions:
            fn = compile_expr(normalize(expr), self.names)
            with np.errstate(all="ignore"):
                vals = fn(*mesh)
            keep &= np.abs(vals) >= eps
        return keep

    def random_points(self, count: int, rng) -> List[Dict[str, float]]:
        pts = []
        while len(pts) < count:
            env = {n: rng.uniform(lo, hi) for n, (lo, hi) in zip(self.names, self.ranges)}
            if all(abs(eval_expr(expr, env)) >= eps for expr, eps in self.exclusions):
                pts.append(env)
        return pts


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
    tokens = tokenize(text)
    basis_names = {f"d{n}": i for i, n in enumerate(chart.names)}
    if tokens[0].kind == "end":
        raise FormSyntaxError("empty form", 0)
    # split into terms at top-level +/-; only the very first term may carry
    # a leading '-'
    terms: List[Tuple[int, int, int]] = []  # (sign, start index, end index) over tokens
    depth = 0
    sign = 1
    start = 0
    i = 0
    if tokens[0].kind == "op" and tokens[0].text == "-":
        sign = -1
        start = i = 1
    while True:
        t = tokens[i]
        if t.kind == "op" and t.text == "(":
            depth += 1
        elif t.kind == "op" and t.text == ")":
            depth -= 1
        at_top_sign = (t.kind == "op" and t.text in "+-" and depth == 0)
        if at_top_sign or t.kind == "end":
            if i <= start:
                raise FormSyntaxError("empty term", t.pos)
            terms.append((sign, start, i))
            if t.kind == "end":
                break
            sign = 1 if t.text == "+" else -1
            start = i + 1
        i += 1
    coeffs: List[Expr] = [ZERO] * chart.dim
    for sgn, a, b in terms:
        seg = tokens[a:b]
        # locate the basis token
        basis_positions = [k for k, t in enumerate(seg)
                           if t.kind == "ident" and t.text in basis_names]
        if not basis_positions:
            raise FormSyntaxError("term carries no differential", seg[0].pos)
        if len(basis_positions) > 1 or basis_positions[0] != len(seg) - 1:
            bad = seg[basis_positions[0 if basis_positions[0] != len(seg) - 1 else 1]]
            raise FormSyntaxError("differential must end its term", bad.pos)
        axis = basis_names[seg[-1].text]
        head = seg[:-1]
        if head and head[-1].kind == "op" and head[-1].text == "*":
            head = head[:-1]
        elif head:
            raise FormSyntaxError("coefficient must be joined to the differential by '*'",
                                  seg[-1].pos)
        if head:
            # reparse the token slice through the expression parser, keeping
            # original offsets by reusing the token objects
            coeff = _parse_token_slice(head, chart.names, params)
        else:
            coeff = rational(1)
        if sgn < 0:
            coeff = Neg(coeff)
        coeffs[axis] = Add((coeffs[axis], coeff))
    return OneForm(chart, tuple(coeffs))


def _parse_token_slice(tokens, allowed, params):
    from .expr import _Parser, _Token  # local import of parser internals
    toks = list(tokens) + [_Token("end", "", tokens[-1].pos + len(tokens[-1].text))]
    bound = {k: (v if isinstance(v, Expr) else rational(v)) for k, v in (params or {}).items()}
    p = _Parser(toks, allowed, bound)
    out = p.parse_sum()
    t = p.peek()
    if t.kind != "end":
        raise FormSyntaxError(f"trailing input {t.text!r}", t.pos)
    return out


_BOOL = {"true": True, "false": False, "1": True, "0": False}


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
    """
    chart = form.chart
    coeff = volume_coefficient(form)
    fn = compile_expr(coeff, chart.names)
    axes = chart.grid_axes(grid)
    mesh = np.meshgrid(*axes, indexing="ij")
    keep = chart.sample_mask(mesh)
    with np.errstate(all="ignore"):
        vals = fn(*mesh)
    vals = np.where(keep, vals, np.nan)
    flat = vals[np.isfinite(vals)]
    if flat.size == 0:
        raise ValueError("no samples survive the exclusions")

    def witness_at(mask: np.ndarray) -> Tuple[float, ...]:
        idx = tuple(int(k[0]) for k in np.nonzero(mask))
        return tuple(float(m[idx]) for m in mesh)

    has_pos = bool((flat > tol).any())
    has_neg = bool((flat < -tol).any())
    if has_pos and has_neg:
        wp = witness_at(np.nan_to_num(vals, nan=0.0) > tol)
        wn = witness_at(np.nan_to_num(vals, nan=0.0) < -tol)
        return ContactReport("Mixed", float(np.nanmin(np.abs(vals))), (wp, wn),
                             samples=int(flat.size), tolerance=tol)

    flagged = np.isfinite(vals) & (np.abs(vals) < 10 * tol)
    min_abs = float(np.min(np.abs(flat)))
    if flagged.any():
        steps = [(axes[k][1] - axes[k][0]) / 2 if len(axes[k]) > 1 else 0.0
                 for k in range(chart.dim)]
        refined = []
        for idx in zip(*np.nonzero(flagged)):
            center = [mesh[k][idx] for k in range(chart.dim)]
            for offs in itertools.product((-1, 0, 1), repeat=chart.dim):
                pt = [float(c + o * s) for c, o, s in zip(center, offs, steps)]
                env = dict(zip(chart.names, pt))
                if all(abs(eval_expr(x, env)) >= eps for x, eps in chart.exclusions):
                    refined.append((pt, eval_expr(coeff, env)))
        ref_vals = np.array([v for _, v in refined]) if refined else np.array([])
        all_vals = np.concatenate([flat, ref_vals]) if ref_vals.size else flat
        min_abs = float(np.min(np.abs(all_vals)))
        if (np.abs(all_vals) <= tol).any() or ((all_vals > tol).any() and (all_vals < -tol).any()):
            k = int(np.argmin(np.abs(ref_vals))) if ref_vals.size else 0
            witness = tuple(refined[k][0]) if refined else witness_at(flagged)
            return ContactReport("Mixed", min_abs, (witness,),
                                 samples=int(flat.size + ref_vals.size), tolerance=tol)
    sign = "Positive" if has_pos else "Negative"
    return ContactReport(sign, min_abs, (), samples=int(flat.size), tolerance=tol)


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
    rng = random.Random(seed)
    for env in f1.chart.random_points(points, rng):
        for c1, c2 in zip(f1.coefficients, f2.coefficients):
            if abs(eval_expr(c1, env) - eval_expr(c2, env)) > tol:
                return False
    return True


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
    slopes = []
    for u in range(samples):
        for v in range(samples):
            env = {
                chart.names[ir]: float(r),
                chart.names[ia]: 2.0 * math.pi * u / samples,
                chart.names[iz]: 2.0 * math.pi * v / samples,
            }
            a_ang = eval_expr(form.coefficients[ia], env)
            a_z = eval_expr(form.coefficients[iz], env)
            if abs(a_z) <= degeneracy_tol:
                raise DegenerateKernel(f"height coefficient vanishes at radius {r}")
            slopes.append(-a_ang / a_z)
    return TorusSlope(value=float(np.mean(slopes)),
                      spread=float(np.max(slopes) - np.min(slopes)),
                      radius=float(r))


def r_of_slope(p: int, q: int, residual_tol: float = 1e-10) -> float:
    """Radius r with r^2/(r^4 - 1) = p/q, by bisection.

    The slope map is strictly decreasing on (0, 1) with range (-inf, 0) and
    on (1, inf) with range (0, inf); slope 0 occurs only at the excluded
    axis, so it is out of range.  p, q must be coprime with q > 0.
    """
    from math import gcd
    if q <= 0:
        raise ValueError("q must be positive")
    if gcd(abs(p), q) != 1:
        raise ValueError("p/q must be in lowest terms")
    if p == 0:
        raise SlopeOutOfRange("slope 0 is attained only on the excluded axis r = 0")
    target = p / q

    def f(r: float) -> float:
        return r * r / (r ** 4 - 1.0)

    if target < 0:
        lo, hi = 1e-8, 1.0 - 1e-14
        # f decreases from ~0- to -inf on (0, 1)
        while f(lo) < target:
            lo *= 0.5
    else:
        lo, hi = 1.0 + 1e-14, 2.0
        while f(hi) > target:
            hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > target:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    if abs(f(r) - target) > residual_tol:
        raise ArithmeticError(f"bisection residual {abs(f(r) - target)} too large")
    return r
