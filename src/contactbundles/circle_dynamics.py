"""Homeomorphisms of the real line commuting with unit translation.

These are the lifts of orientation-preserving circle homeomorphisms, the
carriers of every holonomy computation in this package.  Three concrete
representations are provided:

* `PiecewiseLinearMap` -- exact rational breakpoints, exact evaluation;
* `MoebiusBoundaryLift` -- the boundary action of a disk isometry, evaluated
  pointwise in binary64, with an integer `winding` selecting the lift;
* `WordMap` -- a formal composition of other maps (with exponents +-1),
  evaluated by nesting.

`evaluate_relator` folds the surface-group relator of PL maps into one PL
map, `translation_number` iterates a PL map exactly, and `_extremes` reads
the extremes of f(t) - t at its breakpoints, which decide the displacement
checks and the Euler number of a pair of lifts.  Nothing is sampled.  These
take a `PiecewiseLinearMap` only: a Moebius lift has no exact orbit or
breakpoints, and a word is not folded, so both are refused.  The relator of
the hyperbolic side pairings is read in `hyperbolic.relator_rotation`.

Exact PL arithmetic is done on integers, not on `Fraction` (rationals kept as
integer pairs, reduced only where a value is returned; Knuth, TAOCP vol. 2,
4.5.1).  A PL map keeps each knot as reduced pairs (tn, td), (vn, vd) and
each affine segment as integers (A, B, C), x -> (A*x + B)/C, built the first
time it is read: a fold reads few segments of its intermediate maps.
Inversion and composition build reduced knot pairs with one gcd per knot,
and a fold starts at its first letter with the one knot that composing it
with the identity would add (`_after_identity`); knots are sorted on their
parameters rounded to floats, and the order is checked exactly by
cross-multiplying neighbours (on a float tie, the knots are sorted on their
exact rationals).  The orbit in `translation_number`
keeps x = P/Q unreduced: with n = P // Q and r = P - n*Q on the segment
(A, B, C) holding r/Q, the next point is (A*r + (B + n*C)*Q) / (C*Q), and
only F^N(0)/N is reduced.  Each orbit point is located once; once a cycle of
segments provably holds the orbit, which the capture check reads off those
records, F^N(0) is one closed form evaluated in `Fraction`
(`_captured_average`).  The public values stay exact `Fraction`s: `knots`,
`eval` at a rational point, and the estimate's `value`; `eval` at a float is
the exact value there, rounded once.

Conventions
-----------
* Only one period is stored; f(t + 1) = f(t) + 1 holds by construction.
* The circle coordinate is t with boundary point exp(2*pi*i*t); a Moebius map
  acting on the disk induces the boundary map through its continuous argument.
  The canonical lift is the representative with f(0) in [0, 1).
* Commutators are [a, b] = a o b o a^-1 o b^-1, and relator products
  prod_i [f_{2i-1}, f_{2i}] are composed left to right.
* Suprema over t are taken on [0, 1]; equivariance makes this sufficient.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

TWO_PI = 2.0 * math.pi

Scalar = Union[int, float, Fraction]


class NonConstantDifference(ValueError):
    """The two lifts do not differ by a constant, so they do not lift the same circle map."""


class NonIntegerDifference(ValueError):
    """The constant difference of the two lifts is not an integer."""


class LiftedCircleMap:
    """Base class; subclasses implement `eval` and `inverse`."""

    def letters(self) -> tuple:
        """The map viewed as a one-letter word."""
        return ((self, 1),)


class PiecewiseLinearMap(LiftedCircleMap):
    """Piecewise-linear lift with exact rational breakpoints.

    `breakpoints` is a sequence of (t, value) pairs with t in [0, 1); the map
    interpolates linearly between consecutive breakpoints and wraps the last
    segment to (t_0 + 1, v_0 + 1).  Strict monotonicity on [0, 1] is checked
    on construction.

    The map is held in integers: knot i as reduced pairs t_i = tn_i/td_i and
    v_i = vn_i/vd_i, and the segment starting at knot i as (A, B, C), lowest
    terms with C > 0, for x -> (A*x + B)/C; segment -1 is [t_last - 1, t_0],
    which a point below t_0 falls on.  Construction validates and sorts the
    knots as integer pairs (`_sorted_knots`).  Each segment (`_Segments`) and
    `knots` (Fraction pairs) are built on first use.  `eval` at a float x is
    f(x) exactly, rounded once to binary64.
    """

    def __init__(self, breakpoints: Iterable[tuple]):
        pairs = [_ratio(t) + _ratio(v) for t, v in breakpoints]
        if not pairs:
            raise ValueError("piecewise-linear map needs at least one breakpoint")
        if any(tn < 0 or tn >= td for tn, td, _, _ in pairs):
            raise ValueError("breakpoint parameters must lie in [0, 1)")
        if len({(tn, td) for tn, td, _, _ in pairs}) != len(pairs):
            raise ValueError("duplicate breakpoint parameters")
        pairs, tf = _sorted_knots([(k[0] / k[1], k) for k in pairs])
        for (_, _, an, ad), (_, _, bn, bd) in zip(pairs, pairs[1:]):
            if bn * ad <= an * bd:
                raise ValueError("breakpoint values must be strictly increasing")
        (_, _, vn0, vd0), (_, _, vn, vd) = pairs[0], pairs[-1]
        if (vn0 + vd0) * vd <= vn * vd0:
            raise ValueError("wraparound segment is not increasing")
        self._set_pairs(pairs, tf)

    @classmethod
    def _from_pairs(cls, pairs: list, tf: list) -> "PiecewiseLinearMap":
        """A map from (tn, td, vn, vd) knots, reduced, sorted and increasing,
        with tf their parameters tn/td rounded."""
        self = object.__new__(cls)
        self._set_pairs(pairs, tf)
        return self

    def _set_pairs(self, pairs: list, tf: list) -> None:
        self._pairs = pairs
        self._tn = [tn for tn, _, _, _ in pairs]
        self._td = [td for _, td, _, _ in pairs]
        self._tf = tf
        self._segs = _Segments(pairs)
        self._knots = None

    @property
    def knots(self) -> tuple:
        """The breakpoints as a tuple of (t, value) Fraction pairs."""
        if self._knots is None:
            self._knots = tuple((Fraction(tn, td), Fraction(vn, vd))
                                for tn, td, vn, vd in self._pairs)
        return self._knots

    @classmethod
    def translation(cls, c: Scalar) -> "PiecewiseLinearMap":
        return cls([(Fraction(0), Fraction(c))])

    @classmethod
    def identity(cls) -> "PiecewiseLinearMap":
        return cls.translation(0)

    def _locate(self, r: int, q: int) -> int:
        """Index of the last knot with t_i <= r/q, -1 below t_0 (the wrapped
        segment), for q > 0.  Rounding to the nearest float is monotone, so
        the same search on the rounded parameters can only overshoot; the
        guess steps down by cross-multiplied comparison."""
        tn, td = self._tn, self._td
        i = bisect_right(self._tf, r / q) - 1
        while i >= 0 and tn[i] * q > r * td[i]:
            i -= 1
        return i

    def _eval_pair(self, p: int, q: int) -> tuple:
        """f(p/q) as an unreduced pair (P, Q) with Q > 0, for q > 0."""
        n, r = divmod(p, q)
        a, b, c = self._segs[self._locate(r, q)]
        return a * r + (b + n * c) * q, c * q

    def eval(self, t: Scalar) -> Scalar:
        if isinstance(t, float):
            # NaN and +-inf raise ValueError and OverflowError here; the
            # quotient of two ints is correctly rounded
            p, q = self._eval_pair(*t.as_integer_ratio())
            return p / q
        if not isinstance(t, (int, Fraction)):
            t = Fraction(t)
        return Fraction(*self._eval_pair(t.numerator, t.denominator))

    def inverse(self) -> "PiecewiseLinearMap":
        # the values of the knots lie in [v_0, v_0 + 1), so taken mod 1 they
        # are a rotation of a sorted list: the knots of the larger floor first
        _, _, vn0, vd0 = self._pairs[0]
        m0 = vn0 // vd0
        low, high = [], []
        for tn, td, vn, vd in self._pairs:
            m = vn // vd
            (low if m == m0 else high).append((vn - m * vd, vd, tn - m * td, td))
        pairs = high + low
        return PiecewiseLinearMap._from_pairs(pairs, [tn / td for tn, td, _, _ in pairs])


def _ratio(x: Scalar) -> tuple:
    """x as a reduced integer pair (n, d), d > 0; ValueError for NaN or +-inf."""
    try:
        return (x if isinstance(x, (int, float, Fraction)) else Fraction(x)).as_integer_ratio()
    except OverflowError:
        raise ValueError(f"breakpoints must be finite, not {x}") from None


def _sorted_knots(keyed: list) -> tuple:
    """(knots, tf) from keyed = [(tf, knot)], knot = (tn, td, vn, vd) with
    distinct t = tn/td in [0, 1) and tf = t rounded: the knots sorted on t,
    and their tf.

    keyed is sorted on tf, and each adjacent pair is then checked exactly by
    cross-multiplying.  Rounding is monotone, so only two knots whose t round
    to one float can fail the check; then the knots are sorted again on the
    exact rationals t."""
    keyed.sort()
    for (_, (an, ad, _, _)), (_, (bn, bd, _, _)) in zip(keyed, keyed[1:]):
        if an * bd >= bn * ad:
            keyed.sort(key=lambda fk: Fraction(fk[1][0], fk[1][1]))
            break
    return [k for _, k in keyed], [f for f, _ in keyed]


class _Segments(dict):
    """The affine segments (A, B, C) of a PL map by the index of their first
    knot, -1 for the wrapped segment [t_last - 1, t_0], each built on its first
    lookup."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: list):
        self._pairs = pairs

    def __missing__(self, i: int) -> tuple:
        seg = self[i] = _affine(*_segment_knots(self._pairs, i))
        return seg


def _segment_knots(pairs: list, i: int) -> tuple:
    """The two knots (tn, td, vn, vd) of pairs that bound segment i: knots i
    and i + 1, the one across the wrap shifted by a period (segment -1 starts
    at the last knot minus one, the last segment ends at the first plus one)."""
    if i < 0:
        tn, td, vn, vd = pairs[-1]
        return (tn - td, td, vn - vd, vd), pairs[0]
    if i + 1 < len(pairs):
        return pairs[i], pairs[i + 1]
    tn, td, vn, vd = pairs[0]
    return pairs[i], (tn + td, td, vn + vd, vd)


def _affine(k0: tuple, k1: tuple) -> tuple:
    """(A, B, C) in lowest terms, C > 0, with (A*x + B)/C the line through the
    knots k0 = (tn, td, vn, vd) and k1 (t0 < t1)."""
    tn0, td0, vn0, vd0 = k0
    tn1, td1, vn1, vd1 = k1
    # slope sn/sd = (v1 - v0) / (t1 - t0), sd > 0
    sn = (vn1 * vd0 - vn0 * vd1) * td0 * td1
    sd = (tn1 * td0 - tn0 * td1) * vd0 * vd1
    a = sn * vd0 * td0
    b = vn0 * sd * td0 - sn * tn0 * vd0
    c = sd * vd0 * td0
    g = math.gcd(a, b, c)
    return a // g, b // g, c // g


class MoebiusBoundaryLift(LiftedCircleMap):
    """Lift of the boundary circle action of a disk isometry.

    `iso` is any object with `disk_coefficients() -> (alpha, beta)`, |alpha|^2 -
    |beta|^2 = 1, for the disk action w -> (alpha*w + beta) / (conj(beta)*w +
    conj(alpha)), and `inverse()`: for example the tests' reference class
    `Isometry2H` (tests/polygon_reference.py).  `winding` shifts the canonical
    lift by an integer.

    Evaluation is pointwise exact up to float roundoff: the canonical lift
    restricted to [0, 1) takes values in [c0, c0 + 1), with c0 = f(0) the
    principal argument of the image of 1 (in turns, in [0, 1)).
    """

    def __init__(self, iso, winding: int = 0):
        self.iso = iso
        self.winding = int(winding)
        alpha, beta = iso.disk_coefficients()
        self._alpha = a = complex(alpha)
        self._beta = b = complex(beta)
        w1 = (a + b) / (b.conjugate() + a.conjugate())
        c0 = (math.atan2(w1.imag, w1.real) / TWO_PI) % 1.0
        self._c0 = 0.0 if c0 == 1.0 else c0  # a turn just below 0 rounds to 1.0

    def _canonical(self, tau: float) -> float:
        """The canonical lift at tau in [0, 1): a value in [c0, c0 + 1) within [0, 2).

        The turn from c0 to the image is the argument of w(z)/w(1) = 1 + u with
        u = (z - 1) / ((alpha + beta)(conj(beta) z + conj(alpha))) (det 1) and
        z - 1 = 2i sin(pi tau) e^(i pi tau).  u carries no cancellation, so the
        turn keeps its sign and relative accuracy at both ends of [0, 1), where
        the difference of two principal arguments is rounding noise.
        """
        a, b = self._alpha, self._beta
        half = cmath.exp(1j * math.pi * tau)
        step = 2j * math.sin(math.pi * min(tau, 1.0 - tau)) * half
        u = step / ((a + b) * (b.conjugate() * half * half + a.conjugate()))
        turn = (math.atan2(u.imag, 1.0 + u.real) / TWO_PI) % 1.0
        return min(self._c0 + turn, math.nextafter(self._c0 + 1.0, 0.0))

    def eval(self, t: Scalar) -> float:
        t = float(t)
        n = math.floor(t)
        tau = t - n
        if tau == 1.0:  # t just below an integer, rounded up
            tau, n = 0.0, n + 1
        return self._canonical(tau) + self.winding + n

    def inverse(self) -> "MoebiusBoundaryLift":
        inv = MoebiusBoundaryLift(self.iso.inverse())
        inv.winding = -round(inv.eval(self.eval(0.0)))
        return inv


class WordMap(LiftedCircleMap):
    """Formal composition word; letters[0] is applied last.

    Letters are (map, exponent) with exponent +-1.  Inverse letters are
    resolved to concrete inverse maps once, at construction.
    """

    def __init__(self, letters: Sequence[tuple]):
        flat = []
        for m, e in letters:
            if e not in (1, -1):
                raise ValueError("letter exponents must be +1 or -1")
            if isinstance(m, WordMap):
                sub = m._letters if e == 1 else tuple((mm, -ee) for mm, ee in reversed(m._letters))
                flat.extend(sub)
            else:
                flat.append((m, e))
        self._letters = tuple(flat)
        self._chain = tuple(m if e == 1 else m.inverse() for m, e in reversed(self._letters))

    def letters(self) -> tuple:
        return self._letters

    def eval(self, t: Scalar) -> Scalar:
        x = t
        for m in self._chain:
            x = m.eval(x)
        return x

    def inverse(self) -> "WordMap":
        return WordMap(tuple((m, -e) for m, e in reversed(self._letters)))


def compose(f: LiftedCircleMap, g: LiftedCircleMap) -> LiftedCircleMap:
    """The composition f o g; exact flattening for PL o PL, a word otherwise."""
    if isinstance(f, PiecewiseLinearMap) and isinstance(g, PiecewiseLinearMap):
        return _compose_pl(f, g)
    return WordMap(f.letters() + g.letters())


def _compose_pl(f: PiecewiseLinearMap, g: PiecewiseLinearMap,
                ginv: Optional[PiecewiseLinearMap] = None) -> PiecewiseLinearMap:
    """Exact breakpoints of f o g: g's knots plus g-preimages of f's knots.

    `ginv` is g's inverse when the caller has it.  Each knot costs at most one
    evaluation: at a preimage u = g^-1(s) of f's knot (s, w), reduced mod 1 to
    u - m, f(g(u - m)) = f(s - m) = w - m; at g's knot (t, v) it is f(v).  The
    knots are reduced integer pairs, sorted by `_sorted_knots`; the segments
    of f o g are built as they are read.
    """
    if ginv is None:
        ginv = g.inverse()
    keyed, ts = [], set()
    gcd, segs, itn, itd = math.gcd, ginv._segs, ginv._tn, ginv._td
    i, last = -1, len(itn) - 1
    for sn, sd, wn, wd in f._pairs:
        # f's knots s = sn/sd rise through [0, 1), so one forward walk over
        # g^-1's knots finds the segment of each, where
        # g^-1(s) = (A*sn + B*sd)/(C*sd)
        while i < last and itn[i + 1] * sd <= sn * itd[i + 1]:
            i += 1
        a, b, c = segs[i]
        q = c * sd
        m, r = divmod(a * sn + b * sd, q)
        d = gcd(r, q)
        tn, td = r // d, q // d
        ts.add((tn, td))
        keyed.append((tn / td, (tn, td, wn - m * wd, wd)))
    for (tn, td, vn, vd), t in zip(g._pairs, g._tf):
        if (tn, td) not in ts:
            p, q = f._eval_pair(vn, vd)
            d = gcd(p, q)
            keyed.append((t, (tn, td, p // d, q // d)))
    return PiecewiseLinearMap._from_pairs(*_sorted_knots(keyed))


def _after_identity(g: PiecewiseLinearMap, ginv: PiecewiseLinearMap) -> PiecewiseLinearMap:
    """identity o g as `_compose_pl` builds it, without a composition: g's
    knots and the preimage of the identity's knot (0, 0), the point u in
    [0, 1) where g crosses an integer, with g(u) = -m for m = floor(g^-1(0))."""
    a, b, c = ginv._segs[0 if ginv._pairs[0][0] == 0 else -1]
    m, r = divmod(b, c)  # g^-1(0) = b/c on the segment holding 0
    d = math.gcd(r, c)
    un, ud = r // d, c // d
    j = g._locate(un, ud)
    if j >= 0 and g._tn[j] * ud == un * g._td[j]:
        return g
    return PiecewiseLinearMap._from_pairs(g._pairs[:j + 1] + [(un, ud, -m, 1)] + g._pairs[j + 1:],
                                          g._tf[:j + 1] + [un / ud] + g._tf[j + 1:])


def _displacements(pl: PiecewiseLinearMap) -> list:
    """v - t at each knot as an unreduced pair (n, d), d > 0."""
    return [(vn * td - tn * vd, vd * td) for tn, td, vn, vd in pl._pairs]


def _extreme_indices(pairs: Sequence[tuple]) -> tuple:
    """Indices of the first smallest and the first largest n/d among pairs
    (n, d) with d > 0."""
    lo = hi = 0
    ln, ld = hn, hd = pairs[0]
    for i, (n, d) in enumerate(pairs):
        if n * hd > hn * d:
            hi, hn, hd = i, n, d
        elif n * ld < ln * d:
            lo, ln, ld = i, n, d
    return lo, hi


def _piecewise_linear(f: LiftedCircleMap, caller: str) -> PiecewiseLinearMap:
    """f, which must be a PL map: ValueError for a Moebius lift or a word."""
    if not isinstance(f, PiecewiseLinearMap):
        raise ValueError(f"{caller}: takes piecewise-linear maps, not {type(f).__name__}")
    return f


def _extremes(f: PiecewiseLinearMap, caller: str) -> tuple:
    """((t_lo, D_lo), (t_hi, D_hi)), the first minimum and the first maximum
    over one period of D = f - id, as exact `Fraction`s: D is linear between
    breakpoints, so both are attained at a breakpoint."""
    g = _piecewise_linear(f, caller)
    ds = _displacements(g)
    return tuple((Fraction(g._tn[i], g._td[i]), Fraction(*ds[i])) for i in _extreme_indices(ds))


def sup_displacement(f: PiecewiseLinearMap) -> Scalar:
    """sup over one period of f(t) - t (`_extremes`)."""
    return _extremes(f, "sup_displacement")[1][1]


def inf_displacement(f: PiecewiseLinearMap) -> Scalar:
    """inf over one period of f(t) - t (`_extremes`), equal to -sup_displacement(f^-1)."""
    return _extremes(f, "inf_displacement")[0][1]


@dataclass(frozen=True)
class TranslationNumberEstimate:
    """An estimate of the translation number rho together with its error bound.

    `value` is the exact orbit average f^N(0)/N with N = `iterations`, and
    `error_bound` is 1/N: since t -> f^N(t) - t has width < 1 and rho is its
    mean slope, |f^N(0)/N - rho| < 1/N (Ghys, Enseign. Math. 2001).
    """

    value: Fraction
    error_bound: float
    iterations: int


def translation_number(f: PiecewiseLinearMap, iterations: int) -> TranslationNumberEstimate:
    """Estimate the translation number rho of the PL map f; N = `iterations`.

    The value is the exact rational orbit average f^N(0)/N, error bound 1/N.
    The orbit is stepped only until a cycle of segments is proved to hold it
    (`_captured_average`: an exactly periodic orbit, or an attracting cycle
    whose hulls stay in their closed segments); the rest is one integer
    power, so a captured orbit costs a fixed number of steps and O(N) bits,
    not O(N^2).  A PL map with a periodic orbit and slopes other than 1
    usually has an attracting cycle (M. Herman, Publ. Math. IHES 49, 1979).
    An orbit never captured is stepped N times.  A Moebius lift raises
    ValueError, as its float orbit has no derived error bound, and so does
    a word.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    g = _piecewise_linear(f, "translation_number")
    return TranslationNumberEstimate(value=_orbit_average(g, iterations),
                                     error_bound=1 / iterations, iterations=iterations)


#: The PL orbit of `translation_number` looks for a cycle that captures it
#: after CAPTURE_FIRST_STEP steps and again whenever the step count doubles,
#: at most log2(N / CAPTURE_FIRST_STEP) checks ...
CAPTURE_FIRST_STEP = 8
#: ... among periods up to CAPTURE_MAX_PERIOD steps, so it keeps the last
#: 2 * CAPTURE_MAX_PERIOD + 1 points.  Of the 120 distinct relators (one to
#: three handles) of the `perfbench` geometry seeds 101-110, 106 were
#: captured at the first check, 13 by the check at 128 steps, and 1 never.
CAPTURE_MAX_PERIOD = 32


def _orbit_average(g: PiecewiseLinearMap, n: int) -> Fraction:
    """F^n(0)/n for the PL map g, exact.

    The orbit stays an unreduced pair p/q: each step multiplies q by the
    segment's C, and only the returned value is reduced.  Each step keeps the
    (segment, floor) of the point it leaves, beside the points, so every
    point is located once.  At each check (CAPTURE_FIRST_STEP)
    `_captured_average` tries to prove from those records that the orbit
    stays on a cycle of segments from there on, and then reads F^n(0) off a
    closed form; an orbit never captured is stepped to the end.
    """
    p, q = 0, 1
    points = deque([(p, q)], maxlen=2 * CAPTURE_MAX_PERIOD + 1)
    steps = deque(maxlen=2 * CAPTURE_MAX_PERIOD)  # (segment, floor) of points[j]
    k, check = 0, CAPTURE_FIRST_STEP
    while k < n:
        stop = min(check, n)
        for _ in range(stop - k):
            fl, r = divmod(p, q)
            i = g._locate(r, q)
            a, b, c = g._segs[i]
            p, q = a * r + (b + fl * c) * q, c * q
            steps.append((i, fl))
            points.append((p, q))
        k, check = stop, 2 * check
        if k < n:
            average = _captured_average(g, list(points), list(steps), n - k, n)
            if average is not None:
                return average
    return Fraction(p, q * n)


def _captured_average(g: PiecewiseLinearMap, points: list, steps: list, ahead: int,
                      n: int) -> Optional[Fraction]:
    """F^n(0)/n from the last orbit points x_(k-w)..x_k, with k = n - ahead,
    and the (segment, floor) of x_(k-w)..x_(k-1) in steps, if a cycle of at
    most CAPTURE_MAX_PERIOD segments is proved to hold the orbit from x_s on;
    None otherwise.

    A period c is tried when the segments of the last c steps repeat those of
    the c before, with s = k - c.  Step j of the cycle is F on the closed
    segment holding x_(s+j), shifted by its floor: an increasing affine map.
    The c steps compose to L(x) = lam*x + mu, and p is the floor of x_(s+c)
    minus that of x_s.  Write n - s = m*c + r.  The cycle holds the orbit if

    * x_(s+c) = x_s + p exactly: then F^c(x_s) = x_s + p, and
      x_n = x_(s+r) + m*p; or
    * 0 < lam < 1 and the cycle point y_j of x* = (mu - p)/(1 - lam), the
      fixed point of L - p, lies in step j's closed segment for every j.
      Each step sends the hull of x_(s+j) and y_j, which lies in its segment,
      onto the next hull, and L - p shrinks hull(x_s, x*) into itself, so
      every later point stays on the cycle, and
      x_n = y_r + m*p + lam^m * (x_(s+r) - y_r), evaluated in `Fraction`,
      whose sums and products divide out only the cross gcds of their
      operands (Knuth, TAOCP vol. 2, 4.5.1).

    Both give F^n(0) itself, so the value is the stepped orbit's.
    """
    segs = [i for i, _ in steps]
    last = len(steps)
    pk, qk = points[last]
    for period in range(1, min(CAPTURE_MAX_PERIOD, last // 2) + 1):
        start = last - period
        if segs[start - period:start] != segs[start:last]:
            continue
        shift = pk // qk - steps[start][1]
        m, r = divmod(ahead + period, period)
        (p0, q0), (pr, qr) = points[start], points[start + r]
        if pk * q0 - p0 * qk == shift * q0 * qk:
            return Fraction(pr + m * shift * qr, qr * n)
        maps = []  # step j as x -> (A*x + B')/C: its segment (A, B, C) at its floor
        for i, fl in steps[start:]:
            sa, sb, sc = g._segs[i]
            maps.append((sa, sb + fl * (sc - sa), sc))
        a, b, c = 1, 0, 1  # L(x) = (a*x + b)/c
        for sa, sb, sc in maps:
            a, b, c = sa * a, sa * b + sb * c, sc * c
        if a >= c:
            continue
        y = Fraction(b - shift * c, c - a)
        cycle = []
        for (i, fl), (sa, sb, sc) in zip(steps[start:], maps):
            if not _on_segment(g, i, y - fl):
                break
            cycle.append(y)
            y = (sa * y + sb) / sc
        else:
            y = cycle[r]
            return (y + m * shift + Fraction(a, c) ** m * (Fraction(pr, qr) - y)) / n
    return None


def _on_segment(g: PiecewiseLinearMap, i: int, u: Fraction) -> bool:
    """Whether u lies in the closed segment i of g (`_segment_knots`)."""
    (lo_n, lo_d, _, _), (hi_n, hi_d, _, _) = _segment_knots(g._pairs, i)
    un, ud = u.numerator, u.denominator
    return lo_n * ud <= un * lo_d and un * hi_d <= hi_n * ud


def evaluate_relator(maps: Sequence[PiecewiseLinearMap]) -> PiecewiseLinearMap:
    """The surface-group relator prod_{i=1..g} [f_{2i-1}, f_{2i}] of PL maps,
    folded to one PL map: each map inverted once, the letters a, b, a^-1,
    b^-1 of each handle composed left to right, the first by
    `_after_identity`.  A map that is not PL raises ValueError."""
    if len(maps) < 2 or len(maps) % 2:
        raise ValueError("need an even number (>= 2) of maps")
    inverses = [_piecewise_linear(m, "evaluate_relator").inverse() for m in maps]
    acc = None
    for i in range(0, len(maps), 2):
        (a, b), (ainv, binv) = maps[i:i + 2], inverses[i:i + 2]
        for g, ginv in ((a, ainv), (b, binv), (ainv, a), (binv, b)):
            acc = _after_identity(g, ginv) if acc is None else _compose_pl(acc, g, ginv)
    return acc


@dataclass(frozen=True)
class DisplacementCheck:
    ok: bool
    bound: float
    witness_t: Optional[float] = None
    witness_displacement: Optional[float] = None


def displacement_within(f: PiecewiseLinearMap, bound: Scalar) -> DisplacementCheck:
    """Check |f(t) - t| <= bound exactly at the breakpoints (`_extreme_indices`).
    A failed check names the first point of largest |displacement| as its
    witness; a map that is not PL raises ValueError."""
    g = _piecewise_linear(f, "displacement_within")
    ds = _displacements(g)
    lo, hi = _extreme_indices(ds)
    (ln, ld), (hn, hd) = ds[lo], ds[hi]
    # the larger |displacement|, on a tie the earlier knot; the quotient of
    # two ints is correctly rounded, as float() of their Fraction is
    wider = abs(hn) * ld - abs(ln) * hd
    i = hi if wider > 0 or (wider == 0 and hi < lo) else lo
    n, d = ds[i]
    if Fraction(abs(n), d) <= bound:
        return DisplacementCheck(True, float(bound))
    return DisplacementCheck(False, float(bound), g._tn[i] / g._td[i], n / d)


def wood_bound_check(maps: Sequence[PiecewiseLinearMap]) -> DisplacementCheck:
    """Check the relator displacement bound |relator(t) - t| <= 2g (Milnor-Wood)
    exactly, with `displacement_within`; a map that is not PL raises
    ValueError.  For a map that is not an honest relator, call
    `displacement_within` with it.
    """
    return displacement_within(evaluate_relator(maps), Fraction(len(maps)))


def euler_from_sections(fD: PiecewiseLinearMap, fK: PiecewiseLinearMap) -> int:
    """The constant integer fD(t) - fK(t) of two PL lifts, from extremes, not
    samples.

    With s = fK(t), fD(t) - fK(t) = h(s) - s for h = fD o fK^-1, so the
    difference ranges over [inf, sup] of h's displacement (`_extremes`), whose
    ends are exact.  NonConstantDifference is raised if the difference
    varies, NonIntegerDifference if the constant is not an integer,
    ValueError if fD or fK is not a PL map.
    """
    (_, lo), (_, hi) = _extremes(compose(fD, fK.inverse()), "euler_from_sections")
    if hi > lo:
        raise NonConstantDifference(f"difference varies over [{lo}, {hi}]")
    if lo.denominator != 1:
        raise NonIntegerDifference(f"constant difference {lo} is not an integer")
    return int(lo)
