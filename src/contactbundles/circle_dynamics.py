"""Homeomorphisms of the real line commuting with unit translation.

These are the lifts of orientation-preserving circle homeomorphisms, the
carriers of every holonomy computation in this package.  Three concrete
representations are provided:

* `PiecewiseLinearMap` -- exact rational breakpoints, exact evaluation;
* `MoebiusBoundaryLift` -- the boundary action of a disk isometry, evaluated
  in binary64, with an integer `winding` selecting the lift;
* `WordMap` -- a formal composition of other maps (with exponents +-1),
  evaluated by nesting.

`flatten` folds an all-PL word into one exact PL map and an all-Moebius word
into one Moebius lift (`_as_moebius`: it multiplies the matrices, fixes the
integer winding from values in [0, 2) at one point, and sums the rounding
bound of the product, `error_scale`, as it goes).  `translation_number`
iterates PL data exactly, and reads a single Moebius lift's translation number in
closed form, whatever N (`_moebius_rho`: the rotation angle of an elliptic
matrix, or the exact integer at a boundary fixed point).  Nothing is sampled: `_extremes` reads
the extremes of f(t) - t at PL breakpoints, or where a Moebius lift has
slope 1 (`_moebius_extremes`), and decides the displacement checks and the
Euler number of a pair of lifts.  A word that mixes the two has neither an
exact orbit nor a matrix to derive an error bound from, so it is refused.

Exact PL arithmetic is done on integers, not on `Fraction` (rationals kept as
integer pairs, reduced only where a value is returned; Knuth, TAOCP vol. 2,
4.5.1).  A PL map keeps each knot as reduced pairs (tn, td), (vn, vd) and
each affine segment as integers (A, B, C), x -> (A*x + B)/C.  Inversion and
composition build reduced knot pairs with one gcd per knot.  The orbit in
`translation_number` keeps x = P/Q unreduced: with n = P // Q and
r = P - n*Q on the segment (A, B, C) holding r/Q, the next point is
(A*r + (B + n*C)*Q) / (C*Q), and only F^N(0)/N is reduced.  Once a cycle of
segments provably holds the orbit, F^N(0) is read off in closed form
(`_captured_average`).  The public
values stay exact `Fraction`s: `knots`, `eval` at a rational point, and the
estimate's `value`; `eval` at a float is the exact value there, rounded once.

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
import sys
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Optional, Sequence, Union

TWO_PI = 2.0 * math.pi

Scalar = Union[int, float, Fraction]


class NonConstantDifference(ValueError):
    """The two lifts do not differ by a constant, so they do not lift the same circle map."""


class NonIntegerDifference(ValueError):
    """The constant difference of the two lifts is not an integer."""


class LiftedCircleMap:
    """Base class; subclasses implement `eval` and `inverse`."""

    kind: str = "abstract"

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
    terms with C > 0, for x -> (A*x + B)/C.  The segment [t_last - 1, t_0]
    that a point below t_0 falls on is kept too, last.  `knots` (Fraction
    pairs) are built on first use.  `eval` at a float x is f(x) exactly,
    rounded once to binary64.
    """

    kind = "pl"

    def __init__(self, breakpoints: Iterable[tuple]):
        knots = sorted((Fraction(t), Fraction(v)) for t, v in breakpoints)
        if not knots:
            raise ValueError("piecewise-linear map needs at least one breakpoint")
        ts = [t for t, _ in knots]
        vs = [v for _, v in knots]
        if any(t < 0 or t >= 1 for t in ts):
            raise ValueError("breakpoint parameters must lie in [0, 1)")
        if len(set(ts)) != len(ts):
            raise ValueError("duplicate breakpoint parameters")
        for i in range(len(knots) - 1):
            if vs[i + 1] <= vs[i]:
                raise ValueError("breakpoint values must be strictly increasing")
        if vs[0] + 1 <= vs[-1]:
            raise ValueError("wraparound segment is not increasing")
        self._set_pairs([(t.numerator, t.denominator, v.numerator, v.denominator)
                         for t, v in knots])
        self._knots = tuple(knots)

    @classmethod
    def _from_pairs(cls, pairs: list) -> "PiecewiseLinearMap":
        """A map from (tn, td, vn, vd) knots, reduced, sorted and increasing."""
        self = object.__new__(cls)
        self._set_pairs(pairs)
        return self

    def _set_pairs(self, pairs: list) -> None:
        self._pairs = pairs
        self._tn = [tn for tn, _, _, _ in pairs]
        self._td = [td for _, td, _, _ in pairs]
        self._tf = [tn / td for tn, td, _, _ in pairs]
        tn0, td0, vn0, vd0 = pairs[0]
        ends = pairs[1:] + [(tn0 + td0, td0, vn0 + vd0, vd0)]
        tn, td, vn, vd = pairs[-1]
        # _segs[-1] is the wrapped segment, which `_locate` calls -1
        self._segs = [_affine(a, b) for a, b in zip(pairs, ends)]
        self._segs.append(_affine((tn - td, td, vn - vd, vd), pairs[0]))
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
        # are a rotation of a sorted list; it starts at the first larger floor
        shifted = []
        for tn, td, vn, vd in self._pairs:
            m = vn // vd
            shifted.append((m, (vn - m * vd, vd, tn - m * td, td)))
        m0 = shifted[0][0]
        j = next((i for i, (m, _) in enumerate(shifted) if m > m0), len(shifted))
        return PiecewiseLinearMap._from_pairs([k for _, k in shifted[j:] + shifted[:j]])


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

    `iso` is any object exposing `disk_coefficients() -> (alpha, beta)` for
    the disk action w -> (alpha*w + beta) / (conj(beta)*w + conj(alpha)) and
    `inverse()` and `compose()`; see `hyperbolic.Isometry2H`.  `winding`
    shifts the canonical lift by an integer.  `error_scale` is the S of
    `trace_slack`: |alpha| + |beta| for a lift of one matrix, copied by
    `inverse`, summed over the letters by a fold (`_as_moebius`).

    Evaluation is pointwise exact up to float roundoff: the canonical lift
    restricted to [0, 1) takes values in [c0, c0 + 1), with c0 = f(0) the
    principal argument of the image of 1 (in turns, in [0, 1)).
    """

    kind = "moebius"

    def __init__(self, iso, winding: int = 0):
        self.iso = iso
        self.winding = int(winding)
        alpha, beta = iso.disk_coefficients()
        self._alpha = a = complex(alpha)
        self._beta = b = complex(beta)
        self.error_scale = abs(a) + abs(b)
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
        inv.error_scale = self.error_scale
        return inv


class WordMap(LiftedCircleMap):
    """Formal composition word; letters[0] is applied last.

    Letters are (map, exponent) with exponent +-1.  Inverse letters are
    resolved to concrete inverse maps once, at construction.
    """

    kind = "word"

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


def _reduced(p: int, q: int) -> tuple:
    d = math.gcd(p, q)
    return p // d, q // d


def _compose_pl(f: PiecewiseLinearMap, g: PiecewiseLinearMap,
                ginv: Optional[PiecewiseLinearMap] = None) -> PiecewiseLinearMap:
    """Exact breakpoints of f o g: g's knots plus g-preimages of f's knots.

    `ginv` is g's inverse when the caller has it.  Each knot costs at most one
    evaluation: at a preimage u = g^-1(s) of f's knot (s, w), reduced mod 1 to
    u - m, f(g(u - m)) = f(s - m) = w - m; at g's knot (t, v) it is f(v).  The
    knots are reduced integer pairs, sorted on their numerators over a common
    denominator.
    """
    if ginv is None:
        ginv = g.inverse()
    knots = {}
    for sn, sd, wn, wd in f._pairs:
        p, q = ginv._eval_pair(sn, sd)
        m = p // q
        knots[_reduced(p - m * q, q)] = (wn - m * wd, wd)
    for tn, td, vn, vd in g._pairs:
        if (tn, td) not in knots:
            knots[tn, td] = _reduced(*f._eval_pair(vn, vd))
    den = math.lcm(*(q for _, q in knots))
    return PiecewiseLinearMap._from_pairs(
        [t + v for t, v in sorted(knots.items(), key=lambda kv: kv[0][0] * (den // kv[0][1]))])


def _as_piecewise_linear(f: WordMap) -> PiecewiseLinearMap:
    """Fold a word of PL letters (the empty word too) to one exact PL map."""
    # the chain holds each letter resolved, inverse letters already inverted
    resolved = tuple(zip(f.letters(), reversed(f._chain)))
    inverses = {id(m): g for (m, e), g in resolved if e == -1}
    acc = PiecewiseLinearMap.identity()
    for (m, e), g in resolved:
        acc = _compose_pl(acc, g, m if e == -1 else inverses.get(id(m)))
    return acc


def _displacements(pl: PiecewiseLinearMap) -> list:
    """v - t at each knot as an unreduced pair (n, d), d > 0."""
    return [(vn * td - tn * vd, vd * td) for tn, td, vn, vd in pl._pairs]


def _first_max(pairs: Sequence[tuple]) -> int:
    """Index of the first largest n/d among pairs (n, d) with d > 0."""
    best, (bn, bd) = 0, pairs[0]
    for i, (n, d) in enumerate(pairs):
        if n * bd > bn * d:
            best, bn, bd = i, n, d
    return best


def _as_moebius(f: WordMap) -> MoebiusBoundaryLift:
    """Fold a word of Moebius letters to one lift, pointwise identical, from
    the left, with the `error_scale` S of `trace_slack`.

    Each step a o b lifts the matrix product, so it is the canonical lift c
    of a.iso o b.iso shifted by an integer.  At 0, (a o b)(0) =
    a.canonical(b.c0) + a.winding + b.winding, and a.canonical(b.c0) lies in
    [0, 2), as does c(0) = c.c0: the shift is a.winding + b.winding plus the
    nearest integer to the difference of those two, which no winding of any
    size enters.  The accumulator a runs through the prefixes P_<=i, which
    `_fold_error_scale` reads with the letters once the fold is made.
    """
    chain = f._chain  # A_k..A_1 (evaluation order)
    acc, prefixes = chain[-1], []
    for m in chain[-2::-1]:
        prefixes.append((acc._alpha, acc._beta))
        ab = MoebiusBoundaryLift(acc.iso.compose(m.iso))
        ab.winding = acc.winding + m.winding + round(acc._canonical(m._c0) - ab._c0)
        acc = ab
    if len(chain) > 1:  # a one-letter word is that letter, left as it is
        prefixes.append((acc._alpha, acc._beta))
        acc.error_scale = _fold_error_scale(chain, prefixes)
    return acc


def _fold_error_scale(chain: Sequence[MoebiusBoundaryLift], prefixes: Sequence[tuple]) -> float:
    """S of the fold of `chain` (evaluation order), given the disk
    coefficients of P_<=i for the letters A_1..A_k, the whole product last;
    after[j] holds those of P_>i for chain[j].  With h = trace/2 = Re(alpha)
    of the product, P_<=i^-1 has coefficients (conj(alpha), -beta), and a
    matrix of the form [[a, b], [conj(b), conj(a)]] has norm |a| + |b|."""
    h = prefixes[-1][0].real
    suffixes = accumulate((m.iso for m in chain[:-1]), lambda p, iso: iso.compose(p))
    after = [(1.0, 0.0)] + [p.disk_coefficients() for p in suffixes]
    before = [1.0] + [abs(a) + abs(b) for a, b in prefixes[:-1]]
    return math.fsum(
        p * m.error_scale * max(abs(qa) + abs(qb), abs(qa - h * a.conjugate()) + abs(qb + h * b))
        for p, m, (qa, qb), (a, b) in zip(before, chain[::-1], after[::-1], prefixes))


def flatten(f: LiftedCircleMap) -> LiftedCircleMap:
    """Cheapest pointwise-equal representative: a word of PL letters folds
    to one exact PL map, a word of Moebius letters to one Moebius lift; a
    word mixing the two, and any single map, is returned as it is."""
    if not isinstance(f, WordMap):
        return f
    kinds = {m.kind for m, _ in f.letters()}
    if kinds <= {PiecewiseLinearMap.kind}:
        return _as_piecewise_linear(f)
    if kinds == {MoebiusBoundaryLift.kind}:
        return _as_moebius(f)
    return f


def _moebius_extremes(g: MoebiusBoundaryLift) -> tuple:
    """(t, g(t) - t) at the minimum and the maximum of D = g - id, lowest first.

    The lift is w(z) = (alpha*z + beta)/(conj(beta)*z + conj(alpha)) with
    |alpha|^2 - |beta|^2 = 1 (`Isometry2H` normalises the determinant); its
    slope in turns at z = exp(2*pi*i*t) is 1/|conj(beta)*z + conj(alpha)|^2
    (Beardon, The Geometry of Discrete Groups, 1983).  So D' = 0 exactly on
    the isometric circle |z + conj(alpha)/conj(beta)| = 1/|beta|, which meets
    |z| = 1 at theta = arg(-conj(alpha)*beta) +- phi, cos(phi) = |beta|/|alpha|
    and sin(phi) = 1/|alpha|.  phi is atan2(1, |beta|): in acos(|beta|/|alpha|)
    the argument rounds to 1 for large |beta| and the two points merge.
    Nothing divides by beta: for beta = 0, a rotation about the centre,
    phi = pi/2 and D is constant.  D' = 0 at both points, so rounding in t
    moves D only at second order.
    """
    a, b = g._alpha, g._beta
    mid, phi = cmath.phase(-a.conjugate() * b), math.atan2(1.0, abs(b))
    ts = [((mid + s * phi) / TWO_PI) % 1.0 for s in (-1.0, 1.0)]
    return tuple(sorted(((t, g.eval(t) - t) for t in ts), key=lambda e: e[1]))


def _extremes(f: LiftedCircleMap) -> tuple:
    """((t_lo, D_lo), (t_hi, D_hi)), the first minimum and the first maximum
    over one period of D = f - id, without sampling.

    Exact `Fraction`s for (words of) piecewise-linear maps: D is linear
    between breakpoints, so both are attained at a breakpoint.  For Moebius
    data, the two critical points in closed form (`_moebius_extremes`).  A
    word mixing PL and Moebius letters raises ValueError.
    """
    g = flatten(f)
    if isinstance(g, MoebiusBoundaryLift):
        return _moebius_extremes(g)
    if not isinstance(g, PiecewiseLinearMap):
        raise ValueError("displacement: a word mixing piecewise-linear and Moebius "
                         "letters has no closed-form extremes")
    ds = _displacements(g)
    return tuple((Fraction(g._tn[i], g._td[i]), Fraction(*ds[i]))
                 for i in (_first_max([(-n, d) for n, d in ds]), _first_max(ds)))


def sup_displacement(f: LiftedCircleMap) -> Scalar:
    """sup over one period of f(t) - t (`_extremes`)."""
    return _extremes(f)[1][1]


def inf_displacement(f: LiftedCircleMap) -> Scalar:
    """inf over one period of f(t) - t (`_extremes`), equal to -sup_displacement(f^-1)."""
    return _extremes(f)[0][1]


@dataclass(frozen=True)
class TranslationNumberEstimate:
    """An estimate of the translation number rho together with its error bound.

    For piecewise-linear data `value` is the exact orbit average f^N(0)/N
    (a Fraction) with N = `iterations`, and `error_bound` is 1/N: since
    t -> f^N(t) - t has width < 1 and rho is its mean slope,
    |f^N(0)/N - rho| < 1/N (Ghys, Enseign. Math. 2001).  For a Moebius lift,
    or a word of them, `value` is rho of the computed matrix in closed form,
    so it needs no orbit; `error_bound` is 1/N plus the rounding slack of
    that matrix (see `translation_number`), and bounds both |value - rho|
    and |value - f^N(0)/N|.
    """

    value: Scalar
    error_bound: float
    iterations: int


_EPS = sys.float_info.epsilon

#: relative error (in units of eps, spectral norm) assumed for each letter's
#: matrix against the exact isometry it stands for, e.g. a side pairing built
#: from closed-form trigonometry in a handful of roundings
LETTER_ERROR_ULPS = 16


def _moebius_rho(f: MoebiusBoundaryLift) -> float:
    """The translation number of a Moebius lift, from its matrix in O(1).

    With (alpha, beta) the disk coefficients, |Re(alpha)| = |trace|/2.

    * |Re(alpha)| < 1 (elliptic): f is conjugate to a rotation by 2*pi*r,
      r = acos(+-Re(alpha))/pi in (0, 1) with the sign of Im(alpha) (the
      rotation by theta about 0 has alpha = exp(i*theta/2)).  With no
      boundary fixed point, D(t) = f(t) - t is never an integer, so rho and
      every D(t) lie in one interval (m, m + 1); D(0) = c0 + winding with c0
      in (0, 1), so rho = winding + r.
    * |Re(alpha)| >= 1 (hyperbolic, parabolic or the identity): the boundary
      fixed points solve conj(beta)*w^2 + (conj(alpha) - alpha)*w - beta = 0,
      w = (+-sqrt(Re(alpha)^2 - 1) + i*Im(alpha)) / conj(beta); the sign of
      Re(alpha) picks the attracting one t*, where rounding in t* shrinks
      under f, and rho = f(t*) - t* is an integer.  Within 1e-3 of 0 the lift
      is read at 0 instead (f moves 0 towards t*, so |D(0) - rho| < 2e-3),
      which keeps the evaluation off the seam of [0, 1).  (beta = 0 is the
      identity.)
    """
    a, b = f._alpha, f._beta
    if abs(a.real) < 1.0:
        return f.winding + math.acos(a.real if a.imag >= 0.0 else -a.real) / math.pi
    s = math.copysign(math.sqrt(a.real * a.real - 1.0), a.real)
    w = complex(s, a.imag) / b.conjugate() if b else 1.0
    t = (math.atan2(w.imag, w.real) / TWO_PI) % 1.0
    if min(t, 1.0 - t) < 1e-3:
        t = 0.0
    return float(round(f.eval(t) - t))


def _rho_from_trace_slack(trace: float, err: float) -> float:
    """How far rho can move while the SL(2) trace moves by at most `err`.

    An elliptic element is conjugate to a rotation by 2h with trace 2*cos(h),
    and its lift has rho = +-u + n with u = acos(trace/2)/pi in [0, 1].  Inside
    (-2, 2) rho moves with u; a trace interval that reaches 2 (u = 0) or -2
    (u = 1) lets the sign of the rotation flip, so rho can cross to the mirror
    value.  Hyperbolic traces clamp to u = 0 or 1, an integer rho.
    """
    def u(x: float) -> float:
        return math.acos(max(-1.0, min(1.0, x / 2.0))) / math.pi

    lo, hi = trace - err, trace + err
    r = u(trace)
    slack = max(u(lo) - r, r - u(hi))
    if hi >= 2.0:
        slack = max(slack, r + u(lo))
    if lo <= -2.0:
        slack = max(slack, 2.0 - r - u(hi))
    return slack


def trace_slack(f: MoebiusBoundaryLift) -> float:
    """Bound on |trace(M^) - trace(M)| (SL(2) traces) for the computed matrix
    M^ of f against the exact product M of its letters' isometries.

    f is a letter or the fold of letters A_1..A_k.  To first order in eps,
    with P_<i and P_>i the products of the letters before and after A_i, an
    error D in A_i reaches P_<=i as P_<i D, and the rounded 2x2 product that
    forms P_<=i adds at most 4*eps*||P_<i||*||A_i||: an error F_i of norm at
    most (LETTER_ERROR_ULPS + 4)*eps*||P_<i||*||A_i|| in P_<=i, which reaches
    M as F_i P_>i.  Each product is rescaled by 1/sqrt(det); the next
    rescaling cancels that scalar, so only the last one counts.  Dividing
    M + F by sqrt(det(M + F)) = sqrt(1 + tr(M^-1 F)) moves the trace by a
    further -tr(M)*tr(M^-1 F)/2, and tr(M^-1 F_i P_>i) = tr(F_i P_<=i^-1).
    So the trace moves by sum_i tr(F_i W_i), W_i = P_>i - trace/2*P_<=i^-1,
    and with |tr X| <= 2*||X||

        |trace(M^) - trace(M)| <= 2*e,  e := (LETTER_ERROR_ULPS + 4) * eps * S,
        S = sum_i ||P_<i|| * ||A_i|| * max(||P_>i||, ||W_i||),

    plus 4*eps*||M^||^2*|trace| for the rounding of det itself.  The fold
    carries S as `f.error_scale`, and a letter that is itself a fold enters
    with its S for ||A_i|| (its first letter entered no product, and that
    4*eps share covers the product taking the fold in); the max keeps that S
    at least the bound on ||M^ - M|| before the fold's own last rescaling,
    which is not counted there.
    """
    e = (LETTER_ERROR_ULPS + 4) * _EPS * f.error_scale
    norm = abs(f._alpha) + abs(f._beta)
    return 2.0 * e + 4.0 * _EPS * norm * norm * abs(2.0 * f._alpha.real)


def translation_number(f: LiftedCircleMap, iterations: int) -> TranslationNumberEstimate:
    """Estimate the translation number rho of f; N = `iterations`.

    * Piecewise-linear data: the exact rational orbit average f^N(0)/N,
      error bound 1/N.  The orbit is stepped only until a cycle of segments
      is proved to hold it (`_captured_average`: an exactly periodic orbit,
      or an attracting cycle whose hulls stay in their closed segments);
      the rest is one integer power, so a captured orbit costs a fixed number
      of steps and O(N) bits, not O(N^2).  A PL map with a periodic orbit
      and slopes other than 1 usually has an attracting cycle (M. Herman,
      Publ. Math. IHES 49, 1979).  An orbit never captured is stepped N
      times.
    * A Moebius lift, or a word of them (flattened to one lift first): rho of
      the computed matrix in closed form (`_moebius_rho`), at a cost that does
      not depend on N.  The bound is 1/N plus `_rho_from_trace_slack` of
      `trace_slack`: rho is a function of the trace, and near traces +-2 it
      moves like the square root of the trace error, as the rotation angle
      of a near-parabolic matrix is that ill-conditioned (rho is not
      Lipschitz in the displacement there, so no displacement bound would
      do).  With the 1/N it also bounds |value - f^N(0)/N|.
    * A word that flattens to neither (one mixing PL and Moebius letters)
      raises ValueError: its float orbit has no derived error bound.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    g = flatten(f)
    if isinstance(g, MoebiusBoundaryLift):
        # 1 / N of two ints, so an N beyond the float range gives 0.0, not OverflowError
        return TranslationNumberEstimate(
            value=_moebius_rho(g),
            error_bound=1 / iterations + _rho_from_trace_slack(2.0 * g._alpha.real, trace_slack(g)),
            iterations=iterations)
    if not isinstance(g, PiecewiseLinearMap):
        raise ValueError("translation_number: a word mixing piecewise-linear and Moebius "
                         "letters has no derived error bound")
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
    segment's C, and only the returned value is reduced.  At each check
    (CAPTURE_FIRST_STEP) `_captured_average` tries to prove that the orbit
    stays on a cycle of segments from there on, and then reads F^n(0) off a
    closed form; an orbit never captured is stepped to the end.
    """
    p, q = 0, 1
    points = deque([(p, q)], maxlen=2 * CAPTURE_MAX_PERIOD + 1)
    k, check = 0, CAPTURE_FIRST_STEP
    while k < n:
        stop = min(check, n)
        for _ in range(stop - k):
            p, q = g._eval_pair(p, q)
            points.append((p, q))
        k, check = stop, 2 * check
        if k < n:
            average = _captured_average(g, list(points), n - k, n)
            if average is not None:
                return average
    return Fraction(p, q * n)


def _captured_average(g: PiecewiseLinearMap, points: list, ahead: int,
                      n: int) -> Optional[Fraction]:
    """F^n(0)/n from the last orbit points x_(k-w)..x_k, with k = n - ahead,
    if a cycle of at most CAPTURE_MAX_PERIOD segments is proved to hold the
    orbit from x_s on; None otherwise.

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
      x_n = y_r + m*p + lam^m * (x_(s+r) - y_r) (`_jump_average`).

    Both give F^n(0) itself, so the value is the stepped orbit's.
    """
    steps = []  # (segment, floor) of each point
    for p, q in points:
        fl, r = divmod(p, q)
        steps.append((g._locate(r, q), fl))
    segs = [i for i, _ in steps]
    last = len(points) - 1
    for period in range(1, min(CAPTURE_MAX_PERIOD, last // 2) + 1):
        start = last - period
        if segs[start - period:start] != segs[start:last]:
            continue
        shift = steps[last][1] - steps[start][1]
        m, r = divmod(ahead + period, period)
        (p0, q0), (pc, qc), (pr, qr) = points[start], points[last], points[start + r]
        if pc * q0 - p0 * qc == shift * q0 * qc:
            return Fraction(pr + m * shift * qr, qr * n)
        maps = []  # step j as x -> (A*x + B')/C: its segment (A, B, C) at its floor
        for i, fl in steps[start:last]:
            sa, sb, sc = g._segs[i]
            maps.append((sa, sb + fl * (sc - sa), sc))
        a, b, c = 1, 0, 1  # L(x) = (a*x + b)/c
        for sa, sb, sc in maps:
            a, b, c = sa * a, sa * b + sb * c, sc * c
        if a >= c:
            continue
        y = Fraction(b - shift * c, c - a)
        cycle = []
        for (i, fl), (sa, sb, sc) in zip(steps[start:last], maps):
            if not _on_segment(g, i, y - fl):
                break
            cycle.append(y)
            y = (sa * y + sb) / sc
        else:
            d = math.gcd(a, c)
            return _jump_average(a // d, c // d, m, cycle[r], (pr, qr), m * shift, n)
    return None


def _on_segment(g: PiecewiseLinearMap, i: int, u: Fraction) -> bool:
    """Whether u lies in the closed segment i of g (-1: [t_last - 1, t_0])."""
    tn, td = g._tn, g._td
    lo_n, lo_d = (tn[i] - td[i], td[i]) if i < 0 else (tn[i], td[i])
    hi_n, hi_d = (tn[i + 1], td[i + 1]) if i + 1 < len(tn) else (tn[0] + td[0], td[0])
    un, ud = u.numerator, u.denominator
    return lo_n * ud <= un * lo_d and un * hi_d <= hi_n * ud


def _jump_average(a: int, c: int, m: int, y: Fraction, x: tuple, shift: int,
                  n: int) -> Fraction:
    """(y + shift + (a/c)^m * (x - y)) / n for coprime a, c > 0 and x = (p, q),
    reduced with no gcd of two numbers that grow with m.

    Over the common denominator S*c^m, S = D*G*n with y = Y/D and
    x - y = E/G, the numerator is X*c^m + a^m*Z with Z = E*D.  As a and c are
    coprime, it shares h = gcd(Z, c^m) with c^m, and once h is divided out it
    is coprime to the rest of c^m: what remains is its gcd with S.

    Z is never 0: x = y would put x_s on the cycle point y_0, as the steps
    from x_s to x are injective, so `_captured_average` would have returned
    at its exactly-periodic test.
    """
    yn, yd = y.numerator, y.denominator
    p, q = x
    z = (p * yd - yn * q) * yd
    small = yd * q * yd * n
    big = c ** m
    num = (yn + shift * yd) * q * yd * big + a ** m * z
    h = math.gcd(z, pow(c, m, abs(z)))
    num, big = num // h, big // h
    d = math.gcd(num, small)
    return _coprime_fraction(num // d, small // d * big)


def _coprime_fraction(num: int, den: int) -> Fraction:
    """The Fraction num/den for coprime num and den > 0, built without the
    constructor's gcd (what `Fraction._from_coprime_ints` does in 3.12)."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = num, den
    return f


def evaluate_relator(maps: Sequence[LiftedCircleMap]) -> WordMap:
    """The surface-group relator prod_{i=1..g} [f_{2i-1}, f_{2i}] as a word."""
    if len(maps) < 2 or len(maps) % 2:
        raise ValueError("need an even number (>= 2) of maps")
    letters = []
    for i in range(0, len(maps), 2):
        a, b = maps[i], maps[i + 1]
        letters += [(a, 1), (b, 1), (a, -1), (b, -1)]
    return WordMap(letters)


@dataclass(frozen=True)
class DisplacementCheck:
    ok: bool
    bound: float
    witness_t: Optional[float] = None
    witness_displacement: Optional[float] = None


def displacement_within(f: LiftedCircleMap, bound: Scalar) -> DisplacementCheck:
    """Check |f(t) - t| <= bound at the extremes (`_extremes`), with no slack:
    exactly at the breakpoints for PL data, at the two critical points of the
    displacement for Moebius data.  A failed check names the first point of
    largest |displacement| as its witness; a word mixing PL and Moebius
    letters raises ValueError."""
    t, d = min(_extremes(f), key=lambda e: (-abs(e[1]), e[0]))
    if abs(d) <= bound:
        return DisplacementCheck(True, float(bound))
    return DisplacementCheck(False, float(bound), float(t), float(d))


def wood_bound_check(maps: Sequence[LiftedCircleMap]) -> DisplacementCheck:
    """Check the relator displacement bound |relator(t) - t| <= 2g (Milnor-Wood)
    with `displacement_within`: exactly for PL maps, in closed form for Moebius
    lifts, and a mix of the two raises ValueError.  For constructed words that
    are not honest relators, call `displacement_within` with the synthetic map.
    """
    return displacement_within(evaluate_relator(maps), Fraction(len(maps)))


def euler_from_sections(fD: LiftedCircleMap, fK: LiftedCircleMap) -> int:
    """The constant integer fD(t) - fK(t), from extremes, not samples.

    With s = fK(t), fD(t) - fK(t) = h(s) - s for h = fD o fK^-1, so the
    difference ranges over [inf, sup] of h's displacement (`_extremes`).  If h
    mixes PL and Moebius letters, the range lies in [inf D_fD - sup D_fK,
    sup D_fD - inf D_fK]: a Moebius lift that is affine on an interval is a
    rotation, so the difference is constant only if both lifts are
    translations, and then that interval is a point.  Exact (`Fraction`) ends
    are compared exactly, float ends within 1e-9.  NonConstantDifference is
    raised if the difference varies, NonIntegerDifference if the constant is
    not an integer, ValueError if fD or fK itself mixes PL and Moebius letters.
    """
    try:
        (_, lo), (_, hi) = _extremes(compose(fD, fK.inverse()))
    except ValueError:
        (_, d_lo), (_, d_hi) = _extremes(fD)
        (_, k_lo), (_, k_hi) = _extremes(fK)
        lo, hi = d_lo - k_hi, d_hi - k_lo
    tol = 0 if isinstance(lo, Fraction) else 1e-9
    if hi - lo > tol:
        raise NonConstantDifference(f"difference varies over [{lo}, {hi}]")
    mid = (lo + hi) / 2
    k = round(mid)
    if abs(mid - k) > tol:
        raise NonIntegerDifference(f"constant difference {mid} is not an integer")
    return int(k)
