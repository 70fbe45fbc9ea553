"""Reference geometry for the tests: the lifted holonomy relator folded
letter by letter over all 2g side pairings of
`polygon_reference.reference_pairings`, the O(g) oracle for
`hyperbolic.relator_rotation`; `relator_word` spells a relator as a word
of its letters.  The fold is read in closed form: its
translation number (`moebius_rho`), the two extremes of its displacement
(`moebius_extremes`), and the rounding bound of its trace (`trace_slack`,
with the scale `fold_error_scale` summed from plain complex products).  Also
a distance on PSL(2, R)."""

import cmath
import math
import sys
from itertools import accumulate
from typing import NamedTuple, Sequence

from contactbundles import circle_dynamics as cd
from contactbundles import hyperbolic as hy
from polygon_reference import Isometry2H, build_symmetric_polygon, reference_pairings

TWO_PI = 2.0 * math.pi
EPS = sys.float_info.epsilon

#: relative error (in units of eps, spectral norm) assumed for each letter's
#: matrix against the exact isometry it stands for, e.g. a side pairing built
#: from closed-form trigonometry in a handful of roundings
LETTER_ERROR_ULPS = 16


def proj_distance(x: Isometry2H, y: Isometry2H) -> float:
    """max-norm distance in PSL(2, R): min over the sign ambiguity."""
    dplus = max(abs(x.a - y.a), abs(x.b - y.b), abs(x.c - y.c), abs(x.d - y.d))
    dminus = max(abs(x.a + y.a), abs(x.b + y.b), abs(x.c + y.c), abs(x.d + y.d))
    return min(dplus, dminus)


def relator_word(maps: Sequence[cd.LiftedCircleMap]) -> cd.WordMap:
    """The relator prod_i [f_{2i-1}, f_{2i}] as a word: the letters a, b,
    a^-1, b^-1 of each handle, left to right."""
    return cd.WordMap([(m, e) for i in range(0, len(maps), 2)
                       for m, e in ((maps[i], 1), (maps[i + 1], 1), (maps[i], -1), (maps[i + 1], -1))])


def holonomy_relator(pairings: Sequence[Isometry2H]) -> cd.WordMap:
    """The relator prod_i [phi_{2i-1}, phi_{2i}] of the pairings' canonical boundary lifts."""
    return relator_word([cd.MoebiusBoundaryLift(p) for p in pairings])


def fold(word: cd.WordMap) -> cd.MoebiusBoundaryLift:
    """Fold a word of Moebius letters to one lift, pointwise identical, from
    the left: bit-identical in its matrix to `polygon_reference.commutator_product`
    of the letters' isometries.

    Each step a o b lifts the matrix product, so it is the canonical lift c
    of a.iso o b.iso shifted by an integer.  At 0, (a o b)(0) =
    a.canonical(b.c0) + a.winding + b.winding, and a.canonical(b.c0) lies in
    [0, 2), as does c(0) = c.c0: the shift is a.winding + b.winding plus the
    nearest integer to the difference of those two, which no winding of any
    size enters.  A one-letter word is that letter.
    """
    chain = word._chain  # A_k..A_1 (evaluation order)
    acc = chain[-1]
    for m in chain[-2::-1]:
        ab = cd.MoebiusBoundaryLift(acc.iso.compose(m.iso))
        ab.winding = acc.winding + m.winding + round(acc._canonical(m._c0) - ab._c0)
        acc = ab
    return acc


def moebius_rho(f: cd.MoebiusBoundaryLift) -> float:
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


def moebius_extremes(g: cd.MoebiusBoundaryLift) -> tuple:
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


def disk_product(x, y):
    """Disk coefficients (alpha, beta) of the product of two isometries given by theirs."""
    (a1, b1), (a2, b2) = x, y
    return a1 * a2 + b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate()


def fold_error_scale(word: cd.WordMap, rescaling: bool = True) -> float:
    """S of `trace_slack` for the fold of a word of Moebius lifts A_1..A_k,
    from prefix and suffix products of disk coefficients:
    sum_i ||P_<i|| * ||A_i|| * max(||P_>i||, ||P_>i - h*P_<=i^-1||), with
    h = Re(alpha) = trace/2 of the product and ||(a, b)|| = |a| + |b|.  The
    second norm is how an error in P_<=i moves the trace once the product is
    rescaled to det 1; `rescaling=False` leaves it out (the sum before that
    term was counted)."""
    coeffs = [(m._alpha, m._beta) for m in reversed(word._chain)]
    prefixes = list(accumulate(coeffs, disk_product))  # P_<=i
    suffixes = list(accumulate(coeffs[:0:-1], lambda p, c: disk_product(c, p)))[::-1]
    suffixes.append((1.0, 0.0))  # P_>i
    h = prefixes[-1][0].real if rescaling else 0.0
    before = [1.0] + [abs(a) + abs(b) for a, b in prefixes[:-1]]
    return math.fsum(
        p * (abs(a) + abs(b)) * max(abs(qa) + abs(qb), abs(qa - h * pa.conjugate()) + abs(qb + h * pb))
        for p, (a, b), (qa, qb), (pa, pb) in zip(before, coeffs, suffixes, prefixes))


def trace_slack(f: cd.MoebiusBoundaryLift, word: cd.WordMap) -> float:
    """Bound on |trace(M^) - trace(M)| (SL(2) traces) for the computed matrix
    M^ of f = fold(word) against the exact product M of its letters' isometries.

    To first order in eps, with P_<i and P_>i the products of the letters
    before and after A_i, an error D in A_i reaches P_<=i as P_<i D, and the
    rounded 2x2 product that forms P_<=i adds at most 4*eps*||P_<i||*||A_i||:
    an error F_i of norm at most (LETTER_ERROR_ULPS + 4)*eps*||P_<i||*||A_i||
    in P_<=i, which reaches M as F_i P_>i.  Each product is rescaled by
    1/sqrt(det); the next rescaling cancels that scalar, so only the last one
    counts.  Dividing M + F by sqrt(det(M + F)) = sqrt(1 + tr(M^-1 F)) moves
    the trace by a further -tr(M)*tr(M^-1 F)/2, and
    tr(M^-1 F_i P_>i) = tr(F_i P_<=i^-1).  So the trace moves by
    sum_i tr(F_i W_i), W_i = P_>i - trace/2*P_<=i^-1, and with |tr X| <= 2*||X||

        |trace(M^) - trace(M)| <= 2*e,  e := (LETTER_ERROR_ULPS + 4) * eps * S,

    S = `fold_error_scale(word)`, plus 4*eps*||M^||^2*|trace| for the
    rounding of det itself.
    """
    e = (LETTER_ERROR_ULPS + 4) * EPS * fold_error_scale(word)
    norm = abs(f._alpha) + abs(f._beta)
    return 2.0 * e + 4.0 * EPS * norm * norm * abs(2.0 * f._alpha.real)


def rho_from_trace_slack(trace: float, err: float) -> float:
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


class FoldEstimate(NamedTuple):
    """rho of a fold in closed form, and a bound on both |value - rho| and
    |value - F^N(0)/N|."""

    value: float
    error_bound: float


def fold_estimate(word: cd.WordMap, iterations: int) -> FoldEstimate:
    """The translation number of a word of Moebius lifts, N = `iterations`:
    `moebius_rho` of the fold, at a cost that does not depend on N.  The
    bound is 1/N plus `rho_from_trace_slack` of `trace_slack`: rho is a
    function of the trace, and near traces +-2 it moves like the square root
    of the trace error, as the rotation angle of a near-parabolic matrix is
    that ill-conditioned."""
    f = fold(word)
    # 1 / N of two ints, so an N beyond the float range gives 0.0, not OverflowError
    return FoldEstimate(moebius_rho(f), 1 / iterations
                        + rho_from_trace_slack(2.0 * f._alpha.real, trace_slack(f, word)))


def holonomy_translation_number(g: int, area: float, iterations: int) -> FoldEstimate:
    """Translation number of the lifted relator of the area-`area` polygon,
    folded over all 4g letters.

    The canonical lift is taken for every generator; the relator's value does
    not depend on that choice because each generator occurs with both
    exponents and integer translations are central.  |value| approximates
    area/(2*pi) within the estimate's error bound.
    """
    poly = build_symmetric_polygon(g, hy.radius_for_area(g, area))
    return fold_estimate(holonomy_relator(reference_pairings(poly)), iterations)
