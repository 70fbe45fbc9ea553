"""Symmetric polygons in the Poincare disk and their side-pairing isometries.

The construction realised here: a regular 4g-gon with vertices numbered
clockwise on a hyperbolic circle, glued by orientation-preserving isometries
pairing the sides in the pattern

    phi_{2i-1}(s_{4i-1}) = s_{4i-2},   phi_{2i-1}(s_{4i}) = s_{4i-3},
    phi_{2i}(s_{4i-2})   = s_{4i+1},   phi_{2i}(s_{4i-1}) = s_{4i},

indices mod 4g, so that consecutive edges are glued in the pattern
(E_{4i-3}, E_{4i-2}, E_{4i-1}, E_{4i}) ~ (a, b, a, b); each edge is used by
exactly one pairing.  The product of commutators of the pairings is then an
elliptic rotation about s_1 by the polygon's total interior angle, and its
boundary lift has translation number -area/(2*pi).  The pairings and
vertices of one handle are those of the previous one turned by the rotation
Rot(-2*pi/g), so both commands measure the first handle only: the vertices
s_1..s_5 (`polygon_vertices`), phi_1 and phi_2 (`side_pairings`), a residual
bound that covers every handle (`pairing_residual_bound`), and the relator's
translation number and trace, read from how the two pairings turn at four
vertices (`relator_rotation`), with their derived bounds.

An isometry is its pair of disk coefficients (alpha, beta), |alpha|^2 -
|beta|^2 = 1, acting as w -> (alpha*w + beta)/(conj(beta)*w + conj(alpha)),
and identified with (-alpha, -beta); the boundary circle is the
circle-dynamics coordinate, so no further conjugation is needed.  A disk
point is a `complex` z with |z| < 1; `image_distance` measures an image from
its source point, never from the rounded image.  The area is read off the
circumradius in closed form (`polygon_area`) and tested on the built vertices.

The right triangle (centre, edge midpoint, vertex) has angles pi/n and
beta/2, with n = 4g and interior angle beta = ((n-2)*pi - area)/n, so the
circumradius R and inradius rho are (Beardon, The Geometry of Discrete
Groups, 7.11 and 7.17)

    cosh R = cot(pi/n) * cot(beta/2),    tanh rho = tanh R * cos(pi/n).

The pairings are half-turns about edge midpoints followed by rotations about
the origin, with coefficients in closed form in rho (`side_pairings`); since
rho < atanh(cos(pi/n)), they stay bounded as the area approaches (4g-2)*pi
and the vertices the boundary.
"""

from __future__ import annotations

import cmath
import math
import struct
import sys
from typing import List, Optional, Sequence, Tuple


class AreaOutOfRange(ValueError):
    """Requested area is outside (0, (4g-2)*pi) or beyond its float limits."""


#: Largest tanh(R/2) of the vertices: x^2 + y^2 rounds by a relative 4*eps, so |z| stays < 1
_R_MAX = 1.0 - 4 * sys.float_info.epsilon


def _distance(chord: float, rp: float, rq: float) -> float:
    """2*asinh(chord / sqrt((1 - rp^2)(1 - rq^2))); 1 - r^2 as (1 - r)(1 + r) keeps its digits."""
    return 2.0 * math.asinh(chord / math.sqrt((1.0 - rp) * (1.0 + rp) * (1.0 - rq) * (1.0 + rq)))


def hdistance(p: complex, q: complex) -> float:
    """Hyperbolic distance (curvature -1) of two disk points; ValueError unless |p|, |q| < 1."""
    rp, rq = abs(p), abs(q)
    if max(rp, rq) >= 1.0:
        raise ValueError("point must lie strictly inside the unit disk")
    return _distance(abs(p - q), rp, rq)


def image_distance(pairing: Tuple[complex, complex], p: complex, q: complex) -> float:
    """hdistance(phi(p), q) for the isometry phi with disk coefficients `pairing` =
    (alpha, beta), |alpha|^2 - |beta|^2 = 1, with the image's conformal factor read off p:
    phi(p) = (alpha*p + beta)/m and det 1 give 1 - |phi(p)|^2 = (1 - |p|^2)/|m|^2 (Beardon,
    The Geometry of Discrete Groups), so it stays finite where phi(p) rounds onto |z| = 1."""
    alpha, beta = pairing
    m = beta.conjugate() * p + alpha.conjugate()
    return _distance(abs((alpha * p + beta) / m - q) * abs(m), abs(p), abs(q))


def polygon_vertices(g: int, radius: float, count: int) -> List[complex]:
    """s_1, ..., s_count (indices mod n) of the regular n-gon, n = 4g, with
    hyperbolic circumradius `radius` about the origin, numbered clockwise.

    s_k = r*exp(-2*pi*i*(k-1)/n), r = tanh(radius/2).  All vertices share one
    rounded r, so to first order in the unit roundoff eps only per-vertex
    rounding separates the sides: it moves a vertex by (2*pi + 3)*eps*r
    along the circle, a relative 5*n*eps of the chord |p - q| = 2r*sin(pi/n)
    >= 4r/n, and |z| by 3*eps, a relative 6*eps/(1 - |z|^2) of 1 - |z|^2.
    The side s = 2*asinh(u) moves by 2*tanh(s/2) < 2 times the relative
    error of u (above, plus 6*eps to evaluate u) plus eps*s, so two sides
    differ by at most eps*(2s + 20n + 48/(1 - |z|^2)) <= 48*eps*(s + n +
    1/(1 - |z|^2)), a bound that tests/test_hyperbolic.py checks over the
    whole domain of `radius_for_area`.  A radius with r not in (0, _R_MAX]
    raises ValueError.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    n = 4 * g
    re = math.tanh(radius / 2.0)  # Euclidean radius of the hyperbolic circle
    if not 0.0 < re <= _R_MAX:
        raise ValueError(f"circumradius {radius!r} must be positive and keep the vertices off |z| = 1")
    angles = [-2.0 * math.pi * (k % n) / n for k in range(count)]  # clockwise numbering
    return [complex(re * math.cos(t), re * math.sin(t)) for t in angles]


def polygon_area(g: int, radius: float) -> float:
    """Area of the regular n-gon, n = 4g, of circumradius R = `radius`:
    (n-2)*pi - n*beta with cot(beta/2) = cosh(R)*t, t = tan(pi/n) (module docstring),
    so 2n*(atan(cosh(R)*t) - atan(t)) = 2n*atan2(x*t, 1 + cosh(R)*t^2) with
    x = cosh R - 1 = 2*sinh(R/2)^2, where nothing cancels.  In x, A rises and is
    concave from A(0) = 0, and x*A'(x) = 2n*x*t/(1 + cosh(R)^2*t^2) <= top - A =
    2n*atan(1/(cosh(R)*t)), top = (n-2)*pi, as y/(1 + y^2) <= atan(y): a relative
    error d in x moves A by at most d*min(A, top - A), and one in t by at most d*A,
    as |t*dA/dt| = 2n*|f(cosh(R)*t) - f(t)| with f(y) = y/(1 + y^2), |f'| <= atan'.
    To first order in eps, with libm within an ulp, x errs here by 3*eps, t by
    2.1*eps (tan's condition is at most pi/2), atan2's arguments by 2.5*eps and
    atan2 and 2n*(.) by 1.5*eps.  With `radius_for_area`'s bound on R, rounded up,
    |polygon_area(g, radius_for_area(g, A)) - A| <= eps*(9*A + (12 + R)*min(A, top - A))
    <= eps*(21 + R)*A < A, so the area is positive; tests/test_hyperbolic.py checks it.
    """
    n = 4 * g
    t = math.tan(math.pi / n)
    excess = 2.0 * math.sinh(radius / 2.0) ** 2
    return 2 * n * math.atan2(excess * t, 1.0 + (1.0 + excess) * t * t)


#: Largest genus `radius_for_area` accepts.  `polygon` and `holonomy` do work
#: independent of g, but `pairing_residual_bound` and the side bound of
#: `polygon_vertices` are tested against the full build only up to here.
MAX_GENUS = 10 ** 4


def radius_for_area(g: int, area: float) -> float:
    """Circumradius R of the regular 4g-gon of the given area, in closed form.

    cosh R = cot(pi/n) * cot(beta/2) with n = 4g and beta = ((n-2)*pi - area)/n
    (module docstring).  Since pi/n + beta/2 = pi/2 - area/(2n), it is
    evaluated without cancellation at either end of (0, (4g-2)*pi) as
    2*sinh(R/2)^2 = cosh R - 1 = sin(area/(2n)) / (sin(pi/n) * sin(beta/2)).
    The domain is 1 <= g <= MAX_GENUS and 0 < area < (4g-2)*pi; outside it this
    raises ValueError (AreaOutOfRange for the area).  Areas beyond the float limits at
    both ends are refused too: below 2n times the smallest normal float, R loses its
    digits; at or above the smallest float area with tanh(R/2) > _R_MAX, the vertices
    reach |z| = 1 (`_top_limit`).

    To first order in eps, with libm within an ulp, R is the exact radius of an
    area within eps*((9 + R)*m + 2*area) of `area`, m = min(area, top - area),
    top = (4g-2)*pi: within 26*eps*top, as R < 36 below _R_MAX.  The top is within
    0.7*eps*top of itself, so `excess` errs by a relative eps*(6 + top/(top - area));
    sqrt and asinh add eps*(1 + R*coth(R/2)) <= eps*(3 + R); a relative error d in
    cosh R - 1 moves the area by at most d*m (`polygon_area`); top*m/(top - area) <= 2*area.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    if g > MAX_GENUS:
        raise ValueError(f"genus must be <= {MAX_GENUS}: the polygon's rounding bounds "
                         "are tested only up to there")
    amax = (4 * g - 2) * math.pi
    if not (0.0 < area < amax):
        raise AreaOutOfRange(f"area must lie strictly between 0 and {amax}")
    n = 4 * g
    bottom = 2 * n * sys.float_info.min  # exact; below it area/(2n) is subnormal
    if area < bottom:
        raise AreaOutOfRange(f"area {area!r} is below the float limit {bottom!r} above 0")
    radius = _radius(n, amax, area)
    if radius is None:
        raise AreaOutOfRange(f"area {area!r} is at or above the float limit "
                             f"{_top_limit(n, amax)!r} below the top {amax}: the polygon's "
                             "vertices would round onto the unit circle")
    return radius


def _radius(n: int, top: float, area: float) -> Optional[float]:
    """The circumradius of `radius_for_area` for the n-gon, or None where
    tanh(R/2) > _R_MAX."""
    half_beta = (top - area) / (2 * n)
    excess = math.sin(area / (2 * n)) / (math.sin(math.pi / n) * math.sin(half_beta))
    radius = 2.0 * math.asinh(math.sqrt(excess / 2.0))
    return radius if math.tanh(radius / 2.0) <= _R_MAX else None


def _top_limit(n: int, top: float) -> float:
    """The smallest float area in (top/2, top) that `_radius` refuses, by
    bisection on the bit patterns of the positive floats, which are ordered as
    the floats are: at most 52 steps, taken only on refusal.  Near the limit
    the refusal is monotone in the area (tests/test_hyperbolic.py), so every
    refused area lies at or above it."""
    def bits(x: float) -> int:
        return struct.unpack("<q", struct.pack("<d", x))[0]

    def area(i: int) -> float:
        return struct.unpack("<d", struct.pack("<q", i))[0]

    lo, hi = bits(top / 2), bits(top)  # accepted, refused
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _radius(n, top, area(mid)) is None:
            hi = mid
        else:
            lo = mid
    return area(hi)


def _inradius(g: int, radius: float) -> Tuple[float, float]:
    """(x, cosh(rho)) of the 4g-gon of circumradius `radius`, rho its inradius:
    x = tanh(R)*cos(pi/n) = tanh(rho) (module docstring), and cosh(rho) =
    1/sqrt((1 - x)(1 + x)), where 1 - x^2 keeps its digits."""
    x = math.tanh(radius) * math.cos(math.pi / (4 * g))
    return x, 1.0 / math.sqrt((1.0 - x) * (1.0 + x))


def side_pairings(g: int, radius: float, handles: int) -> List[Tuple[complex, complex]]:
    """phi_1, ..., phi_{2*handles} of the symmetric 4g-gon of circumradius
    `radius`, each as its disk coefficients (alpha, beta), |alpha|^2 -
    |beta|^2 = 1, of w -> (alpha*w + beta)/(conj(beta)*w + conj(alpha)); all
    2g of them at handles = g.

    phi_{2i-1} carries the oriented edge (s_{4i-1}, s_{4i}) to
    (s_{4i-2}, s_{4i-3}); phi_{2i} carries (s_{4i-2}, s_{4i-1}) to
    (s_{4i+1}, s_{4i}).  Every edge of the polygon belongs to exactly one
    pairing, and the commutator product fixes s_1.

    With H(m_k) the half-turn about the midpoint of E_k = (s_k, s_{k+1}),
    at angle psi = -(2k-1)*pi/n and inradius rho, which reverses that edge:
    phi_{2i-1} = Rot(+4*pi/n) o H(m_{4i-1}), phi_{2i} = Rot(-4*pi/n) o
    H(m_{4i-2}) (Beardon, The Geometry of Discrete Groups, 7.11 and 7.17).
    Rot(theta) has (e^(i*theta/2), 0), the half-turn about tanh(rho/2) on
    the positive real axis has (i*cosh(rho), -i*sinh(rho)), and a composite
    has (a1*a2 + b1*conj(b2), a1*b2 + b1*conj(a2)), so H(m_k) =
    Rot(psi) o H o Rot(-psi) and Rot(turn) o H(m_k) has

        alpha = i*e^(i*turn/2)*cosh(rho),  beta = -i*sinh(rho)*e^(i*(turn/2 + psi)),

    b = conj(beta)/conj(alpha) = -tanh(rho)*e^(-i*psi).  The half angles turn/2
    and turn/2 + psi are whole multiples of pi/n, and sinh(rho) = x*cosh(rho)
    with x = tanh(rho) (`_inradius`); tests/test_hyperbolic.py checks the
    pairings against their vertices and against these formulas at 40 digits.
    """
    n = 4 * g
    x, cosh_rho = _inradius(g, radius)
    sinh_rho = x * cosh_rho

    def pairing(k: int, j: int) -> Tuple[complex, complex]:
        # Rot(turn) o H(m_k) with turn/2 = j*pi/n, so turn/2 + psi = (j - 2k + 1)*pi/n
        t, u = j * math.pi / n, (j - 2 * k + 1) * math.pi / n
        return (complex(-cosh_rho * math.sin(t), cosh_rho * math.cos(t)),
                complex(sinh_rho * math.sin(u), -sinh_rho * math.cos(u)))

    return [phi for i in range(1, handles + 1)
            for phi in (pairing(4 * i - 1, 2), pairing(4 * i - 2, -2))]


def pairing_residual_bound(g: int, radius: float) -> float:
    """Bound on image_distance(phi, p, q) for every pairing phi of `side_pairings`
    and each of its two vertex pairs (p, q) of `polygon_vertices`, at every
    handle of the 4g-gon of circumradius `radius`.

    For det-1 disk coefficients (alpha, beta), `image_distance` is
    2*asinh(N/D) with N = |alpha*p + beta - q*m|, m = conj(beta)*p +
    conj(alpha), and D = sqrt((1 - |p|^2)(1 - |q|^2)).  N vanishes on the
    exact data.  An error in p or q enters N times alpha - conj(beta)*q or m,
    both of modulus 1 there (phi keeps the circle |z| = r), and an error in
    (alpha, beta) times at most |p| + |q| <= 2; a common scale of (alpha,
    beta), such as a rescaling to det 1, scales N and so is second order.
    To first order in the unit roundoff eps, with libm within an ulp and
    C = cosh(rho) >= S = sinh(rho), rounding adds to N:
      - 20*eps from the two vertices, each within 10*eps of its place
        (tanh to eps; the angle, below 2*pi, to 1.2*eps of itself; cos, sin
        and the product to 1.2*eps);
      - 14.8*eps from the angles.  The half angles turn/2 and turn/2 + psi
        of `side_pairings`, below pi/2 and 2*pi, are within d_1 = 1.1*eps and
        d_2 = 7.4*eps, and the computed pair is exactly that of a half-turn
        between two rotations off by d_1 + d_2 (after) and d_1 - d_2
        (before): an angle error delta in either moves a point of the circle
        |z| = r by r*delta, so these add |d_1 + d_2| + |d_1 - d_2|;
      - 3*eps*(C + S) from sin, cos and their products with C and S, which
        leave each coordinate of alpha and beta within 1.5*eps of itself;
      - eps*S from S = x*C: the rounding of C itself is a common scale;
      - 6*eps*S from the inradius: x = tanh(R)*cos(pi/n) is within 3*eps*x,
        and exact C and S of that x are the pairing of inradius atanh(x),
        within 3*eps*x*C^2 of rho.  Moving the centre of H by delta moves
        the image of a vertex, which lies s/2 from the centre along the
        edge, by 2*asinh(sinh(delta)*cosh(s/2)) in distance, and so by
        (1 - r^2)*delta*cosh(s/2) < 2*delta/C in N, as cosh R = C*cosh(s/2)
        (Beardon, 7.11);
      - eps*(1.12*(C + S) + 5) from image_distance's own arithmetic: the
        products conj(beta)*p and alpha*p within sqrt(5)*eps/2 of S*r and
        C*r (Brent, Percival and Zimmermann, Math. Comp. 76, 2007), the
        sums m and alpha*p + beta, of moduli 1 and r, within eps/2 of them,
        and the division within 4*eps of phi(p), |phi(p)| = r < 1.
    No 2x2 product, square-root rescaling or translation enters.
    So N <= eps*(15.3*C + 39.8) <= eps*(16*C + 40).  The second-order terms
    are below a relative 3*eps*C^2 < 3*eps/sin(pi/n)^2 < 2e-7 up to
    MAX_GENUS, and 64*eps*(1 + C) covers them and the bound's own rounding.
    Every computed |z| is at most (1 + 3*eps)*r (the argument of _R_MAX),
    so D >= (1 - r - 3*eps)*(1 + r) > 0 with r the rounded tanh(R/2).  Near
    the top D is not close to 1 - r^2 and N/D is not small, so the bound
    keeps the distance formula instead of its first order 2*N/D.  No handle
    enters, and tests/test_hyperbolic.py checks the bound against every
    handle of the full build over the domain of `radius_for_area`.
    """
    eps = sys.float_info.epsilon
    _, cosh_rho = _inradius(g, radius)
    r = math.tanh(radius / 2.0)
    return 2.0 * math.asinh(64 * eps * (1.0 + cosh_rho) / ((1.0 - r - 3 * eps) * (1.0 + r)))


def relator_rotation(g: int, vertices: Sequence[complex], phi_1: Tuple[complex, complex],
                     phi_2: Tuple[complex, complex]) -> Tuple[float, float, float, float]:
    """(rho, rho_bound, trace, trace_bound) of the lifted relator
    prod_{i=1..g} [phi_{2i-1}, phi_{2i}] of the symmetric 4g-gon, read from
    the vertices s_1..s_5 (`polygon_vertices`) and the first handle's
    pairings (`side_pairings`) at the circumradius R = radius_for_area(g, A).

    For w(z) = (alpha*z + beta)/(conj(beta)*z + conj(alpha)) with |beta| <
    |alpha|, alpha*z + beta = z*conj(conj(beta)*z + conj(alpha)) on |z| = 1,
    so the displacement w~(t) - t of a lift extends continuously into the
    closed disk as Theta(z) = -arg(conj(beta)*z + conj(alpha))/pi plus an
    integer.  The chain rule gives Theta_{AB}(z) = Theta_A(Bz) + Theta_B(z),
    so Theta_{A^-1}(Az) = -Theta_A(z), and the rho of an elliptic lift is
    Theta at its fixed point (Beardon, The Geometry of Discrete Groups, 9.8;
    Ghys, Enseign. Math. 2001).  Handle i + 1 is handle i conjugated by
    R = Rot(-2*pi/g) (`side_pairings`), so the relator's lift is
    (C~ R~)^g R~^-g with C = [phi_1, phi_2], and X = C R fixes s_1 along
    s_1 ->R s_5 ->phi_2^-1 s_2 ->phi_1^-1 s_3 ->phi_2 s_4 ->phi_1 s_1.  Along
    that path each pairing's integer cancels against its inverse's, and R's
    constant Theta against R~^-g (g*R~(0) = g - 1 = m).  What is left is

        rho = -g*D/pi,  D = arg((1 + b_1 s_4)/(1 + b_1 s_3)) + arg((1 + b_2 s_3)/(1 + b_2 s_2)),

    with b = conj(beta)/conj(alpha) of phi_1 and phi_2; |b*z| < 1, so each
    quotient's arg is a difference of two args in (-pi/2, pi/2).  The lift
    with Theta = u at its fixed point has SL(2) trace 2*cos(pi*u), so the
    trace is 2*cos(g*D).  In exact arithmetic D = A/(2g).

    D^ errs from A/(2g) by at most dD = 256*eps*(|alpha| + 1), to first
    order in eps, with |alpha| = cosh(rho_in) of both pairings (rho_in the
    inradius).  On exact data |conj(beta)*z + conj(alpha)|^-2 = |phi'(z)| =
    (1 - |phi(z)|^2)/(1 - |z|^2) = 1 at the four vertices, so |1 + b*z| =
    1/|alpha|, and an error d in b*z moves its arg by at most |alpha|*d.  Per
    arg term:
      - 10*eps from the vertex (`pairing_residual_bound`), and 6*eps from
        dividing for b and multiplying by z;
      - the pairing's rounding, 15*eps*|alpha|.  b = -conj(phi^-1(0)) does
        not change under a rotation after phi or a real scale, such as the
        rounding of cosh(rho_in), and b = -tanh(rho_in)*e^(-i*psi)
        (`side_pairings`).  The rotation before the half-turn, whose angle
        is within 1.1*eps + 7.4*eps (`pairing_residual_bound`), turns b by
        8.5*eps; sin, cos and their products, each coordinate within 1.5*eps,
        move b by a relative 3*eps; sinh(rho_in) = x*cosh(rho_in) by 0.5*eps;
        and x = |b|, within 3*eps*x, by 3*eps.
    That is 31*eps*|alpha| per term and 124*eps*|alpha| for the four, with
    no 2x2 product, square-root rescaling or translation to count.
    Not amplified by |alpha|: the two quotients and their args, 2*(4 + pi)*eps;
    their sum, pi*eps; g*D and /pi, 1.5*eps*|D| <= 3*pi*eps; and the area:
    R is the exact radius of an area within 26*eps*(4g - 2)*pi of A
    (`radius_for_area`), which moves D by at most 52*pi*eps.  These come to
    190*eps.  The count eps*(124*|alpha| + 190) lies below dD, whose rest
    covers the second-order terms (a relative 124*eps*|alpha| < 1e-9 up to
    MAX_GENUS) and the bound's own rounding.
    So rho_bound = g*dD/pi bounds |rho + A/(2*pi)|, and trace_bound = 2*g*dD
    bounds |trace - 2*cos(A/2)|, the 66*eps left over covering the cosine.
    No power of X is formed, and no lift.
    """
    _, s2, s3, s4, _ = vertices
    (alpha_1, beta_1), (alpha_2, beta_2) = phi_1, phi_2
    b_1, b_2 = beta_1.conjugate() / alpha_1.conjugate(), beta_2.conjugate() / alpha_2.conjugate()
    d = (cmath.phase((1.0 + b_1 * s4) / (1.0 + b_1 * s3))
         + cmath.phase((1.0 + b_2 * s3) / (1.0 + b_2 * s2)))
    delta = 256 * sys.float_info.epsilon * (max(abs(alpha_1), abs(alpha_2)) + 1.0)
    return -g * d / math.pi, g * delta / math.pi, 2.0 * math.cos(g * d), 2.0 * g * delta
