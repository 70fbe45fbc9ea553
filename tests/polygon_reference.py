"""Reference geometry for the tests: the full symmetric 4g-gon with all 4g
vertices and all 2g side pairings, built from the same `hyperbolic` helpers
as `polygon` (so bit-identical to its first handle); the isometries of
PSL(2, R) as real SL(2) matrices (`Isometry2H`), with the side pairings
built again as products of rotations and translations
(`reference_pairings`) and the relator as the 4g-letter product of their
matrices; and the `polygon` report measured over every handle, the
O(g) oracle for `cli.cmd_polygon`.  Also the largest area `radius_for_area`
accepts, a CLI report's outputs as printed, and the area of a polygon as
the sum of the angle defects of a fan of triangles."""

import cmath
import contextlib
import functools
import io
import json
import math
import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from contactbundles import cli
from contactbundles import hyperbolic as hy


#: a side pairing of `hyperbolic.side_pairings`: its disk coefficients (alpha, beta)
Pairing = Tuple[complex, complex]


class Isometry2H:
    """An element of PSL(2, R): real matrix with det 1, up to global sign,
    acting on the disk through the Cayley transform."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        det = a * d - b * c
        if det <= 0:
            raise ValueError("matrix must have positive determinant")
        s = math.sqrt(det)
        self.a, self.b, self.c, self.d = a / s, b / s, c / s, d / s

    def __repr__(self):
        return f"Isometry2H({self.a:.12g}, {self.b:.12g}, {self.c:.12g}, {self.d:.12g})"

    @classmethod
    def identity(cls) -> "Isometry2H":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def rotation(cls, angle: float) -> "Isometry2H":
        """Rotation of the disk about its center by `angle`."""
        h = angle / 2.0
        return cls(math.cos(h), math.sin(h), -math.sin(h), math.cos(h))

    @classmethod
    def from_disk_coefficients(cls, alpha: complex, beta: complex) -> "Isometry2H":
        a = alpha.real + beta.real
        d = alpha.real - beta.real
        b = alpha.imag - beta.imag
        c = -alpha.imag - beta.imag
        return cls(a, b, c, d)

    def disk_coefficients(self) -> Tuple[complex, complex]:
        """(alpha, beta) of the disk action w -> (alpha*w + beta)/(conj(beta)*w + conj(alpha))."""
        alpha = complex((self.a + self.d) / 2.0, (self.b - self.c) / 2.0)
        beta = complex((self.a - self.d) / 2.0, -(self.b + self.c) / 2.0)
        return alpha, beta

    def compose(self, other: "Isometry2H") -> "Isometry2H":
        return Isometry2H(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    __matmul__ = compose

    def inverse(self) -> "Isometry2H":
        return Isometry2H(self.d, -self.b, -self.c, self.a)

    def trace(self) -> float:
        return self.a + self.d

    def apply_complex(self, w: complex) -> complex:
        alpha, beta = self.disk_coefficients()
        return (alpha * w + beta) / (beta.conjugate() * w + alpha.conjugate())


def from_origin(z: complex) -> Isometry2H:
    """The translation along the diameter through z that sends 0 to z."""
    return Isometry2H.from_disk_coefficients(1.0 + 0.0j, z)


@dataclass(frozen=True)
class SymmetricPolygon:
    """Regular 4g-gon centred at the origin, vertices numbered clockwise.

    Full symmetry forces the side-pairing length constraints
    dist(s_{4i-3}, s_{4i-2}) = dist(s_{4i-1}, s_{4i}) and
    dist(s_{4i-2}, s_{4i-1}) = dist(s_{4i}, s_{4i+1}), and the circumradius
    sweeps every area in (0, (4g-2)*pi).  The vertices are complex numbers.
    """

    genus: int
    circumradius: float
    vertices: Tuple[complex, ...]

    def vertex(self, k: int) -> complex:
        """1-indexed accessor for s_k, indices mod 4g."""
        return self.vertices[(k - 1) % len(self.vertices)]


def build_symmetric_polygon(g: int, radius: float) -> SymmetricPolygon:
    """All 4g vertices of `hyperbolic.polygon_vertices`."""
    return SymmetricPolygon(g, radius, tuple(hy.polygon_vertices(g, radius, 4 * g)))


def all_pairings(poly: SymmetricPolygon) -> List[Pairing]:
    """All 2g side pairings of `hyperbolic.side_pairings`, as its disk
    coefficients (alpha, beta)."""
    return hy.side_pairings(poly.genus, poly.circumradius, poly.genus)


def reference_pairings(poly: SymmetricPolygon) -> List[Isometry2H]:
    """All 2g pairings of `hyperbolic.side_pairings` as products of matrices:
    phi_{2i-1} = Rot(+4*pi/n) o H(m_{4i-1}) and phi_{2i} = Rot(-4*pi/n) o
    H(m_{4i-2}), with H(m_k) = Rot(psi) o H o Rot(-psi), psi = -(2k-1)*pi/n,
    and H the half-turn about the point at distance rho on the positive real
    axis, conjugated there from the origin by a translation; each product is
    rescaled to det 1."""
    g, n = poly.genus, 4 * poly.genus
    rho = math.atanh(math.tanh(poly.circumradius) * math.cos(math.pi / n))
    to_midpoint = from_origin(complex(math.tanh(rho / 2.0)))
    half_turn = to_midpoint @ Isometry2H.rotation(math.pi) @ to_midpoint.inverse()

    def pairing(k: int, turn: float) -> Isometry2H:
        psi = -(2 * k - 1) * math.pi / n
        return Isometry2H.rotation(turn + psi) @ half_turn @ Isometry2H.rotation(-psi)

    return [phi for i in range(1, g + 1)
            for phi in (pairing(4 * i - 1, 4 * math.pi / n), pairing(4 * i - 2, -4 * math.pi / n))]


def symmetric_pairings(g: int, area: float) -> Tuple[SymmetricPolygon, List[Pairing]]:
    """The symmetric 4g-gon of the given area and its 2g side pairings
    (`all_pairings`), on the domain of `radius_for_area`."""
    poly = build_symmetric_polygon(g, hy.radius_for_area(g, area))
    return poly, all_pairings(poly)


def as_isometry(pairing: Pairing) -> Isometry2H:
    """A pairing of `hyperbolic.side_pairings` as a matrix, to compare it
    with other matrices."""
    return Isometry2H.from_disk_coefficients(*pairing)


def commutator_product(pairings: Sequence[Isometry2H]) -> Isometry2H:
    """prod_{i=1..g} [phi_{2i-1}, phi_{2i}], composed left to right.

    A left fold of phi_1, phi_2, phi_1^-1, phi_2^-1, phi_3, ..., as
    `fold_reference.fold` folds the lifts: bit-identical to
    `fold(holonomy_relator(pairings)).iso`.
    For polygon side pairings this is the rotation about s_1 by the polygon's
    total interior angle, hence elliptic with
    |trace| = 2*|cos(((4g-2)*pi - area)/2)|.
    """
    if len(pairings) < 2 or len(pairings) % 2:
        raise ValueError("need an even number (>= 2) of isometries")
    return functools.reduce(Isometry2H.compose, [
        x for a, b in zip(pairings[::2], pairings[1::2]) for x in (a, b, a.inverse(), b.inverse())])


def polygon_area(poly: SymmetricPolygon) -> float:
    return hy.polygon_area(poly.genus, poly.circumradius)


def pairing_residuals(poly: SymmetricPolygon, pairings: List[Pairing]) -> List[float]:
    """The 4g residuals image_distance(phi, p, q), four per handle in the order
    of `cli.cmd_polygon`."""
    s = poly.vertex
    out = []
    for i in range(1, poly.genus + 1):
        po, pe = pairings[2 * i - 2], pairings[2 * i - 1]
        out += [
            hy.image_distance(po, s(4 * i - 1), s(4 * i - 2)),
            hy.image_distance(po, s(4 * i), s(4 * i - 3)),
            hy.image_distance(pe, s(4 * i - 2), s(4 * i + 1)),
            hy.image_distance(pe, s(4 * i - 1), s(4 * i)),
        ]
    return out


def polygon_outputs(g: int, area: float) -> dict:
    """The outputs of `polygon` measured on the full build, with the largest
    residual over every handle and the trace of the 4g-letter product of
    `reference_pairings`, which is within `fold_reference.trace_slack` of its
    lifted fold (no `commutator_trace_bound`: the full build derives none)."""
    poly, pairings = symmetric_pairings(g, area)
    return {
        "genus": g,
        "requested_area": area,
        "circumradius": poly.circumradius,
        "computed_area": polygon_area(poly),
        "side_length": hy.hdistance(poly.vertex(1), poly.vertex(2)),
        "pairing_residual_max": max(pairing_residuals(poly, pairings)),
        "commutator_trace": commutator_product(reference_pairings(poly)).trace(),
        "expected_abs_trace": 2.0 * abs(math.cos(((4 * g - 2) * math.pi - area) / 2.0)),
    }


def largest_accepted_area(g: int) -> float:
    """The largest float below the top (4g - 2)*pi that `radius_for_area`
    accepts, by bisection on the bit patterns of the positive floats, which
    are ordered as the floats are."""
    def bits(x: float) -> int:
        return struct.unpack("<q", struct.pack("<d", x))[0]

    def area(i: int) -> float:
        return struct.unpack("<d", struct.pack("<q", i))[0]

    s_max = (4 * g - 2) * math.pi
    lo, hi = bits(s_max / 2), bits(s_max)  # accepted, refused
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            hy.radius_for_area(g, area(mid))
            lo = mid
        except hy.AreaOutOfRange:
            hi = mid
    return area(lo)


def printed_outputs(*argv: str) -> dict:
    """The outputs of one CLI report as printed, rounded to 12 digits."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())["outputs"]


def mobius_to_origin(p: complex):
    s = math.sqrt(1.0 - abs(p) ** 2)
    return (1.0 / s, -p / s)


def apply_su(m, w: complex) -> complex:
    """The image of w under the isometry with disk coefficients m = (alpha, beta)."""
    a, b = m
    return (a * w + b) / (b.conjugate() * w + a.conjugate())


def angle_at(p: complex, q1: complex, q2: complex) -> float:
    """Hyperbolic angle at p between the geodesics to q1 and q2.

    Translating p to the origin turns both geodesics into straight rays, and
    the disk metric is conformal, so the angle is the Euclidean one there.
    """
    m = mobius_to_origin(p)
    w1 = apply_su(m, q1)
    w2 = apply_su(m, q2)
    d = abs(cmath.phase(w1) - cmath.phase(w2))
    return min(d, 2 * math.pi - d)


def fan_defect_area(poly: SymmetricPolygon) -> float:
    """Triangulated angle-defect oracle: fan from s_1, defect pi - (sum of angles)."""
    v = poly.vertices
    total = 0.0
    for k in range(1, len(v) - 1):
        a, b, c = v[0], v[k], v[k + 1]
        angles = angle_at(a, b, c) + angle_at(b, a, c) + angle_at(c, a, b)
        total += math.pi - angles
    return total
