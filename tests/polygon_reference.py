"""Reference geometry for the tests: the full symmetric 4g-gon with all 4g
vertices and all 2g side pairings, built from the same `hyperbolic` helpers
as `polygon` (so bit-identical to its first handle), the relator as the
4g-letter product of their matrices, and the `polygon` report measured over
every handle, the O(g) oracle for `cli.cmd_polygon`; also the largest area
`radius_for_area` accepts, a CLI report's outputs as printed, and the area
of a polygon as the sum of the angle defects of a fan of triangles."""

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


def all_pairings(poly: SymmetricPolygon) -> List[hy.Isometry2H]:
    """All 2g side pairings of `hyperbolic.side_pairings`."""
    return hy.side_pairings(poly.genus, poly.circumradius, poly.genus)


def symmetric_pairings(g: int, area: float) -> Tuple[SymmetricPolygon, List[hy.Isometry2H]]:
    """The symmetric 4g-gon of the given area and its 2g side pairings, on the
    domain of `radius_for_area`."""
    poly = build_symmetric_polygon(g, hy.radius_for_area(g, area))
    return poly, all_pairings(poly)


def commutator_product(pairings: Sequence[hy.Isometry2H]) -> hy.Isometry2H:
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
    return functools.reduce(hy.Isometry2H.compose, [
        x for a, b in zip(pairings[::2], pairings[1::2]) for x in (a, b, a.inverse(), b.inverse())])


def polygon_area(poly: SymmetricPolygon) -> float:
    return hy.polygon_area(poly.genus, poly.circumradius)


def pairing_residuals(poly: SymmetricPolygon, pairings: List[hy.Isometry2H]) -> List[float]:
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
    residual over every handle and the trace of the 4g-letter product, which
    is within `fold_reference.trace_slack` of its lifted fold (no
    `commutator_trace_bound`: the full build derives none)."""
    poly, pairings = symmetric_pairings(g, area)
    return {
        "genus": g,
        "requested_area": area,
        "circumradius": poly.circumradius,
        "computed_area": polygon_area(poly),
        "side_length": hy.hdistance(poly.vertex(1), poly.vertex(2)),
        "pairing_residual_max": max(pairing_residuals(poly, pairings)),
        "commutator_trace": commutator_product(pairings).trace(),
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
