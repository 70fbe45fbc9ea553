"""Reference geometry for the tests: the full symmetric 4g-gon with all 4g
vertices and all 2g side pairings, built from the same `hyperbolic` helpers
as `polygon` (so bit-identical to its first handle), and the `polygon` report
measured over every handle, the O(g) oracle for `cli.cmd_polygon`."""

import math
from dataclasses import dataclass
from typing import List, Tuple

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


def polygon_area(poly: SymmetricPolygon) -> float:
    return hy.polygon_area(poly.genus, poly.vertex(1), poly.vertex(2))


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
    residual over every handle."""
    poly, pairings = symmetric_pairings(g, area)
    return {
        "genus": g,
        "requested_area": area,
        "circumradius": poly.circumradius,
        "computed_area": polygon_area(poly),
        "side_length": hy.hdistance(poly.vertex(1), poly.vertex(2)),
        "pairing_residual_max": max(pairing_residuals(poly, pairings)),
        "commutator_trace": hy.relator_matrix(g, pairings[0], pairings[1]).trace(),
        "expected_abs_trace": 2.0 * abs(math.cos(((4 * g - 2) * math.pi - area) / 2.0)),
    }
