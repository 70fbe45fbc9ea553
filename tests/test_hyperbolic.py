import cmath
import math
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactbundles import circle_dynamics as cd
from contactbundles import hyperbolic as hy
from fold_reference import (fold, fold_estimate, holonomy_relator, holonomy_translation_number,
                            proj_distance, relator_word, trace_slack)
from polygon_reference import (Isometry2H, all_pairings, apply_su, as_isometry,
                               build_symmetric_polygon, commutator_product, fan_defect_area,
                               from_origin, largest_accepted_area, pairing_residuals,
                               polygon_area, printed_outputs, reference_pairings,
                               symmetric_pairings)


class LengthMismatch(ValueError):
    """Oriented segments of different hyperbolic lengths cannot be glued."""


def isometry_from_segments(a: complex, b: complex,
                           a2: complex, b2: complex) -> Isometry2H:
    """Reference for `side_pairings`: the orientation-preserving isometry
    with a -> a2, b -> b2.

    Exists and is unique when the oriented segments have the same length;
    raises LengthMismatch (tolerance 1e-9) otherwise.
    """
    d1 = hy.hdistance(a, b)
    d2 = hy.hdistance(a2, b2)
    if abs(d1 - d2) > 1e-9:
        raise LengthMismatch(f"segment lengths differ: {d1} vs {d2}")
    ta = from_origin(a).inverse()
    ta2 = from_origin(a2).inverse()
    wb = ta.apply_complex(b)
    wb2 = ta2.apply_complex(b2)
    if abs(wb) < 1e-15 and abs(wb2) < 1e-15:
        phi = 0.0
    else:
        phi = cmath.phase(wb2) - cmath.phase(wb)
    return ta2.inverse() @ Isometry2H.rotation(phi) @ ta


def random_point(rng, rmax=0.95) -> complex:
    r = rmax * math.sqrt(rng.uniform(0, 1))
    t = rng.uniform(0, 2 * math.pi)
    return complex(r * math.cos(t), r * math.sin(t))


def random_isometry(rng) -> Isometry2H:
    # random product of a rotation and a translation along a random direction
    rot = Isometry2H.rotation(rng.uniform(0, 2 * math.pi))
    p = random_point(rng, 0.7)
    s = math.sqrt(1.0 - abs(p) ** 2)
    trans = Isometry2H.from_disk_coefficients(1.0 / s, p / s)
    return rot @ trans


class TestDistance:
    def test_coincident_points(self):
        p = complex(0.3, -0.2)
        assert hy.hdistance(p, p) == 0.0

    def test_center_to_radius_closed_form(self):
        for r in (0.1, 0.5, 0.9):
            d = hy.hdistance(complex(0, 0), complex(r, 0))
            assert d == pytest.approx(2 * math.atanh(r), abs=1e-14)

    def test_center_to_radius_integration_oracle(self):
        from scipy.integrate import quad
        for r in (0.2, 0.6, 0.8):
            val, err = quad(lambda t: 2.0 / (1.0 - t * t), 0.0, r)
            assert abs(hy.hdistance(complex(0, 0), complex(r, 0)) - val) <= 1e-10 + err

    def test_isometry_invariance(self):
        rng = random.Random(10)
        for _ in range(50):
            p, q = random_point(rng), random_point(rng)
            iso = random_isometry(rng)
            d0 = hy.hdistance(p, q)
            d1 = hy.hdistance(iso.apply_complex(p), iso.apply_complex(q))
            assert abs(d0 - d1) <= 1e-10

    def test_accurate_near_boundary(self):
        # rounding |z| costs eps/(1 - |z|^2) in any evaluation; the distance
        # must lose nothing beyond that
        mp = pytest.importorskip("mpmath")
        rng = random.Random(15)
        for gap in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            for _ in range(20):
                t, dt = rng.uniform(0, 2 * math.pi), 10 ** rng.uniform(-6, 0.5)
                pts = [complex(r * math.cos(a), r * math.sin(a))
                       for r, a in ((1 - gap * rng.uniform(0.5, 2), t),
                                    (1 - gap * rng.uniform(0.5, 2), t + dt))]
                with mp.workdps(40):
                    zp, zq = (mp.mpc(p.real, p.imag) for p in pts)
                    exact = float(2 * mp.asinh(
                        abs(zp - zq) / mp.sqrt((1 - abs(zp) ** 2) * (1 - abs(zq) ** 2))))
                one_minus = min(1 - abs(p) ** 2 for p in pts)
                err = abs(hy.hdistance(*pts) - exact)
                assert err <= 4 * sys.float_info.epsilon / one_minus

    def test_triangle_inequality(self):
        rng = random.Random(11)
        for _ in range(50):
            p, q, r = (random_point(rng) for _ in range(3))
            assert hy.hdistance(p, r) <= hy.hdistance(p, q) + hy.hdistance(q, r) + 1e-12


class TestPolygon:
    def test_square_all_sides_equal(self):
        poly = build_symmetric_polygon(1, 1.0)
        assert len(poly.vertices) == 4
        lengths = [hy.hdistance(poly.vertex(k), poly.vertex(k + 1)) for k in range(1, 5)]
        assert max(lengths) - min(lengths) <= 1e-12

    @pytest.mark.parametrize("g", [1, 2, 3, 5, 8, 10, 20, 40, 100, 300, 1000, 3000, 10 ** 4])
    def test_side_drift_within_derived_bound(self, g):
        # the rounding bound derived in `polygon_vertices`, over its
        # domain up to the largest accepted area (at most 0.084 of the bound,
        # at g = 20 there); 1 - 1e-12 lies above the float limit from g = 3000
        s_max, n = (4 * g - 2) * math.pi, 4 * g
        shares = (1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12)
        checked = 0
        for area in [share * s_max for share in shares] + [largest_accepted_area(g)]:
            try:
                radius = hy.radius_for_area(g, area)
            except hy.AreaOutOfRange:
                continue
            poly = build_symmetric_polygon(g, radius)
            sides = [hy.hdistance(poly.vertex(k), poly.vertex(k + 1)) for k in range(1, n + 1)]
            r = math.tanh(radius / 2.0)
            bound = 48 * sys.float_info.epsilon * (sides[0] + n + 1.0 / ((1.0 - r) * (1.0 + r)))
            assert max(sides) - min(sides) <= bound, (g, area)
            checked += 1
        assert checked == (8 if g >= 3000 else 9)

    @pytest.mark.parametrize("g", [1, 2, 3, 8, 20, 100, 1000, 10 ** 4])
    def test_pairing_residual_within_derived_bound(self, g):
        # `polygon` measures one handle and reports `pairing_residual_bound`:
        # every handle of the full build lies within it, up to the largest
        # accepted area (at most 0.058 of it in sinh(d/2), at g = 10^4)
        s_max = (4 * g - 2) * math.pi
        shares = (1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-6, 1 - 1e-9)
        for area in [share * s_max for share in shares] + [largest_accepted_area(g)]:
            poly, pairings = symmetric_pairings(g, area)
            bound = hy.pairing_residual_bound(g, poly.circumradius)
            assert max(pairing_residuals(poly, pairings)) <= bound, (g, area)

    def test_pairing_length_constraints(self):
        poly = build_symmetric_polygon(2, 2.0)
        assert len(poly.vertices) == 8
        d = hy.hdistance
        for i in range(1, 3):
            s = poly.vertex
            assert abs(d(s(4 * i - 3), s(4 * i - 2)) - d(s(4 * i - 1), s(4 * i))) <= 1e-10
            assert abs(d(s(4 * i - 2), s(4 * i - 1)) - d(s(4 * i), s(4 * i + 1))) <= 1e-10

    def test_small_radius_small_area(self):
        for g in (1, 2):
            assert polygon_area(build_symmetric_polygon(g, 1e-4)) <= 1e-6

    def test_area_below_ideal_bound(self):
        for radius in (0.5, 2.0, 6.0):
            area = polygon_area(build_symmetric_polygon(1, radius))
            assert 0.0 < area < 2 * math.pi


class TestGaussBonnet:
    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    def test_area_matches_fan_defect_oracle(self, g, radius):
        poly = build_symmetric_polygon(g, radius)
        assert abs(polygon_area(poly) - fan_defect_area(poly)) <= 1e-9

    def test_radius_for_area_round_trip(self):
        # the closed-form area of the radius, and the fan defects of the 4g built vertices
        for g, area in ((1, 1.0), (2, 4 * math.pi), (2, 12.0), (3, 25.0)):
            poly = build_symmetric_polygon(g, hy.radius_for_area(g, area))
            assert abs(polygon_area(poly) - area) <= 1e-9
            assert abs(fan_defect_area(poly) - area) <= 1e-9

    def test_radius_closed_form_oracle(self):
        # cosh R = cot(pi/n) * cot(beta/2), evaluated in 40-digit arithmetic
        mp = pytest.importorskip("mpmath")
        for g in (1, 2, 3, 10):
            n = 4 * g
            s_max = (4 * g - 2) * math.pi
            for share in (1e-6, 0.01, 0.3, 0.9, 1 - 1e-6):
                area = share * s_max
                with mp.workdps(40):
                    beta = ((n - 2) * mp.pi - mp.mpf(area)) / n
                    exact = float(mp.acosh(mp.cot(mp.pi / n) * mp.cot(beta / 2)))
                # the float top s_max is off by ~eps*s_max, which moves beta/2
                # by a relative eps*s_max/(s_max - area), and R with it
                tol = 1e-14 * exact + 2 * sys.float_info.epsilon * s_max / (s_max - area)
                assert abs(hy.radius_for_area(g, area) - exact) <= tol

    def test_small_area_small_radius(self):
        assert hy.radius_for_area(2, 1e-4) < 0.05

    def test_threshold_area_finite_radius(self):
        radius = hy.radius_for_area(2, 4 * math.pi)
        assert 0 < radius < 10

    def test_area_out_of_range(self):
        with pytest.raises(hy.AreaOutOfRange):
            hy.radius_for_area(2, (4 * 2 - 2) * math.pi)
        with pytest.raises(hy.AreaOutOfRange):
            hy.radius_for_area(1, -1.0)

    def test_genus_above_the_domain_is_refused_before_the_area(self):
        # the genus message holds also where the area is out of range
        g = hy.MAX_GENUS + 1
        for area in (math.pi, -1.0, 0.0, (4 * g - 2) * math.pi, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"genus must be <= {hy.MAX_GENUS}: ") as info:
                hy.radius_for_area(g, area)
            assert not isinstance(info.value, hy.AreaOutOfRange)

    def test_float_limit_of_the_top(self):
        # tanh(R/2) rounds to 1.0 at this area, inside (0, 38pi) as a real number
        with pytest.raises(hy.AreaOutOfRange, match="float limit"):
            hy.radius_for_area(10, (1 - 2.3e-16) * 38 * math.pi)

    @pytest.mark.parametrize("g", [*range(1, 21), 40, 100, 10 ** 3, 10 ** 4])
    def test_float_limit_of_the_top_is_the_smallest_refused_area(self, g):
        # every refusal names the same limit: the next float above the largest
        # accepted area, itself refused
        limit = math.nextafter(largest_accepted_area(g), math.inf)
        message = re.escape(f"at or above the float limit {limit!r} below the top")
        for area in (limit, math.nextafter((4 * g - 2) * math.pi, 0.0)):
            with pytest.raises(hy.AreaOutOfRange, match=message):
                hy.radius_for_area(g, area)

    def test_float_limit_of_the_bottom(self):
        # sin(area/(2n)) underflows here, and the circumradius with it
        for g, area in ((1, 5e-324), (10 ** 4, 1e-320)):
            with pytest.raises(hy.AreaOutOfRange, match="float limit"):
                hy.radius_for_area(g, area)

    @pytest.mark.parametrize("g", [1, 2, 3, 10])
    def test_first_floats_above_the_bottom(self, g):
        # above the limit 2n * (smallest normal float) the area holds as at the top
        s_max = (4 * g - 2) * math.pi
        limit = 8 * g * sys.float_info.min
        with pytest.raises(hy.AreaOutOfRange, match="float limit"):
            hy.radius_for_area(g, math.nextafter(limit, 0.0))
        for area in [limit * (1 + k / 64) for k in range(64)] + [limit * 10.0 ** k for k in range(1, 300, 7)]:
            poly = build_symmetric_polygon(g, hy.radius_for_area(g, area))
            assert abs(polygon_area(poly) - area) <= 16 * sys.float_info.epsilon * s_max

    @pytest.mark.parametrize("g", [1, 2, 3, 10, 40])
    def test_last_floats_below_the_top(self, g):
        # each of the 300 largest areas is refused or builds a polygon
        area = (4 * g - 2) * math.pi
        built = 0
        for _ in range(300):
            area = math.nextafter(area, 0.0)
            try:
                radius = hy.radius_for_area(g, area)
            except hy.AreaOutOfRange:
                assert built == 0  # refused areas lie above every accepted one
                continue
            all_pairings(build_symmetric_polygon(g, radius))
            built += 1
        assert built > 0


class TestIsometryFromSegments:
    def test_identity_case(self):
        a, b = complex(0.1, 0.2), complex(-0.3, 0.4)
        iso = isometry_from_segments(a, b, a, b)
        assert proj_distance(iso, Isometry2H.identity()) <= 1e-10

    def test_known_rotation(self):
        rng = random.Random(12)
        phi = 1.234
        rot = Isometry2H.rotation(phi)
        a, b = random_point(rng), random_point(rng)
        iso = isometry_from_segments(a, b, rot.apply_complex(a), rot.apply_complex(b))
        assert proj_distance(iso, rot) <= 1e-10

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            isometry_from_segments(complex(0, 0), complex(0.5, 0),
                                   complex(0, 0), complex(0.2, 0))


class TestSidePairings:
    def test_square_vertex_conditions(self):
        poly = build_symmetric_polygon(1, 1.3)
        p1, p2 = all_pairings(poly)
        s = poly.vertex
        assert hy.hdistance(apply_su(p1, s(3)), s(2)) <= 1e-9
        assert hy.hdistance(apply_su(p1, s(4)), s(1)) <= 1e-9
        assert hy.hdistance(apply_su(p2, s(2)), s(5)) <= 1e-9
        assert hy.hdistance(apply_su(p2, s(3)), s(4)) <= 1e-9

    def test_genus2_conditions(self):
        poly = build_symmetric_polygon(2, hy.radius_for_area(2, 5 * math.pi))
        pairings = all_pairings(poly)
        s = poly.vertex
        for i in range(1, 3):
            po, pe = pairings[2 * (i - 1)], pairings[2 * (i - 1) + 1]
            assert hy.hdistance(apply_su(po, s(4 * i - 1)), s(4 * i - 2)) <= 1e-9
            assert hy.hdistance(apply_su(po, s(4 * i)), s(4 * i - 3)) <= 1e-9
            assert hy.hdistance(apply_su(pe, s(4 * i - 2)), s(4 * i + 1)) <= 1e-9
            assert hy.hdistance(apply_su(pe, s(4 * i - 1)), s(4 * i)) <= 1e-9

    def test_degenerate_limit_becomes_center_rotation(self):
        # as the polygon shrinks the pairings converge to rotations about the
        # center: the center displacement is O(radius) and the trace excess
        # over the elliptic range is O(radius^2)
        center = complex(0.0, 0.0)
        for g in (1, 2):
            for radius in (1e-3, 1e-4):
                for p in all_pairings(build_symmetric_polygon(g, radius)):
                    assert hy.hdistance(apply_su(p, center), center) <= 5 * radius
                    assert abs(2.0 * p[0].real) <= 2.0 + 10 * radius ** 2  # the SL(2) trace

    @pytest.mark.parametrize("g", [1, 2, 3, 5])
    def test_half_turns_match_segment_reference(self, g):
        s_max = (4 * g - 2) * math.pi
        for share in (0.2, 0.5, 0.8):
            poly = build_symmetric_polygon(g, hy.radius_for_area(g, share * s_max))
            s = poly.vertex
            pairings = [as_isometry(p) for p in all_pairings(poly)]
            for i in range(1, g + 1):
                ref_odd = isometry_from_segments(s(4 * i - 1), s(4 * i), s(4 * i - 2), s(4 * i - 3))
                ref_even = isometry_from_segments(s(4 * i - 2), s(4 * i - 1), s(4 * i + 1), s(4 * i))
                assert proj_distance(pairings[2 * i - 2], ref_odd) <= 1e-9
                assert proj_distance(pairings[2 * i - 1], ref_even) <= 1e-9

    @pytest.mark.parametrize("g", [1, 2, 3, 8, 100, 10 ** 4])
    def test_closed_form_at_40_digits(self, g):
        """(alpha, beta) of every handle against the formulas of `side_pairings`
        at 40 digits from the same float R, with C = cosh(rho), S = sinh(rho).
        x = tanh(rho) is within 3*eps of itself (`pairing_residual_bound`),
        which moves C by a relative 3*eps*S^2 and S by 3*eps*C^2; C's own
        arithmetic adds 1.75*eps and S = x*C 0.5*eps more, sin, cos and their
        products 1.5*eps of each coordinate, and the angles turn/2 and
        turn/2 + psi 1.1*eps and 7.4*eps.  So alpha lies within (3*S^2 + 5)
        ulps of its 40-digit value and beta within (3*C^2 + 12), an ulp here
        being eps times |alpha| = C or |beta| = S.  And |alpha|^2 - |beta|^2 =
        1 within 7*eps*C^2:
        the shift of x leaves C^2 - S^2 = 1, and the roundings of C, S and the
        coordinates move it by eps*(3.5 + 3*C^2 + 4*S^2).  Each error stays
        below a third of its bound."""
        mp = pytest.importorskip("mpmath")
        eps, n, top = sys.float_info.epsilon, 4 * g, (4 * g - 2) * math.pi
        shares = (1e-6, 0.5) if g == 10 ** 4 else (1e-6, 0.1, 0.5, 0.9, 1 - 1e-6)
        with mp.workdps(40):
            # (cos, sin) of each half angle m*pi/n: j = +-2 for alpha, j - 2k + 1 for beta
            turn = {m: mp.cos_sin(m * mp.pi / n)
                    for i in range(1, g + 1) for m in (2, -2, 5 - 8 * i, 3 - 8 * i)}
            for area in [u * top for u in shares] + [largest_accepted_area(g)]:
                radius = hy.radius_for_area(g, area)
                pairings = hy.side_pairings(g, radius, g)
                x = mp.tanh(mp.mpf(radius)) * mp.cos(mp.pi / n)
                c = 1 / mp.sqrt((1 - x) * (1 + x))
                s = x * c
                alpha_tol, beta_tol = (3 * s * s + 5) * eps * c, (3 * c * c + 12) * eps * s
                det_tol = 7 * eps * c * c
                # alpha = i*C*e^(i*turn/2) depends on the parity of the pairing only
                squared = {}
                for j, (alpha, _) in ((2, pairings[0]), (-2, pairings[1])):
                    assert all(p[0] == alpha for p in pairings[(2 - j) // 4::2])
                    ar, ai = mp.mpf(alpha.real), mp.mpf(alpha.imag)
                    cos_t, sin_t = turn[j]
                    assert mp.hypot(ar + c * sin_t, ai - c * cos_t) <= alpha_tol, (g, area)
                    squared[j] = ar * ar + ai * ai
                for i in range(1, g + 1):
                    for (_, beta), k, j in ((pairings[2 * i - 2], 4 * i - 1, 2),
                                            (pairings[2 * i - 1], 4 * i - 2, -2)):
                        # beta = -i*S*e^(i*(turn/2 + psi))
                        br, bi = mp.mpf(beta.real), mp.mpf(beta.imag)
                        cos_u, sin_u = turn[j - 2 * k + 1]
                        off = (br - s * sin_u) ** 2 + (bi + s * cos_u) ** 2
                        assert off <= beta_tol ** 2, (g, area, k)
                        assert abs(squared[j] - br * br - bi * bi - 1) <= det_tol, (g, area, k)

    def test_pairings_preserve_distance(self):
        rng = random.Random(13)
        poly = build_symmetric_polygon(2, 1.7)
        for iso in all_pairings(poly):
            for _ in range(25):
                p, q = random_point(rng), random_point(rng)
                assert abs(hy.hdistance(apply_su(iso, p), apply_su(iso, q)) -
                           hy.hdistance(p, q)) <= 1e-9


class TestCommutatorProduct:
    def test_commuting_inputs(self):
        a = Isometry2H.rotation(0.8)
        b = Isometry2H.rotation(2.1)
        prod = commutator_product([a, b])
        assert abs(abs(prod.trace()) - 2.0) <= 1e-12

    def test_area_4pi_gives_identity(self):
        poly = build_symmetric_polygon(2, hy.radius_for_area(2, 4 * math.pi))
        prod = commutator_product(reference_pairings(poly))
        assert proj_distance(prod, Isometry2H.identity()) <= 1e-6

    def test_area_5pi_trace_zero(self):
        poly = build_symmetric_polygon(2, hy.radius_for_area(2, 5 * math.pi))
        prod = commutator_product(reference_pairings(poly))
        assert abs(prod.trace()) <= 1e-6

    @pytest.mark.parametrize("g,area", [(1, 1.0), (2, 2.0), (2, 10.0), (3, 20.0)])
    def test_elliptic_with_angle_sum_trace(self, g, area):
        poly = build_symmetric_polygon(g, hy.radius_for_area(g, area))
        prod = commutator_product(reference_pairings(poly))
        expected = 2 * abs(math.cos(((4 * g - 2) * math.pi - area) / 2))
        assert abs(abs(prod.trace()) - expected) <= 1e-6
        assert proj_distance(prod, prod) == 0.0

    def test_fixes_first_vertex(self):
        poly = build_symmetric_polygon(2, hy.radius_for_area(2, 7.0))
        prod = commutator_product(reference_pairings(poly))
        assert hy.hdistance(prod.apply_complex(poly.vertex(1)), poly.vertex(1)) <= 1e-9

    @pytest.mark.parametrize("g", range(1, 9))
    def test_same_fold_as_the_flattened_relator(self, g):
        """One association for both: the matrices are bit-identical."""
        for share in (0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.9999, 1 - 1e-6):
            poly = build_symmetric_polygon(g, hy.radius_for_area(g, share * (4 * g - 2) * math.pi))
            pairings = reference_pairings(poly)
            prod = commutator_product(pairings)
            flat = fold(holonomy_relator(pairings)).iso
            assert (prod.a, prod.b, prod.c, prod.d) == (flat.a, flat.b, flat.c, flat.d)


def first_handle_rotation(g: int, radius: float) -> tuple:
    """`relator_rotation` on the first handle, as both commands call it."""
    return hy.relator_rotation(g, hy.polygon_vertices(g, radius, 5),
                               *hy.side_pairings(g, radius, 1))


class TestRelatorRotation:
    """The relator's rho and trace from how the first handle's pairings turn
    at four vertices, against the 4g-letter fold over all 2g side pairings
    and against the area in 60-digit arithmetic."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 50), st.one_of(st.floats(1e-6, 1.0, exclude_max=True),
                                        st.integers(1, 14).map(lambda k: 1 - 10.0 ** -k)))
    @example(1000, 0.5)
    @example(100, 1 - 1e-6)
    @example(3, 0.2)
    def test_agrees_with_the_fold(self, g, share):
        area = share * (4 * g - 2) * math.pi
        try:
            radius = hy.radius_for_area(g, area)
        except hy.AreaOutOfRange:
            return
        rho, rho_bound, _, _ = first_handle_rotation(g, radius)
        ref = holonomy_translation_number(g, area, 10 ** 15)
        assert abs(rho - ref.value) <= rho_bound + ref.error_bound
        assert abs(rho + area / (2 * math.pi)) <= rho_bound

    @pytest.mark.parametrize("g", [1, 2, 3, 8, 20])
    def test_trace_of_the_fold(self, g):
        """2*cos(g*D): the fold's trace with its sign, within the two bounds."""
        for share in (0.001, 0.1, 0.5, 0.9, 0.99, 1 - 1e-6):
            poly = build_symmetric_polygon(g, hy.radius_for_area(g, share * (4 * g - 2) * math.pi))
            _, _, trace, trace_bound = first_handle_rotation(g, poly.circumradius)
            rel = holonomy_relator(reference_pairings(poly))
            folded = fold(rel)
            assert abs(trace - folded.iso.trace()) <= trace_bound + trace_slack(folded, rel)

    @pytest.mark.parametrize("g", [1, 2, 3, 8, 20, 100, 1000, 10 ** 4])
    def test_within_its_bounds_of_the_exact_relator(self, g):
        """Against Gauss-Bonnet at 60 digits from the same float R, which the
        relator of the exact construction meets (rho = -A(R)/2pi, trace
        2*cos(A(R)/2)): rho within rho_bound and the trace within
        trace_bound, at the shares 1e-6 to 1 - 1e-12, every whole turn for
        g <= 8 and the largest accepted area; `holonomy`'s |rho| within
        `error_bound` of A/2pi at N = 10^12; and the area of R within
        26*eps*(4g - 2)*pi of A (`radius_for_area`)."""
        mp = pytest.importorskip("mpmath")
        n, top = 4 * g, (4 * g - 2) * math.pi
        shares = [1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99] + [1 - 10.0 ** -k for k in range(3, 13)]
        if g <= 8:
            shares += [2 * k / (4 * g - 2) for k in range(1, 2 * g - 1)]
        checked = 0
        for area in [u * top for u in shares] + [largest_accepted_area(g)]:
            try:
                radius = hy.radius_for_area(g, area)
            except hy.AreaOutOfRange:
                continue
            rho, rho_bound, trace, trace_bound = first_handle_rotation(g, radius)
            with mp.workdps(60):
                exact_area = (n - 2) * mp.pi - 2 * n * mp.acot(
                    mp.cosh(mp.mpf(radius)) * mp.tan(mp.pi / n))
                exact_rho = float(-exact_area / (2 * mp.pi))
                exact_trace = float(2 * mp.cos(exact_area / 2))
                area_error = float(abs(exact_area - mp.mpf(area)))
            assert abs(rho - exact_rho) <= rho_bound, (g, area)
            assert abs(trace - exact_trace) <= trace_bound, (g, area)
            assert area_error <= 26 * sys.float_info.epsilon * top, (g, area)
            out = printed_outputs("holonomy", "--genus", str(g), "--area", repr(area),
                                  "--iters", str(10 ** 12))
            assert out["rho"] == float(f"{rho:.12g}")
            assert abs(out["abs_rho"] - area / (2 * math.pi)) <= out["error_bound"], (g, area)
            checked += 1
        assert checked == len(shares) + (g < 10 ** 4)  # 1 - 1e-12 is refused at g = 10^4

    @pytest.mark.parametrize("g", [1, 2, 3, 8, 100, 10 ** 4])
    def test_rho_keeps_its_sign_at_the_bottom(self, g):
        """At the smallest accepted area, 2n times the smallest normal float,
        and at the next float above it, D keeps its digits: rho is negative,
        never 0.0 or -0.0, and within rho_bound of -A/2pi."""
        bottom = 8 * g * sys.float_info.min
        for area in (bottom, math.nextafter(bottom, math.inf)):
            rho, rho_bound, _, _ = first_handle_rotation(g, hy.radius_for_area(g, area))
            assert rho < 0 and abs(rho + area / (2 * math.pi)) <= rho_bound, (g, area)

    def test_bounds_say_something_at_the_top_genus(self):
        """rho within 1e-5 of a turn and the trace within 2e-5 over the whole
        area range at g = 10^4, where the bound of the relator's power reached
        1.6 turns."""
        for area in [u * 39998 * math.pi for u in (1e-6, 0.5, 0.9, 1 - 1e-6)] + [
                largest_accepted_area(10 ** 4)]:
            radius = hy.radius_for_area(10 ** 4, area)
            _, rho_bound, _, trace_bound = first_handle_rotation(10 ** 4, radius)
            assert rho_bound <= 1e-5 and trace_bound <= 2e-5

    def test_pairings_of_the_next_handle_are_rotated(self):
        """phi_{2i+1} = R phi_{2i-1} R^-1 with R = Rot(-2 pi/g), which the relator's
        telescoping to (C R)^g R^-g rests on."""
        for g in (2, 5, 40):
            _, pairs = symmetric_pairings(g, 0.7 * (4 * g - 2) * math.pi)
            pairings = [as_isometry(p) for p in pairs]
            rot = Isometry2H.rotation(-2 * math.pi / g)
            for i in range(2 * g - 2):
                assert proj_distance(pairings[i + 2], rot @ pairings[i] @ rot.inverse()) <= 1e-9


class TestBoundaryLift:
    def test_identity_lift(self):
        f = cd.MoebiusBoundaryLift(Isometry2H.identity())
        for t in (-1.5, 0.0, 0.25, 2.0):
            assert abs(f.eval(t) - t) <= 1e-12

    def test_center_rotation_translation_number(self):
        """A rotation about the centre moves every point by its angle, so the
        orbit average is that angle."""
        theta = 0.37
        f = cd.MoebiusBoundaryLift(Isometry2H.rotation(2 * math.pi * theta))
        for t in (-1.5, 0.0, 0.25, 0.9, 2.0):
            assert abs(f.eval(t) - t - theta) <= 1e-12
        x, n = 0.0, 3000
        for _ in range(n):
            x = f.eval(x)
        assert abs(x / n - theta) <= 1 / n

    def test_hyperbolic_element_has_zero_rotation(self):
        """The canonical lift of a hyperbolic element fixes a boundary point, so
        no orbit gets a whole turn away from where it started."""
        iso = Isometry2H(2.0, 0.0, 0.0, 0.5)
        assert abs(iso.trace()) > 2
        f = cd.MoebiusBoundaryLift(iso)
        for t0 in (0.0, 0.3, 0.7):
            x = t0
            for _ in range(2000):
                x = f.eval(x)
            assert abs(x - t0) < 1


class TestHolonomy:
    def test_small_area_small_rho(self):
        est = holonomy_translation_number(2, 1e-3, 2000)
        assert abs(est.value) <= 1e-3 / (2 * math.pi) + est.error_bound

    @pytest.mark.parametrize("area_mult,target", [(1.0, 0.5), (4.0, 2.0)])
    def test_reference_areas(self, area_mult, target):
        est = holonomy_translation_number(2, area_mult * math.pi, 5000)
        assert abs(abs(est.value) - target) <= est.error_bound

    def test_area_sweep(self):
        g = 2
        for area in [math.pi / 2 * k for k in range(1, 12)]:
            est = holonomy_translation_number(g, area, 2000)
            assert abs(abs(est.value) - area / (2 * math.pi)) <= est.error_bound

    def test_out_of_range(self):
        with pytest.raises(hy.AreaOutOfRange):
            holonomy_translation_number(2, 6 * math.pi, 100)

    def test_genus_domain(self, monkeypatch):
        monkeypatch.setattr(hy, "MAX_GENUS", 2)
        holonomy_translation_number(2, math.pi, 100)
        with pytest.raises(ValueError, match="genus must be <= 2"):
            holonomy_translation_number(3, math.pi, 100)
        with pytest.raises(ValueError, match="genus must be >= 1"):
            symmetric_pairings(0, math.pi)

    def test_lift_independence_of_relator(self):
        poly = build_symmetric_polygon(2, hy.radius_for_area(2, 5.0))
        lifts = [cd.MoebiusBoundaryLift(p) for p in reference_pairings(poly)]
        rel = relator_word(lifts)
        bumped = list(lifts)
        bumped[2] = cd.MoebiusBoundaryLift(lifts[2].iso, lifts[2].winding + 1)
        rel2 = relator_word(bumped)
        rng = random.Random(14)
        for _ in range(50):
            t = rng.uniform(-2, 2)
            assert abs(rel.eval(t) - rel2.eval(t)) <= 1e-9


class TestIsometryValidation:
    def test_determinant_normalised(self):
        iso = Isometry2H(2.0, 0.0, 0.0, 2.0)
        assert abs(iso.a * iso.d - iso.b * iso.c - 1.0) <= 1e-12

    def test_repr_shows_the_normalised_matrix(self):
        assert repr(Isometry2H(2.0, 0.0, 0.0, 2.0)) == "Isometry2H(1, 0, 0, 1)"

    def test_genus_below_one_rejected(self):
        with pytest.raises(ValueError, match="genus must be >= 1"):
            hy.polygon_vertices(0, 1.0, 4)

    def test_negative_determinant_rejected(self):
        with pytest.raises(ValueError):
            Isometry2H(1.0, 0.0, 0.0, -1.0)

    def test_point_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            hy.hdistance(complex(0.8, 0.7), 0j)


class TestDiskDomain:
    """|z| < 1 is checked where a formula needs it: `hdistance` on its points,
    `polygon_vertices` on its radius; a computed image is never checked."""

    def test_boundary_point_and_huge_radius_rejected(self):
        with pytest.raises(ValueError, match="unit disk"):
            hy.hdistance(1 + 0j, 0j)
        with pytest.raises(ValueError, match="circumradius"):
            build_symmetric_polygon(2, 80.0)

    @pytest.mark.parametrize("g", range(1, 9))
    def test_image_distance_matches_the_rounded_image(self, g):
        # below the top the image of a vertex stays inside the disk, and the
        # distance from the rounded image agrees with the one read off p
        rng = random.Random(20 + g)
        s_max = (4 * g - 2) * math.pi
        shares = [rng.uniform(0.001, 0.999) for _ in range(6)] + list(TestTopOfAreaRange.SHARES)
        for share in shares:
            poly, pairings = symmetric_pairings(g, share * s_max)
            s = poly.vertex
            for i in range(1, g + 1):
                po, pe = pairings[2 * i - 2], pairings[2 * i - 1]
                for iso, a, b in ((po, 4 * i - 1, 4 * i - 2), (po, 4 * i, 4 * i - 3),
                                  (pe, 4 * i - 2, 4 * i + 1), (pe, 4 * i - 1, 4 * i)):
                    old = hy.hdistance(apply_su(iso, s(a)), s(b))
                    assert abs(hy.image_distance(iso, s(a), s(b)) - old) <= 1e-8 * old


class TestTopOfAreaRange:
    """Areas up to (1 - 1e-6) * (4g - 2) * pi, where the vertices approach the
    ideal boundary (1 - |z|^2 down to about 2e-8 at g = 10)."""

    SHARES = (0.05, 0.5, 0.9, 0.95, 0.99, 1 - 1e-3, 1 - 1e-4, 1 - 1e-5, 1 - 1e-6)

    @pytest.mark.parametrize("g", range(1, 11))
    def test_polygon_pairings_and_holonomy(self, g):
        s_max = (4 * g - 2) * math.pi
        for share in self.SHARES:
            area = share * s_max
            poly = build_symmetric_polygon(g, hy.radius_for_area(g, area))
            pairings = all_pairings(poly)
            s = poly.vertex
            for i in range(1, g + 1):
                po, pe = pairings[2 * i - 2], pairings[2 * i - 1]
                for iso, a, b in ((po, 4 * i - 1, 4 * i - 2), (po, 4 * i, 4 * i - 3),
                                  (pe, 4 * i - 2, 4 * i + 1), (pe, 4 * i - 1, 4 * i)):
                    assert hy.hdistance(apply_su(iso, s(a)), s(b)) <= 1e-7
            assert abs(polygon_area(poly) - area) <= 1e-9 * s_max
            reference = reference_pairings(poly)
            trace = commutator_product(reference).trace()
            assert abs(abs(trace) - 2 * abs(math.cos((s_max - area) / 2))) <= 1e-6
            est = fold_estimate(holonomy_relator(reference), 2000)
            assert abs(abs(est.value) - area / (2 * math.pi)) <= est.error_bound

    @pytest.mark.parametrize("g", [1, 2, 3, 8, 10, 20])
    def test_area_holds_to_the_top(self, g):
        # the half angle beta/2 = (top - area)/(2n) falls below sqrt(eps) at
        # the shares 1 - 10^-k, yet the area keeps it: the closed form and the
        # fan defects of the 4g built vertices both stay within 16 eps of the
        # top (the fan at most 5.3 eps, g = 20); g = 20 refuses 1 - 1e-14,
        # above its float limit
        s_max = (4 * g - 2) * math.pi
        shares = [1e-3, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9] + [1 - 10.0 ** -k for k in range(7, 15)]
        checked = 0
        for share in shares:
            area = share * s_max
            try:
                radius = hy.radius_for_area(g, area)
            except hy.AreaOutOfRange:
                continue
            poly = build_symmetric_polygon(g, radius)
            assert abs(polygon_area(poly) - area) <= 16 * sys.float_info.epsilon * s_max
            assert abs(fan_defect_area(poly) - area) <= 16 * sys.float_info.epsilon * s_max
            checked += 1
        assert checked == (14 if g == 20 else 15)

    #: README's share grid for `computed_area`: 16 log-spaced shares a decade
    #: from 1e-308 up to 10^(-1/16), then 1 - 10^(-k/16) up to 1 - 1e-14
    AREA_SHARES = ([10.0 ** (-k / 16) for k in range(16 * 308, 0, -1)]
                   + [1 - 10.0 ** (-k / 16) for k in range(1, 16 * 14 + 1)])

    @pytest.mark.parametrize("g", [*range(1, 21), 40, 100, 10 ** 3, 10 ** 4])
    def test_area_within_its_derived_relative_bound(self, g):
        # the bound of `polygon_area`'s docstring, at every accepted share of
        # AREA_SHARES, the largest accepted area and the bottom limit
        eps, s_max = sys.float_info.epsilon, (4 * g - 2) * math.pi
        areas = [share * s_max for share in self.AREA_SHARES]
        checked = 0
        for area in areas + [largest_accepted_area(g), 8 * g * sys.float_info.min]:
            try:
                radius = hy.radius_for_area(g, area)
            except hy.AreaOutOfRange:
                continue
            computed = hy.polygon_area(g, radius)
            bound = eps * (9 * area + (12 + radius) * min(area, s_max - area))
            assert 0.0 < computed and abs(computed - area) <= bound, (g, area)
            checked += 1
        assert checked > 4900

    def test_holonomy_translation_number_at_top(self):
        area = (1 - 1e-6) * 6 * math.pi
        est = holonomy_translation_number(2, area, 2000)
        assert abs(abs(est.value) - area / (2 * math.pi)) <= est.error_bound
