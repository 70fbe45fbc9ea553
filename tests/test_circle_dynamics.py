import bisect
import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactbundles import circle_dynamics as cd
from contactbundles import hyperbolic as hy
from fold_reference import (disk_product, fold, fold_error_scale, fold_estimate, holonomy_relator,
                            holonomy_translation_number, moebius_extremes, moebius_rho,
                            trace_slack)
from pl_reference import KNOT_CYCLE_RELATOR, knot_cycle_average, random_pl
from polygon_reference import all_pairings, build_symmetric_polygon, symmetric_pairings


def pl_equal(f, g, samples):
    return all(f.eval(t) == g.eval(t) for t in samples)


class TestCompose:
    def test_identity_neutral(self):
        rng = random.Random(0)
        f = random_pl(rng)
        comp = cd.compose(cd.PiecewiseLinearMap.identity(), f)
        ts = [Fraction(i, 97) for i in range(97)]
        assert pl_equal(comp, f, ts)

    def test_translations_add_exactly(self):
        f = cd.compose(cd.PiecewiseLinearMap.translation(Fraction(2, 3)),
                       cd.PiecewiseLinearMap.translation(Fraction(1, 5)))
        expected = cd.PiecewiseLinearMap.translation(Fraction(2, 3) + Fraction(1, 5))
        ts = [Fraction(i, 41) for i in range(41)]
        assert pl_equal(f, expected, ts)

    def test_pl_flattening_matches_word_on_dense_grid(self):
        rng = random.Random(1)
        f, g = random_pl(rng), random_pl(rng)
        flat = cd.compose(f, g)
        assert isinstance(flat, cd.PiecewiseLinearMap)
        word = cd.WordMap(((f, 1), (g, 1)))
        for i in range(1000):
            t = Fraction(i, 1000)
            assert flat.eval(t) == word.eval(t)


class TestInvert:
    def test_translation(self):
        inv = cd.PiecewiseLinearMap.translation(Fraction(5, 7)).inverse()
        assert inv.eval(Fraction(0)) == Fraction(-5, 7)

    def test_pl_round_trip_exact(self):
        f = cd.PiecewiseLinearMap([(Fraction(0), Fraction(1, 4)),
                                   (Fraction(1, 2), Fraction(3, 5))])
        inv = f.inverse()
        for i in range(101):
            t = Fraction(i - 50, 33)
            assert inv.eval(f.eval(t)) == t
            assert f.eval(inv.eval(t)) == t

    def test_moebius_round_trip(self):
        iso = hy.Isometry2H(2.0, 0.3, 0.1, 0.515)
        f = cd.MoebiusBoundaryLift(iso, 3)
        inv = f.inverse()
        rng = random.Random(2)
        for _ in range(100):
            t = rng.uniform(-2, 2)
            assert abs(inv.eval(f.eval(t)) - t) <= 1e-12

    def test_moebius_inverse_negates_winding(self):
        # canonical part fixes 0, so the inverse winding is exactly negated
        f = cd.MoebiusBoundaryLift(hy.Isometry2H.identity(), 4)
        assert f.inverse().winding == -4


class TestDisplacement:
    def test_translation_and_identity(self):
        f = cd.PiecewiseLinearMap.translation(Fraction(3, 11))
        assert cd.sup_displacement(f) == Fraction(3, 11)
        assert cd.inf_displacement(f) == Fraction(3, 11)
        assert cd.sup_displacement(cd.PiecewiseLinearMap.identity()) == 0

    def test_subadditivity_exact_on_random_pairs(self):
        rng = random.Random(3)
        for _ in range(60):
            f, g = random_pl(rng), random_pl(rng)
            hf, hg = cd.sup_displacement(f), cd.sup_displacement(g)
            hfg = cd.sup_displacement(cd.compose(f, g))
            assert hfg <= hf + hg <= hfg + 1

    def test_inf_is_negated_sup_of_inverse(self):
        rng = random.Random(4)
        for _ in range(40):
            f = random_pl(rng)
            assert cd.inf_displacement(f) == -cd.sup_displacement(f.inverse())
            assert cd.inf_displacement(f) <= cd.sup_displacement(f)


class TestTranslationNumber:
    def test_exact_translation(self):
        est = cd.translation_number(cd.PiecewiseLinearMap.translation(Fraction(3, 7)), 100)
        assert est.value == Fraction(3, 7)
        assert est.error_bound == pytest.approx(0.01)

    def test_conjugation_invariance(self):
        rng = random.Random(5)
        for _ in range(5):
            f, g = random_pl(rng), random_pl(rng)
            conj = cd.compose(cd.compose(g, f), g.inverse())
            e1 = cd.translation_number(f, 120)
            e2 = cd.translation_number(conj, 120)
            assert abs(e1.value - e2.value) <= e1.error_bound + e2.error_bound

    def test_full_turn_shifts_by_one(self):
        rng = random.Random(6)
        f = random_pl(rng)
        shifted = cd.compose(f, cd.PiecewiseLinearMap.translation(1))
        e1 = cd.translation_number(f, 150)
        e2 = cd.translation_number(shifted, 150)
        assert abs((e2.value - e1.value) - 1) <= e1.error_bound + e2.error_bound

    def test_piecewise_linear_path_is_exact(self):
        rng = random.Random(21)
        f = random_pl(rng)
        est = cd.translation_number(f, 64)
        x = Fraction(0)
        for _ in range(64):
            x = f.eval(x)
        assert est.value == Fraction(x, 64) and isinstance(est.value, Fraction)
        assert est.error_bound == 1 / 64


class TestRelator:
    def test_all_identity(self):
        rel = cd.evaluate_relator([cd.PiecewiseLinearMap.identity()] * 4)
        for i in range(50):
            t = Fraction(i, 50)
            assert rel.eval(t) == t

    def test_commuting_translations(self):
        rel = cd.evaluate_relator([cd.PiecewiseLinearMap.translation(Fraction(1, 3)),
                                   cd.PiecewiseLinearMap.translation(Fraction(2, 7))])
        for i in range(50):
            t = Fraction(i, 50)
            assert rel.eval(t) == t

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            cd.evaluate_relator([cd.PiecewiseLinearMap.identity()] * 3)

    def test_polygon_relator_translation_number(self):
        est = holonomy_translation_number(2, 4 * math.pi, 3000)
        assert abs(abs(est.value) - 2.0) <= est.error_bound


class TestWoodBound:
    @pytest.mark.parametrize("knots, witness", [
        ([(Fraction(1, 4), Fraction(3, 8)), (Fraction(3, 4), Fraction(5, 8))],
         (0.25, 0.125)),
        ([(Fraction(1, 4), Fraction(1, 8)), (Fraction(1, 2), Fraction(1, 2)),
          (Fraction(3, 4), Fraction(7, 8))], (0.25, -0.125)),
    ], ids=["max-first", "min-first"])
    def test_tied_extremes_name_the_earlier_knot(self, knots, witness):
        check = cd.displacement_within(cd.PiecewiseLinearMap(knots), Fraction(1, 16))
        assert not check.ok
        assert (check.witness_t, check.witness_displacement) == witness

    def test_synthetic_violation_with_witness(self):
        g = 2
        synthetic = cd.PiecewiseLinearMap.translation(2 * g + 1)
        check = cd.displacement_within(synthetic, Fraction(2 * g))
        assert not check.ok
        assert check.witness_displacement == 2 * g + 1


class TestEulerFromSections:
    def test_equal_lifts(self):
        f = cd.PiecewiseLinearMap.translation(Fraction(1, 6))
        assert cd.euler_from_sections(f, f) == 0

    def test_nonconstant_difference(self):
        f = cd.PiecewiseLinearMap([(Fraction(0), Fraction(0)),
                                   (Fraction(1, 2), Fraction(2, 3))])
        with pytest.raises(cd.NonConstantDifference):
            cd.euler_from_sections(f, cd.PiecewiseLinearMap.identity())

    def test_noninteger_difference(self):
        with pytest.raises(cd.NonIntegerDifference):
            cd.euler_from_sections(cd.PiecewiseLinearMap.translation(Fraction(1, 2)),
                                   cd.PiecewiseLinearMap.identity())

    @pytest.mark.parametrize("knots", [
        [(0, 0), (Fraction(1, 1024), Fraction(3, 2048)), (Fraction(2, 1024), Fraction(2, 1024))],
        [(0, 0), (Fraction(1, 512), Fraction(1, 512) + Fraction(1, 10 ** 6)),
         (Fraction(1, 256), Fraction(1, 256))],
    ], ids=["bump-1/2048", "bump-1e-6"])
    def test_a_bump_between_grid_points_is_not_constant(self, knots):
        with pytest.raises(cd.NonConstantDifference):
            cd.euler_from_sections(cd.PiecewiseLinearMap(knots), cd.PiecewiseLinearMap.identity())


#: each function that takes piecewise-linear data, called on one map f
PL_ONLY = {
    "translation_number": lambda f: cd.translation_number(f, 100),
    "sup_displacement": cd.sup_displacement,
    "inf_displacement": cd.inf_displacement,
    "displacement_within": lambda f: cd.displacement_within(f, 2),
    "wood_bound_check": lambda f: cd.wood_bound_check([f, f]),
    "euler_from_sections": lambda f: cd.euler_from_sections(f, f),
}


class TestPiecewiseLinearOnly:
    """A Moebius lift, a word of them, or a word mixing them with PL letters
    has no exact orbit or breakpoints: every PL decision refuses it."""

    @pytest.mark.parametrize("make", [
        lambda: cd.MoebiusBoundaryLift(hy.Isometry2H.rotation(0.9)),
        lambda: polygon_relator(2, 0.5)[0],
        lambda: cd.compose(random_pl(random.Random(41)),
                           cd.MoebiusBoundaryLift(hy.Isometry2H.rotation(0.9))),
    ], ids=["lift", "relator", "mixed"])
    @pytest.mark.parametrize("call", PL_ONLY.values(), ids=PL_ONLY.keys())
    def test_moebius_data_is_refused(self, call, make):
        with pytest.raises(ValueError, match="piecewise-linear"):
            call(make())


class TestRepresentationInvariants:
    def test_equivariance(self):
        rng = random.Random(7)
        f = random_pl(rng)
        for _ in range(100):
            t = Fraction(rng.randrange(-500, 500), 167)
            assert f.eval(t + 1) == f.eval(t) + 1
        iso = hy.Isometry2H(1.5, 0.2, 0.3, 0.7066666666666667)
        m = cd.MoebiusBoundaryLift(iso)
        for _ in range(100):
            t = rng.uniform(-3, 3)
            assert abs(m.eval(t + 1) - m.eval(t) - 1) <= 1e-12

    def test_monotonicity(self):
        rng = random.Random(8)
        f = random_pl(rng)
        iso = hy.Isometry2H(2.0, 0.3, 0.1, 0.515)
        m = cd.MoebiusBoundaryLift(iso)
        for _ in range(200):
            t = rng.uniform(0, 1)
            d = rng.uniform(1e-6, 0.5)
            assert f.eval(Fraction(t).limit_denominator(10 ** 6)) is not None
            assert m.eval(t) < m.eval(t + d)

    def test_pl_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            cd.PiecewiseLinearMap([(Fraction(0), Fraction(0)),
                                   (Fraction(1, 2), Fraction(-1, 4))])
        with pytest.raises(ValueError):
            cd.PiecewiseLinearMap([(Fraction(0), Fraction(0)),
                                   (Fraction(1, 2), Fraction(3, 2))])

    @pytest.mark.parametrize("build, message", [
        (lambda: cd.PiecewiseLinearMap([]), "at least one breakpoint"),
        (lambda: cd.PiecewiseLinearMap([(1, 1)]), r"must lie in \[0, 1\)"),
        (lambda: cd.PiecewiseLinearMap([(0, 0), (0, Fraction(1, 2))]), "duplicate"),
        (lambda: cd.WordMap([(cd.PiecewiseLinearMap.translation(0), 2)]), "exponents"),
        (lambda: cd.translation_number(cd.PiecewiseLinearMap.translation(0), 0),
         "iterations must be >= 1"),
    ], ids=["no-breakpoint", "outside-unit-interval", "duplicate", "exponent-2",
            "zero-iterations"])
    def test_refuses_malformed_input(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


def track_lift(circle_map, lift_at_0):
    """Continue a lift along [0, 1] by unwrapping the image argument: the
    winding oracle of the closed-form Moebius lift.

    `circle_map(z)` maps the unit circle to itself.  The subdivision starts at
    1024 samples and doubles until successive principal arguments differ by
    less than 1/4 of a turn; past 2**16 samples it raises ArithmeticError.
    Returns the list of lift values at the subdivision points, starting from
    `lift_at_0`.
    """
    n = 1024
    while True:
        vals = [lift_at_0]
        for k in range(1, n + 1):
            z = cmath.exp(2j * math.pi * (k / n))
            p = (cmath.phase(circle_map(z)) / (2 * math.pi)) % 1.0
            step = (p - vals[-1]) % 1.0
            if step > 0.5:
                step -= 1.0
            if abs(step) >= 0.25:
                break
            vals.append(vals[-1] + step)
        else:
            return vals
        if n >= 1 << 16:
            raise ArithmeticError("argument tracking did not stabilise")
        n *= 2


class TestTrackLift:
    def test_tracking_matches_pointwise_eval(self):
        poly = build_symmetric_polygon(2, hy.radius_for_area(2, 5.0))
        lifts = [cd.MoebiusBoundaryLift(p) for p in all_pairings(poly)]
        rel = cd.evaluate_relator(lifts)

        def circle_map(z):
            w = z
            for m in rel._chain:
                a, b = m._alpha, m._beta
                w = (a * w + b) / (b.conjugate() * w + a.conjugate())
            return w

        vals = track_lift(circle_map, rel.eval(0.0))
        n = len(vals) - 1
        assert abs(vals[-1] - vals[0] - 1.0) <= 1e-9  # degree one
        for k in range(0, n + 1, n // 64):
            assert abs(vals[k] - rel.eval(k / n)) <= 1e-9

    def test_flatten_agrees_with_tracking_winding(self):
        poly = build_symmetric_polygon(2, hy.radius_for_area(2, 5.0))
        lifts = [cd.MoebiusBoundaryLift(p) for p in all_pairings(poly)]
        rel = cd.evaluate_relator(lifts)
        flat = fold(rel)
        assert isinstance(flat, cd.MoebiusBoundaryLift)

        def circle_map(z):
            w = z
            for m in rel._chain:
                a, b = m._alpha, m._beta
                w = (a * w + b) / (b.conjugate() * w + a.conjugate())
            return w

        vals = track_lift(circle_map, rel.eval(0.0))
        canon0 = cd.MoebiusBoundaryLift(flat.iso, 0).eval(0.0)
        assert flat.winding == round(vals[0] - canon0)


def polygon_relator(g, share):
    """The lifted holonomy relator of the symmetric 4g-gon and its area."""
    area = share * (4 * g - 2) * math.pi
    poly = build_symmetric_polygon(g, hy.radius_for_area(g, area))
    return cd.evaluate_relator([cd.MoebiusBoundaryLift(p) for p in all_pairings(poly)]), area


SHARES_LOW = (0.001, 0.01, 0.1, 0.5, 0.9)
SHARES_TOP = (0.99, 0.9999, 1 - 1e-6)
SHARES_AT_TOP = tuple(1 - 10.0 ** -k for k in range(8, 14))
POWERS = (1, 2, 3, 1000, 10 ** 4, 10 ** 5)


def rotation_about(v, angle, winding):
    """Lift of the rotation by `angle` about the disk point v."""
    s = math.sqrt((1 - abs(v)) * (1 + abs(v)))
    h, h_inv = (1 / s, -v / s), (1 / s, v / s)
    spin = (complex(math.cos(angle / 2), math.sin(angle / 2)), 0j)
    alpha, beta = disk_product(h_inv, disk_product(spin, h))
    return cd.MoebiusBoundaryLift(hy.Isometry2H.from_disk_coefficients(alpha, beta), winding)


class TestMoebiusSeam:
    """The canonical lift near the ends of [0, 1), where the image lies within
    rounding of f(0) on one side or the other."""

    @staticmethod
    def half_turns(count):
        rng = random.Random(23)
        for _ in range(count):
            v = cmath.rect(math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
            yield rotation_about(v, math.pi, rng.randint(-3, 3))

    def test_half_turn_orbits_advance_by_one_integer(self):
        """f o f is a translation by an odd integer for a rotation by pi."""
        for f in self.half_turns(400):
            orbit = [0.0]
            for _ in range(6):
                orbit.append(f.eval(orbit[-1]))
            steps = [orbit[k + 2] - orbit[k] for k in range(5)]
            shifts = {round(d) for d in steps}
            assert len(shifts) == 1 and 0 not in shifts, orbit
            assert max(abs(d - round(d)) for d in steps) <= 1e-6, orbit

    def test_eval_monotone_and_within_one_period(self):
        eps = 2.0 ** -52
        grid = sorted({k / 512 for k in range(512)}
                      | {1 - k * eps / 2 for k in range(1, 40)}
                      | {k * 2.0 ** -60 for k in range(40)}
                      | {1 - 2.0 ** -j for j in range(1, 53)}
                      | {2.0 ** -j for j in range(1, 200)})
        lifts = list(self.half_turns(100))
        for g, share in ((2, 0.5), (2, 1 - 1e-6), (3, 0.99)):
            poly = build_symmetric_polygon(g, hy.radius_for_area(g, share * (4 * g - 2) * math.pi))
            lifts += [cd.MoebiusBoundaryLift(p) for p in all_pairings(poly)]
        for f in lifts:
            values = [f.eval(t) for t in grid]
            assert all(a <= b for a, b in zip(values, values[1:]))
            canonical = cd.MoebiusBoundaryLift(f.iso)
            c0 = canonical.eval(0.0)
            assert all(c0 <= canonical.eval(t) < c0 + 1 for t in grid)
            # just below 0, t - floor(t) rounds to 1
            assert abs(f.eval(-1e-20) - f.eval(0.0)) < 1e-9


class TestMoebiusRho:
    """rho of a Moebius lift and of the fold of a relator in closed form
    (`fold_reference`, the oracle for `hyperbolic.relator_rotation`)."""

    @pytest.mark.parametrize("g", range(1, 11))
    def test_closed_form_matches_iteration(self, g):
        """|rho - f^N(0)/N| < 1/N; the longest orbits only for some genera."""
        powers = POWERS if g in (1, 2, 5, 10) else POWERS[:-1]
        for share in SHARES_LOW + SHARES_TOP:
            rel, _ = polygon_relator(g, share)
            flat = fold(rel)
            x, done = 0.0, 0
            for n in powers:
                for _ in range(n - done):
                    x = flat.eval(x)
                done = n
                assert abs(moebius_rho(flat) - x / n) <= 2.0 / n

    @pytest.mark.parametrize("g", range(1, 11))
    def test_error_bound_covers_area_over_two_pi(self, g):
        for share in SHARES_LOW + SHARES_TOP + SHARES_AT_TOP:
            rel, area = polygon_relator(g, share)
            for n in POWERS + (2 ** 30, 10 ** 12):
                est = fold_estimate(rel, n)
                assert abs(abs(est.value) - area / (2 * math.pi)) <= est.error_bound
                if share <= 0.9:
                    assert est.error_bound - 1.0 / n <= 1e-7

    def test_rotations_about_random_points(self):
        """rho = m + angle/2pi, with m the common floor of f(t) - t; the bound
        leaves room for the rounding of near-identity rotations near the
        boundary, whose angle depends on the trace through a square root."""
        rng = random.Random(17)
        for _ in range(500):
            radius = rng.choice([rng.random(), 1 - 10 ** rng.uniform(-6, -1)])
            v = cmath.rect(radius, rng.uniform(-math.pi, math.pi))
            angle = rng.choice([rng.uniform(0, 2 * math.pi), 1e-6, math.pi, 2 * math.pi - 1e-6])
            f = rotation_about(v, angle, rng.randint(-3, 3))
            floors = {math.floor(f.eval(t) - t) for t in (0.1, 0.3, 0.55, 0.8)}
            assert len(floors) == 1
            value = moebius_rho(f)
            assert abs(value - floors.pop() - angle / (2 * math.pi)) <= 1e-4

    @pytest.mark.parametrize("g,share", [(1, 0.5), (2, 2 / 3), (3, 0.99), (5, 1 - 1e-6)])
    def test_rho_against_high_precision_orbit(self, g, share):
        """|F^N(0) - N*rho| < 1 (Ghys), with F^N(0) of the same letters in mpmath."""
        mpmath = pytest.importorskip("mpmath")

        def lift(m):
            alpha, beta = mpmath.mpc(m._alpha), mpmath.mpc(m._beta)

            def principal(tau):
                z = mpmath.expjpi(2 * tau)
                w = (alpha * z + beta) / (mpmath.conj(beta) * z + mpmath.conj(alpha))
                return mpmath.fmod(mpmath.arg(w) / (2 * mpmath.pi) + 1, 1)

            c0 = principal(0)

            def evaluate(t):
                n = mpmath.floor(t)
                return c0 + mpmath.fmod(principal(t - n) - c0 + 1, 1) + m.winding + n
            return evaluate

        rel, _ = polygon_relator(g, share)
        n = 300
        with mpmath.workdps(40):
            chain = [lift(m) for m in rel._chain]
            x = mpmath.mpf(0)
            for _ in range(n):
                for f in chain:
                    x = f(x)
        est = fold_estimate(rel, n)
        assert abs(est.value * n - float(x)) < 1 + n * (est.error_bound - 1 / n)

    def test_commuting_rotations_relator_is_zero(self):
        a = cd.MoebiusBoundaryLift(hy.Isometry2H.rotation(1.1))
        b = cd.MoebiusBoundaryLift(hy.Isometry2H.rotation(-0.4))
        rel = cd.evaluate_relator([a, b])
        est = fold_estimate(rel, 500)
        assert abs(est.value) <= est.error_bound

    def test_center_rotation_rho(self):
        theta = 0.2137
        f = cd.MoebiusBoundaryLift(hy.Isometry2H.rotation(2 * math.pi * theta))
        est = fold_estimate(cd.WordMap([(f, 1)]), 4000)
        assert abs(est.value - theta) <= est.error_bound

    @pytest.mark.parametrize("g,share", [(1, 0.5), (3, 0.99), (8, 1 - 1e-4)])
    def test_nested_fold_keeps_rho(self, g, share):
        """a o F o a^-1 with F a folded relator: the fold takes F's winding in
        as it takes any letter's, so its rho is that of the same word spelt in
        plain letters, within the plain word's bound."""
        rel, area = polygon_relator(g, share)
        a = rel.letters()[1][0]
        nested = cd.WordMap([(a, 1), (fold(rel), 1), (a, -1)])
        plain = cd.WordMap([(a, 1), (rel, 1), (a, -1)])
        assert len(nested.letters()) == 3 and len(plain.letters()) == 4 * g + 2
        est = fold_estimate(plain, 10 ** 12)
        assert abs(moebius_rho(fold(nested)) - est.value) <= est.error_bound
        assert abs(abs(est.value) - area / (2 * math.pi)) <= est.error_bound

    @pytest.mark.parametrize("g,share", [(1, 0.9999), (2, 0.99), (8, 1 - 1e-6)])
    def test_fold_bound_counts_the_last_rescaling(self, g, share):
        """Rescaling the product to det 1 moves the trace by
        -trace/2 * tr(M^-1 F); near the top that outweighs the rest of S."""
        rel, _ = polygon_relator(g, share)
        assert fold_error_scale(rel) > 2 * fold_error_scale(rel, rescaling=False)

    def test_fold_bound_at_top_genus_is_pinned(self):
        """The 4g-letter fold at g = 10^4 gives this estimate and bound, bit for bit."""
        rel, _ = polygon_relator(10 ** 4, 0.5)
        est = fold_estimate(rel, 10 ** 12)
        assert (est.value, est.error_bound) == (-9999.500004109274, 1.5000041092747671)

    @pytest.mark.parametrize("g", range(1, 9))
    def test_fold_trace_within_its_slack_of_the_exact_relator(self, g):
        """The fold's trace against 2*cos(A(R)/2) at 60 digits, the trace of the
        exact construction's relator for the same float R, within `trace_slack`."""
        mp = pytest.importorskip("mpmath")
        n = 4 * g
        for share in SHARES_LOW + SHARES_TOP:
            radius = hy.radius_for_area(g, share * (4 * g - 2) * math.pi)
            rel = cd.evaluate_relator([cd.MoebiusBoundaryLift(p) for p in
                                       all_pairings(build_symmetric_polygon(g, radius))])
            folded = fold(rel)
            with mp.workdps(60):
                exact_area = (n - 2) * mp.pi - 2 * n * mp.acot(
                    mp.cosh(mp.mpf(radius)) * mp.tan(mp.pi / n))
                exact_trace = float(2 * mp.cos(exact_area / 2))
            assert abs(folded.iso.trace() - exact_trace) <= trace_slack(folded, rel), (g, share)

    @pytest.mark.parametrize("winding", [0, 3, -2])
    def test_hyperbolic_parabolic_and_identity_lifts_have_integer_rho(self, winding):
        for iso in (hy.Isometry2H(2.0, 0.0, 0.0, 0.5), hy.Isometry2H(1.0, 1.0, 0.0, 1.0),
                    hy.Isometry2H(-1.0, 1.0, 0.0, -1.0), hy.Isometry2H.identity()):
            f = cd.MoebiusBoundaryLift(iso, winding)
            rho = moebius_rho(f)
            assert rho == winding
            x = 0.0
            for _ in range(1000):
                x = f.eval(x)
            assert abs(rho - x / 1000) <= 1 / 1000


def seeded_moebius_lifts(family, seed=31):
    """Moebius lifts of one family, winding -3..3, three lifts a winding."""
    rng = random.Random(seed)
    for winding in range(-3, 4):
        for k in range(3):
            if family == "rotation":
                v = cmath.rect(math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
                yield rotation_about(v, rng.uniform(0, 2 * math.pi), winding)
            elif family == "hyperbolic":
                s = 1e4 if k == 0 else 10 ** rng.uniform(0, 4)
                iso = (hy.Isometry2H.rotation(rng.uniform(0, 2 * math.pi))
                       @ hy.Isometry2H(s, 0.0, 0.0, 1 / s)
                       @ hy.Isometry2H.rotation(rng.uniform(0, 2 * math.pi)))
                yield cd.MoebiusBoundaryLift(iso, winding)
            else:  # beta = 0
                yield cd.MoebiusBoundaryLift(hy.Isometry2H.rotation(rng.uniform(0, 2 * math.pi)),
                                             winding)


MOEBIUS_FAMILIES = ("rotation", "hyperbolic", "centre")


class TestMoebiusDisplacement:
    """The extremes of a Moebius lift's displacement, read at the two points
    where the lift has slope 1 (`fold_reference.moebius_extremes`)."""

    @pytest.mark.parametrize("family", MOEBIUS_FAMILIES)
    def test_closed_form_bounds_a_dense_scan(self, family):
        n = 20000
        for f in seeded_moebius_lifts(family):
            scan = [f.eval(k / n) - k / n for k in range(n + 1)]
            (_, lo), (_, hi) = moebius_extremes(f)
            assert hi >= max(scan) - 1e-12
            assert lo <= min(scan) + 1e-12

    @pytest.mark.parametrize("family", MOEBIUS_FAMILIES)
    def test_inf_is_negated_sup_of_inverse(self, family):
        for f in seeded_moebius_lifts(family, seed=37):
            (_, lo), _ = moebius_extremes(f)
            _, (_, hi_inverse) = moebius_extremes(f.inverse())
            assert abs(lo + hi_inverse) <= 1e-12

    def test_relator_displacement_reads_two_points(self, monkeypatch):
        rel, _ = polygon_relator(3, 0.5)
        calls = []
        canonical = cd.MoebiusBoundaryLift._canonical
        monkeypatch.setattr(cd.MoebiusBoundaryLift, "_canonical",
                            lambda lift, tau: calls.append(tau) or canonical(lift, tau))
        moebius_extremes(fold(rel))
        # one value a letter to fix the folded winding, then the two points
        assert len(calls) == len(rel.letters()) - 1 + 2

    def test_rotations_within_bound(self):
        a = cd.MoebiusBoundaryLift(hy.Isometry2H.rotation(0.7))
        b = cd.MoebiusBoundaryLift(hy.Isometry2H.rotation(1.3))
        (_, lo), (_, hi) = moebius_extremes(fold(cd.evaluate_relator([a, b])))
        assert max(abs(lo), abs(hi)) < 2

    def test_hyperbolic_pairings_within_bound(self):
        """The relator evaluated letter by letter on a dense grid stays within
        the Milnor-Wood bound 2g and within the fold's two extremes."""
        poly = build_symmetric_polygon(2, hy.radius_for_area(2, 4 * math.pi))
        rel = cd.evaluate_relator([cd.MoebiusBoundaryLift(p) for p in all_pairings(poly)])
        n = 2000
        scan = [rel.eval(k / n) - k / n for k in range(n + 1)]
        (_, lo), (_, hi) = moebius_extremes(fold(rel))
        assert max(abs(d) for d in scan) < 4
        assert lo - 1e-9 <= min(scan) and max(scan) <= hi + 1e-9

    @pytest.mark.parametrize("g", range(1, 9))
    def test_polygon_relators_obey_milnor_wood(self, g):
        for share in SHARES_LOW + SHARES_TOP:
            _, pairings = symmetric_pairings(g, share * (4 * g - 2) * math.pi)
            (_, lo), (_, hi) = moebius_extremes(fold(holonomy_relator(pairings)))
            assert max(abs(lo), abs(hi)) < 2 * g


# ---------------------------------------------------------------------------
# The integer PL engine against the Fraction engine it replaced.  `RefPL`,
# `ref_compose` and `ref_orbit` are that engine, kept here as the oracle.

class RefPL:
    """Piecewise-linear lift evaluated in `Fraction`."""

    def __init__(self, breakpoints):
        self.knots = tuple(sorted((Fraction(t), Fraction(v)) for t, v in breakpoints))
        self._ts = [t for t, _ in self.knots]

    def eval(self, t):
        t = Fraction(t)
        n = math.floor(t)
        tau = t - n
        knots = self.knots
        idx = bisect.bisect_right(self._ts, tau) - 1
        if idx < 0:
            (t0, v0), (t1, v1) = knots[-1], knots[0]
            t0, v0 = t0 - 1, v0 - 1
        else:
            t0, v0 = knots[idx]
            t1, v1 = knots[idx + 1] if idx + 1 < len(knots) else (knots[0][0] + 1, knots[0][1] + 1)
        return v0 + (v1 - v0) * (tau - t0) / (t1 - t0) + n

    def inverse(self):
        pts = []
        for t, v in self.knots:
            m = math.floor(v)
            pts.append((v - m, t - m))
        return RefPL(pts)


def ref_compose(f, g):
    ginv = g.inverse()
    ts = {t for t, _ in g.knots}
    for s, _ in f.knots:
        x = ginv.eval(s)
        ts.add(x - math.floor(x))
    return RefPL([(t, f.eval(g.eval(t))) for t in sorted(ts)])


def ref_flatten(letters):
    acc = RefPL([(0, 0)])
    for m, e in letters:
        ref = RefPL(m.knots)
        acc = ref_compose(acc, ref if e == 1 else ref.inverse())
    return acc


def ref_orbit(f, iterations):
    x = Fraction(0)
    for _ in range(iterations):
        x = f.eval(x)
    return Fraction(x, iterations)


FRACTIONS_32 = st.fractions(min_value=0, max_value=1, max_denominator=32)


@st.composite
def pl_maps(draw):
    """1-5 knots, every parameter and value increment of denominator <= 32;
    a single knot is a translation (the identity at 0)."""
    k = draw(st.integers(1, 5))
    ts = draw(st.lists(FRACTIONS_32.filter(lambda t: t < 1), min_size=k, max_size=k,
                       unique=True))
    incs = draw(st.lists(FRACTIONS_32.filter(lambda t: 0 < t < 1), min_size=k - 1,
                         max_size=k - 1, unique=True))
    v0 = draw(st.fractions(min_value=-4, max_value=4, max_denominator=32))
    return cd.PiecewiseLinearMap(zip(sorted(ts), [v0] + [v0 + d for d in sorted(incs)]))


SPECIAL_MAPS = (cd.PiecewiseLinearMap.identity(), cd.PiecewiseLinearMap.translation(Fraction(5, 7)),
                cd.PiecewiseLinearMap.translation(-3),
                cd.PiecewiseLinearMap([(0, Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 5))]))


def probe_points(f):
    """Exact points: a grid, the knots and their shifts by whole turns."""
    pts = [Fraction(i - 40, 17) for i in range(81)]
    for t, _ in f.knots:
        pts += [t, t - 1, t + 3]
    return pts


def probe_floats(f):
    """Float points, among them each knot's nearest float and its neighbours."""
    pts = [0.0, -0.0, 1e-300, -1e-20, math.nextafter(1.0, 0.0), 0.5, -7.25, 1e6 + 0.1]
    pts += [(i - 40) / 17 for i in range(81)]
    for t, _ in f.knots:
        x = float(t)
        pts += [x, math.nextafter(x, -1.0), math.nextafter(x, 2.0), x - 1.0, x + 2.0]
    return pts


class TestEulerAgainstKnots:
    @settings(max_examples=200, deadline=None)
    @given(pl_maps(), pl_maps(),
           st.one_of(st.none(), st.fractions(min_value=-3, max_value=3, max_denominator=4)))
    @example(cd.PiecewiseLinearMap.translation(Fraction(5, 7)),
             cd.PiecewiseLinearMap.translation(Fraction(-2, 7)), None)
    @example(cd.PiecewiseLinearMap([(0, Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 5))]),
             cd.PiecewiseLinearMap([(0, Fraction(-7, 4)), (Fraction(1, 2), Fraction(-7, 5))]),
             None)
    def test_matches_the_difference_at_the_knots(self, fD, fK, shift):
        """A drawn pair, or fD against fD shifted by `shift`, whose difference
        is constant; fD - fK is linear between the union of both maps' knots."""
        if shift is not None:
            fK = cd.compose(cd.PiecewiseLinearMap.translation(shift), fD)
        ts = {t for t, _ in fD.knots} | {t for t, _ in fK.knots}
        diffs = {fD.eval(t) - fK.eval(t) for t in ts}
        if len(diffs) > 1:
            with pytest.raises(cd.NonConstantDifference):
                cd.euler_from_sections(fD, fK)
        elif diffs.pop().denominator != 1:
            with pytest.raises(cd.NonIntegerDifference):
                cd.euler_from_sections(fD, fK)
        else:
            assert cd.euler_from_sections(fD, fK) == fD.eval(0) - fK.eval(0)


def seeded_relator(rng, g):
    return cd.evaluate_relator([random_pl(rng) for _ in range(2 * g)])


class TestIntegerEngine:
    def assert_same_map(self, f, ref):
        assert f.knots == ref.knots
        assert all(isinstance(t, Fraction) and isinstance(v, Fraction) for t, v in f.knots)
        for t in probe_points(ref):
            v = f.eval(t)
            assert v == ref.eval(t) and isinstance(v, Fraction)
        assert f.eval(3) == ref.eval(3) and f.eval("1/3") == ref.eval(Fraction(1, 3))
        for x in probe_floats(ref):
            # the exact value at the float, rounded once
            assert f.eval(x) == float(ref.eval(Fraction(x))), x
        with pytest.raises(ValueError):
            f.eval(math.nan)
        for x in (math.inf, -math.inf):
            with pytest.raises(OverflowError):
                f.eval(x)

    @settings(max_examples=150, deadline=None)
    @given(pl_maps(), pl_maps())
    @example(*SPECIAL_MAPS[:2])
    @example(*SPECIAL_MAPS[2:])
    def test_maps_match_reference(self, f, g):
        rf, rg = RefPL(f.knots), RefPL(g.knots)
        self.assert_same_map(f, rf)
        self.assert_same_map(f.inverse(), rf.inverse())
        self.assert_same_map(cd.compose(f, g), ref_compose(rf, rg))
        self.assert_same_map(cd.compose(g.inverse(), f), ref_compose(rg.inverse(), rf))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(pl_maps(), min_size=2, max_size=6).filter(lambda ms: len(ms) % 2 == 0))
    def test_relator_flattening_matches_reference(self, maps):
        rel = cd.evaluate_relator(maps)
        self.assert_same_map(cd.flatten(rel), ref_flatten(rel.letters()))

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_relators_match_reference(self, seed):
        rng = random.Random(100 + seed)
        rel = seeded_relator(rng, 1 + seed % 3)
        ref = ref_flatten(rel.letters())
        self.assert_same_map(cd.flatten(rel), ref)
        disp = [v - t for t, v in ref.knots]
        assert cd.sup_displacement(rel) == max(disp)
        assert cd.inf_displacement(rel) == min(disp)
        t, v = max(ref.knots, key=lambda kv: abs(kv[1] - kv[0]))
        chk = cd.displacement_within(rel, Fraction(1, 10 ** 6))
        assert not chk.ok and (chk.witness_t, chk.witness_displacement) == (float(t), float(v - t))

    @pytest.mark.parametrize("g, iterations", [(1, 1), (1, 3000), (2, 7), (2, 1000), (3, 500),
                                               (3, 3000)])
    def test_translation_number_matches_reference_orbit(self, g, iterations):
        rng = random.Random(7 * g + iterations)
        rel = seeded_relator(rng, g)
        est = cd.translation_number(rel, iterations)
        assert est.value == ref_orbit(ref_flatten(rel.letters()), iterations)
        assert isinstance(est.value, Fraction)
        assert est.error_bound == 1 / iterations and est.iterations == iterations

    @settings(max_examples=40, deadline=None)
    @given(st.lists(pl_maps(), min_size=2, max_size=6).filter(lambda ms: len(ms) % 2 == 0),
           st.integers(1, 3000))
    @example([cd.PiecewiseLinearMap.translation(Fraction(5, 7)), SPECIAL_MAPS[3]], 3000)
    def test_drawn_translation_numbers_match_reference_orbit(self, maps, iterations):
        """Past 8 steps the orbit may be captured (`TestOrbitCapture`); the
        value is the stepped orbit's all the same."""
        rel = cd.evaluate_relator(maps)
        est = cd.translation_number(rel, iterations)
        assert est.value == ref_orbit(ref_flatten(rel.letters()), iterations)
        assert est.error_bound == 1 / iterations and est.iterations == iterations

    def test_flatten_reuses_the_words_inverses(self, monkeypatch):
        rel = seeded_relator(random.Random(3), 3)
        calls = []
        inverse = cd.PiecewiseLinearMap.inverse
        monkeypatch.setattr(cd.PiecewiseLinearMap, "inverse",
                            lambda f: calls.append(f) or inverse(f))
        cd.flatten(rel)
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(pl_maps(), pl_maps())
    def test_composition_evaluates_once_per_knot(self, f, g):
        """g's knots read f at g's knot values; preimages of f's knots read
        f's knot values: K + k evaluations in all, the inverse's included."""
        ginv = g.inverse()
        calls = []
        evaluate = cd.PiecewiseLinearMap._eval_pair
        cd.PiecewiseLinearMap._eval_pair = lambda m, p, q: calls.append(1) or evaluate(m, p, q)
        try:
            fg = cd._compose_pl(f, g, ginv)
        finally:
            cd.PiecewiseLinearMap._eval_pair = evaluate
        assert len(calls) <= len(f.knots) + len(g.knots)
        assert fg.knots == ref_compose(RefPL(f.knots), RefPL(g.knots)).knots


def counted_translation_number(monkeypatch, f, iterations):
    """translation_number(f, iterations) and the number of `_eval_pair` calls it made."""
    calls = []
    evaluate = cd.PiecewiseLinearMap._eval_pair
    monkeypatch.setattr(cd.PiecewiseLinearMap, "_eval_pair",
                        lambda m, p, q: calls.append(1) or evaluate(m, p, q))
    est = cd.translation_number(f, iterations)
    monkeypatch.setattr(cd.PiecewiseLinearMap, "_eval_pair", evaluate)
    return est, len(calls)


def shifted_three_cycle(offset):
    """Slope 1/2 on [c - 1/12, c + 1/12] about c = 1/6, 1/2, 5/6, which it
    sends to c + 1/3 + 2, and 3/2 between: an attracting 3-cycle of shift 7
    and a repelling one through 0, 1/3, 2/3; conjugated by t -> t - offset."""
    knots = [(Fraction(1, 12), Fraction(11, 24)), (Fraction(1, 4), Fraction(13, 24)),
             (Fraction(5, 12), Fraction(19, 24)), (Fraction(7, 12), Fraction(21, 24)),
             (Fraction(3, 4), Fraction(9, 8)), (Fraction(11, 12), Fraction(29, 24))]
    return cd.PiecewiseLinearMap([(t - offset, v - offset + 2) for t, v in knots])


class TestOrbitCapture:
    """The PL orbit jumps to F^N(0) once a certified cycle holds it, and
    returns what the stepped orbit returns, bit for bit."""

    def test_translation_is_exactly_periodic(self, monkeypatch):
        """lam = 1: x_(k+7) = x_k + 5 exactly, found at the second check."""
        f = cd.PiecewiseLinearMap.translation(Fraction(5, 7))
        assert counted_translation_number(monkeypatch, f, 10 ** 6) == (
            cd.TranslationNumberEstimate(Fraction(5, 7), 1e-6, 10 ** 6), 16)
        assert cd.translation_number(f, 1000).value == ref_orbit(RefPL(f.knots), 1000)

    def test_orbit_on_a_repelling_periodic_point(self, monkeypatch):
        """0 lies on the repelling 3-cycle (lam = 27/8): exact periodicity
        captures it all the same, with shift 7."""
        f = shifted_three_cycle(0)
        assert [f.eval(x) for x in (0, Fraction(7, 3), Fraction(14, 3))] == [
            Fraction(7, 3), Fraction(14, 3), 7]
        for n in (10, 1000, 1001):
            est, calls = counted_translation_number(monkeypatch, f, n)
            assert est.value == ref_orbit(RefPL(f.knots), n) and calls == 8
        assert cd.translation_number(f, 10 ** 5 + 1).value == Fraction(7, 3)

    def test_repelling_cycle_falls_back_to_the_loop(self, monkeypatch):
        """A repelling fixed point 2^-20 from 0 (slope 2): the orbit keeps the
        period-1 itinerary for 17 steps, and lam = 2 is not certified."""
        c = Fraction(1, 2 ** 20)
        f = cd.PiecewiseLinearMap([(Fraction(1, 8), Fraction(1, 4) - c),
                                   (Fraction(7, 8), Fraction(3, 4) - c)])
        for n in (16, 17):
            est, calls = counted_translation_number(monkeypatch, f, n)
            assert calls == n and est.value == ref_orbit(RefPL(f.knots), n)
        # it escapes to the attracting fixed point and is captured there
        est, calls = counted_translation_number(monkeypatch, f, 300)
        assert calls < 300 and est.value == ref_orbit(RefPL(f.knots), 300)

    def test_fixed_point_off_the_segment_is_not_captured(self, monkeypatch):
        """Slope 15/16 on [0, 3/4] towards the point 1, off the segment: the
        orbit 1 - (15/16)^k keeps segment 0 for 22 steps while lam < 1, but
        x* = 1 fails the hull check, so no check before step 22 captures it."""
        f = cd.PiecewiseLinearMap([(0, Fraction(1, 16)), (Fraction(3, 4), Fraction(49, 64))])
        for n in (10, 20):
            est, calls = counted_translation_number(monkeypatch, f, n)
            assert calls == n and est.value == (1 - Fraction(15, 16) ** n) / n
        assert cd.translation_number(f, 400).value == ref_orbit(RefPL(f.knots), 400)

    def test_three_cycle_with_integer_shift(self, monkeypatch):
        """Period 3, shift 7, lam = 1/8, x* = 1/12: x_3m = x* + 7m - 8^-m/12."""
        f = shifted_three_cycle(Fraction(1, 12))
        assert cd.translation_number(f, 500).value == ref_orbit(RefPL(f.knots), 500)
        for m in (10 ** 3, 10 ** 4):
            est, calls = counted_translation_number(monkeypatch, f, 3 * m)
            assert est.value == (Fraction(1, 12) + 7 * m - Fraction(1, 12 * 8 ** m)) / (3 * m)
            assert calls == 8

    def test_jump_is_reduced_against_the_power(self):
        """x* = 2^10/3^7 and slope 1/2 on [0, 1/2]: x_k - x* = -x*/2^k keeps a
        power of 2 in its numerator past the first check, which the reduced
        value must divide out of 2^m, not only out of the small factors."""
        x_star = Fraction(2 ** 10, 3 ** 7)
        f = cd.PiecewiseLinearMap([(0, x_star / 2), (Fraction(1, 2), x_star / 2 + Fraction(1, 4))])
        for n in (9, 11, 1001):
            value = cd.translation_number(f, n).value
            assert value == x_star * (1 - Fraction(1, 2 ** n)) / n
            assert math.gcd(value.numerator, value.denominator) == 1

    def test_certified_hull_ends_on_a_knot(self, monkeypatch):
        """The cycle point 1/8 is a knot of the flattened relator, the right
        end of its segment; the closed segment holds the hull."""
        flat = cd.flatten(KNOT_CYCLE_RELATOR)
        assert (Fraction(1, 8), Fraction(1, 8)) in flat.knots
        counts = set()
        for n in (10, 200, 10 ** 4, 10 ** 5):
            est, calls = counted_translation_number(monkeypatch, KNOT_CYCLE_RELATOR, n)
            assert est.value == knot_cycle_average(n)
            counts.add(calls)
        assert len(counts) == 1
        assert cd.translation_number(KNOT_CYCLE_RELATOR, 300).value == ref_orbit(
            ref_flatten(KNOT_CYCLE_RELATOR.letters()), 300)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_relator_steps_do_not_grow_with_n(self, monkeypatch, seed):
        rel = seeded_relator(random.Random(seed), 1 + seed)
        est, calls = counted_translation_number(monkeypatch, rel, 10 ** 5)
        assert est.iterations == 10 ** 5 and calls < 2000
        assert counted_translation_number(monkeypatch, rel, 2000)[1] == calls
        assert cd.translation_number(rel, 2000).value == ref_orbit(ref_flatten(rel.letters()), 2000)
