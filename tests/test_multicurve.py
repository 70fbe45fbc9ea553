import itertools
import random
from fractions import Fraction

import pytest

from contactbundles import multicurve as mc

TC = mc.TorusCurve
UT = mc.TightnessVerdict.UNIVERSALLY_TIGHT
NUT = mc.TightnessVerdict.NOT_UNIVERSALLY_TIGHT
OT = mc.TightnessVerdict.OVERTWISTED_CERTIFICATE


def lattice_crossing_count(a: TC, b: TC) -> int:
    """Straight-representative crossing count on the flat torus.

    The two lines t*(p, q) and s*(p', q') + delta meet once for each integer
    vector (m, k) making the 2x2 system solvable inside the unit box; a
    generic rational offset delta avoids boundary coincidences.  Straight
    representatives of distinct slopes are in minimal position.
    """
    det = a.p * b.q - a.q * b.p
    if det == 0:
        return 0
    d1, d2 = Fraction(1, 37), Fraction(1, 53)
    count = 0
    pmax = abs(a.p) + abs(b.p) + 1
    qmax = abs(a.q) + abs(b.q) + 1
    for m in range(-pmax, pmax + 1):
        for k in range(-qmax, qmax + 1):
            rhs1, rhs2 = d1 + m, d2 + k
            # t*a.p - s*b.p = rhs1 ; t*a.q - s*b.q = rhs2
            t = Fraction(rhs1 * (-b.q) - (-b.p) * rhs2, -det)
            s = Fraction(a.p * rhs2 - a.q * rhs1, -det)
            if 0 <= t < 1 and 0 <= s < 1:
                count += 1
    return count


def annuli_cycle(n_curves: int) -> mc.SurfaceDecomposition:
    """Torus decomposed by n parallel essential curves into n annuli."""
    pieces = tuple((0, 2) for _ in range(n_curves))
    curves = tuple(((i, 1), ((i + 1) % n_curves, 0)) for i in range(n_curves))
    return mc.SurfaceDecomposition(pieces, curves, 0, False)


def sphere_disk_chain(k: int) -> mc.SurfaceDecomposition:
    """Sphere decomposed by k parallel circles: 2 disks and k-1 annuli."""
    if k == 0:
        return mc.SurfaceDecomposition(((0, 0),), (), 2, True)
    pieces = [(0, 1)] + [(0, 2)] * (k - 1) + [(0, 1)]
    curves = []
    for i in range(k):
        slot_a = 0 if i == 0 else 1
        curves.append(((i, slot_a), (i + 1, 0)))
    return mc.SurfaceDecomposition(tuple(pieces), tuple(curves), 2, True)


class TestTorusCurves:
    def test_basis_crossing(self):
        assert mc.torus_intersection(TC(1, 0), TC(0, 1)) == 1

    def test_self_crossing_zero(self):
        a = TC(2, 3)
        assert mc.torus_intersection(a, a) == 0

    def test_example(self):
        assert mc.torus_intersection(TC(2, 3), TC(1, 1)) == 1

    def test_negation_identified(self):
        assert TC(-2, -3) == TC(2, 3)
        assert TC(0, -1) == TC(0, 1)

    def test_primitivity_enforced(self):
        with pytest.raises(ValueError):
            TC(2, 4)
        with pytest.raises(ValueError):
            TC(0, 0)

    def test_symmetry(self):
        rng = random.Random(30)
        from math import gcd
        pairs = []
        while len(pairs) < 20:
            p, q = rng.randint(-5, 5), rng.randint(-5, 5)
            if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1:
                pairs.append(TC(p, q))
        for a, b in itertools.combinations(pairs, 2):
            assert mc.torus_intersection(a, b) == mc.torus_intersection(b, a)

    def test_against_lattice_oracle(self):
        from math import gcd
        classes = []
        for p in range(-5, 6):
            for q in range(-5, 6):
                if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1:
                    classes.append(TC(p, q))
        classes = sorted(set(classes), key=lambda c: (c.p, c.q))
        for a in classes:
            for b in classes:
                assert mc.torus_intersection(a, b) == lattice_crossing_count(a, b)


class TestBennequinBound:
    def test_model_dividing_set(self):
        gamma = mc.TorusDividingSet(2 * 3, TC(0, 1))
        assert mc.bennequin_semilocal_bound(gamma, TC(1, 0)) == -3

    def test_parallel_curves_zero(self):
        gamma = mc.TorusDividingSet(2, TC(1, 0))
        assert mc.bennequin_semilocal_bound(gamma, TC(1, 0)) == 0

    def test_nonpositive_and_zero_iff_parallel(self):
        rng = random.Random(31)
        from math import gcd
        for _ in range(50):
            p, q = rng.randint(-4, 4), rng.randint(-4, 4)
            if (p, q) == (0, 0) or gcd(abs(p), abs(q)) != 1:
                continue
            gamma = mc.TorusDividingSet(2 * rng.randint(1, 4), TC(p, q))
            c = TC(1, 0)
            bound = mc.bennequin_semilocal_bound(gamma, c)
            assert bound <= 0
            assert (bound == 0) == (mc.torus_intersection(gamma.slope, c) == 0)

    def test_component_parity(self):
        with pytest.raises(ValueError):
            mc.TorusDividingSet(3, TC(1, 0))

    def test_tb_from_degree(self):
        for n in (1, 2, 5):
            assert mc.tb_from_degree(-n, n) == -1
        assert mc.tb_from_degree(0, 1) == 0
        assert mc.tb_from_degree(-1, 1) == -1  # deg + n - 1


class TestValidation:
    def test_torus_two_annuli(self):
        ok, diags = mc.validate(annuli_cycle(2))
        assert ok and not diags

    def test_sphere_two_disks(self):
        ok, diags = mc.validate(sphere_disk_chain(1))
        assert ok

    def test_euler_mismatch(self):
        bad = mc.SurfaceDecomposition(((0, 1), (1, 2)), (((0, 0), (1, 0)),), -2, False)
        ok, diags = mc.validate(bad)
        assert not ok and any("euler mismatch" in d for d in diags)

    def test_slot_reuse(self):
        bad = mc.SurfaceDecomposition(((0, 2), (0, 2)),
                                      (((0, 0), (1, 0)), ((0, 0), (1, 1))), 0, False)
        ok, diags = mc.validate(bad)
        assert not ok and any("slot" in d for d in diags)

    def test_disconnected(self):
        bad = mc.SurfaceDecomposition(((0, 2), (0, 2), (1, 0)),
                                      (((0, 0), (0, 1)), ((1, 0), (1, 1))), 0, False)
        ok, diags = mc.validate(bad)
        assert not ok and any("disconnected" in d for d in diags)

    def test_sphere_flag_consistency(self):
        bad = mc.SurfaceDecomposition(((1, 0),), (), 0, True)
        ok, diags = mc.validate(bad)
        assert not ok and any("sphere" in d for d in diags)


class TestEssential:
    def test_torus_parallel_curves(self):
        assert mc.is_essential(annuli_cycle(2))

    def test_disk_piece_not_essential(self):
        dec = mc.SurfaceDecomposition(((0, 1), (2, 1)), (((0, 0), (1, 0)),), -2, False)
        assert not mc.is_essential(dec)

    def test_empty_vacuous(self):
        dec = mc.SurfaceDecomposition(((2, 0),), (), -2, False)
        assert mc.is_essential(dec)

    def test_sphere_curves_never_essential(self):
        assert not mc.is_essential(sphere_disk_chain(1))
        assert mc.is_essential(sphere_disk_chain(0))


class TestTightness:
    def test_no_disk_piece_universally_tight(self):
        assert mc.universal_tightness(annuli_cycle(2), euler=-1) is UT

    def test_sphere_connected_nonempty(self):
        assert mc.universal_tightness(sphere_disk_chain(1), euler=0) is UT
        assert mc.universal_tightness(sphere_disk_chain(1), euler=3) is UT

    def test_disk_and_disconnected_is_overtwisted(self):
        dec = mc.SurfaceDecomposition(((0, 1), (0, 2), (2, 1)),
                                      (((0, 0), (1, 0)), ((1, 1), (2, 0))), -2, False)
        assert mc.universal_tightness(dec, euler=1) is OT

    def test_disk_connected_positive_euler_is_virtual(self):
        dec = mc.SurfaceDecomposition(((0, 1), (1, 1)), (((0, 0), (1, 0)),), 0, False)
        assert mc.universal_tightness(dec, euler=2) is NUT
        assert mc.universal_tightness(dec, euler=0) is OT
        assert mc.universal_tightness(dec, euler=-1) is OT

    def test_sphere_empty_depends_on_euler(self):
        empty = sphere_disk_chain(0)
        assert mc.universal_tightness(empty, euler=-2) is UT
        assert mc.universal_tightness(empty, euler=1) is NUT

    def test_sphere_disconnected_overtwisted(self):
        for k in (2, 3, 4):
            assert mc.universal_tightness(sphere_disk_chain(k), euler=0) is OT

    def test_sphere_universally_tight_iff_one_component(self):
        for k in range(5):
            verdict = mc.universal_tightness(sphere_disk_chain(k), euler=1)
            assert (verdict is UT) == (k == 1)

    def test_invalid_decomposition_raises(self):
        bad = mc.SurfaceDecomposition(((0, 1),), (), -2, False)
        with pytest.raises(mc.InvalidDecomposition):
            mc.universal_tightness(bad, euler=0)


class TestConvexNeighborhood:
    def test_separating_curve_on_genus2(self):
        dec = mc.SurfaceDecomposition(((1, 1), (1, 1)), (((0, 0), (1, 0)),), -2, False)
        assert mc.convex_neighborhood_tight(dec)

    def test_sphere_empty_not_tight(self):
        assert not mc.convex_neighborhood_tight(sphere_disk_chain(0))

    def test_torus_empty_tight(self):
        dec = mc.SurfaceDecomposition(((1, 0),), (), 0, False)
        assert mc.convex_neighborhood_tight(dec)

    def test_disk_piece_not_tight(self):
        dec = mc.SurfaceDecomposition(((0, 1), (1, 1)), (((0, 0), (1, 0)),), 0, False)
        assert not mc.convex_neighborhood_tight(dec)


class TestIsotopyEqual:
    def test_identical(self):
        assert mc.isotopy_equal(annuli_cycle(2), annuli_cycle(2))

    def test_component_count_distinguishes(self):
        assert not mc.isotopy_equal(annuli_cycle(2), annuli_cycle(4))

    def test_relabeled_copy(self):
        a = mc.SurfaceDecomposition(((0, 2), (0, 2)),
                                    (((0, 0), (1, 0)), ((0, 1), (1, 1))), 0, False)
        b = mc.SurfaceDecomposition(((0, 2), (0, 2)),
                                    (((1, 0), (0, 1)), ((1, 1), (0, 0))), 0, False)
        assert mc.isotopy_equal(a, b)

    def test_piece_labels_distinguish(self):
        a = mc.SurfaceDecomposition(((1, 1), (1, 1)), (((0, 0), (1, 0)),), -2, False)
        b = mc.SurfaceDecomposition(((0, 1), (2, 1)), (((0, 0), (1, 0)),), -2, False)
        assert not mc.isotopy_equal(a, b)

    def test_equivalence_relation_on_random_family(self):
        rng = random.Random(32)
        family = [annuli_cycle(k) for k in (2, 3, 4)]
        # random relabelings of each
        def shuffled(dec):
            n = len(dec.pieces)
            perm = list(range(n))
            rng.shuffle(perm)
            pieces = tuple(dec.pieces[perm.index(i)] for i in range(n))
            curves = tuple(((perm[ia], sa), (perm[ib], sb))
                           for (ia, sa), (ib, sb) in dec.curves)
            return mc.SurfaceDecomposition(pieces, curves, dec.ambient_chiS,
                                           dec.ambient_sphere)
        family += [shuffled(d) for d in family]
        for a in family:
            assert mc.isotopy_equal(a, a)  # reflexive
        for a in family:
            for b in family:
                assert mc.isotopy_equal(a, b) == mc.isotopy_equal(b, a)  # symmetric
        for a in family:
            for b in family:
                for c in family:
                    if mc.isotopy_equal(a, b) and mc.isotopy_equal(b, c):
                        assert mc.isotopy_equal(a, c)  # transitive

    def test_scale_guard(self):
        big = annuli_cycle(9)
        with pytest.raises(mc.ScaleExceeded):
            mc.isotopy_equal(big, big)

    def test_one_scale_exceeded_class(self):
        from contactbundles import classify as cl
        assert mc.ScaleExceeded is cl.ScaleExceeded


class TestTextFormat:
    def test_round_trip(self):
        dec = annuli_cycle(3)
        text = mc.format_decomposition(dec)
        back = mc.parse_decomposition(text)
        assert mc.isotopy_equal(dec, back)
        assert back.ambient_chiS == 0 and not back.ambient_sphere

    def test_parse_example(self):
        text = """
        surface chi=2 sphere=true
        piece D1 genus=0 boundaries=1
        piece D2 genus=0 boundaries=1
        curve c D1.0 D2.0
        """
        dec = mc.parse_decomposition(text)
        ok, _ = mc.validate(dec)
        assert ok and dec.ambient_sphere

    def test_parse_errors(self):
        with pytest.raises(mc.InvalidDecomposition):
            mc.parse_decomposition("piece P genus=0 boundaries=1")
        with pytest.raises(mc.InvalidDecomposition):
            mc.parse_decomposition("surface chi=0 sphere=false\ncurve c A.0 B.0")

    @pytest.mark.parametrize("text,lineno,fragment", [
        ("surface sphere=false\npiece P genus=1 boundaries=0", 1, "missing chi="),
        ("surface chi=x sphere=false\npiece P genus=1 boundaries=0", 1, "chi= must be an integer"),
        ("surface chi=0 sphere=false\npiece P genus=x boundaries=0", 2, "genus= must be an integer"),
        ("surface chi=0 sphere=false\npiece P genus boundaries=0", 2, "key=value"),
        ("surface chi=0 sphere=false\npiece P bound=1 boundaries=0", 2, "missing genus="),
        ("surface chi=0 sphere=false\npiece P genus=0 boundaries=2\n"
         "piece P genus=0 boundaries=2\ncurve c P.0 P.1", 3, "duplicate piece id 'P'"),
    ])
    def test_malformed_lines_name_their_line(self, text, lineno, fragment):
        with pytest.raises(mc.InvalidDecomposition) as info:
            mc.parse_decomposition(text)
        assert str(info.value).startswith(f"line {lineno}: ")
        assert fragment in str(info.value)
