"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned in the assertions.
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from contactbundles import circle_dynamics as cd
from contactbundles import classify as cl
from contactbundles import formcalc as fc
from contactbundles import hyperbolic as hy
from contactbundles import multicurve as mc
from contactbundles.formcalc.models import fiber_tube_pullback, torus_wrapping_pullback
from expr_reference import eval_expr
from fold_reference import holonomy_translation_number, proj_distance
from multicurve_reference import lattice_crossing_count
from pl_reference import random_pl
from polygon_reference import (Isometry2H, build_symmetric_polygon, commutator_product,
                               fan_defect_area, polygon_area, reference_pairings)

DATA = Path(__file__).parent / "data"
AREAS = [math.pi / 2, math.pi, 2 * math.pi, 4 * math.pi, 5 * math.pi]


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_01_holonomy_translation_numbers():
    iters = 10 ** 5
    t0 = time.perf_counter()
    worst = 0.0
    for area in AREAS:
        est = holonomy_translation_number(2, area, iters)
        err = abs(abs(float(est.value)) - area / (2 * math.pi))
        worst = max(worst, err)
        assert err <= 1.0 / iters + 1e-5, f"area {area}: residual {err}"
    elapsed = time.perf_counter() - t0
    report("1 holonomy translation number",
           worst <= 1.0 / iters + 1e-5 and elapsed < 60.0,
           f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_02_commutator_ellipticity():
    worst = 0.0
    for area in AREAS:
        poly = build_symmetric_polygon(2, hy.radius_for_area(2, area))
        prod = commutator_product(reference_pairings(poly))
        expected = 2 * abs(math.cos(((4 * 2 - 2) * math.pi - area) / 2))
        worst = max(worst, abs(abs(prod.trace()) - expected))
    poly = build_symmetric_polygon(2, hy.radius_for_area(2, 4 * math.pi))
    prod = commutator_product(reference_pairings(poly))
    ident_dev = proj_distance(prod, Isometry2H.identity())
    report("2 commutator ellipticity",
           worst <= 1e-5 and ident_dev <= 1e-5,
           f"worst trace dev {worst:.2e}, identity dev at 4pi {ident_dev:.2e}")


def test_03_wood_inequality_500_pairs():
    rng = random.Random(1729)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(500):
        f, g = random_pl(rng), random_pl(rng)
        hf = cd.sup_displacement(f)
        hg = cd.sup_displacement(g)
        hfg = cd.sup_displacement(cd.compose(f, g))
        if not (hfg <= hf + hg <= hfg + 1):
            violations += 1
    elapsed = time.perf_counter() - t0
    report("3 Wood subadditivity (500 exact pairs)",
           violations == 0 and elapsed < 10.0,
           f"{violations} violations, {elapsed:.1f}s")


def test_04_gauss_bonnet_and_round_trip():
    worst_area = 0.0
    for g in (1, 2, 3):
        for radius in (0.5, 1.0, 2.0):
            poly = build_symmetric_polygon(g, radius)
            worst_area = max(worst_area,
                             abs(polygon_area(poly) - fan_defect_area(poly)))
    worst_rt = 0.0
    for g in (1, 2, 3):
        for frac in (0.1, 0.5, 0.9):
            area = frac * (4 * g - 2) * math.pi
            radius = hy.radius_for_area(g, area)
            worst_rt = max(worst_rt,
                           abs(polygon_area(build_symmetric_polygon(g, radius)) - area))
    report("4 Gauss-Bonnet oracle and radius round trip",
           worst_area <= 1e-9 and worst_rt <= 1e-8,
           f"oracle dev {worst_area:.2e}, round trip {worst_rt:.2e}")


def test_05_model_library_signs_and_slope_formula():
    lib = fc.model_library()
    mixed = 0
    wrong = 0
    checked = 0
    for key, entry in lib.items():
        if entry.expected_sign is None:
            continue
        rep = fc.contact_sign(entry.form, grid=64)
        checked += 1
        if rep.sign == "Mixed":
            mixed += 1
        elif rep.sign != entry.expected_sign:
            wrong += 1
    zeta = fc.solid_torus_universal_form()
    worst = 0.0
    for k in range(1, 29):
        r = 0.05 * k
        if abs(r - 1.0) < 1e-9:
            continue  # the slope formula has a pole at r = 1
        slope = fc.characteristic_slope_on_torus(zeta, r)
        worst = max(worst, abs(slope.value - r * r / (r ** 4 - 1.0)), slope.spread)
    report("5 catalog signs and slope formula",
           checked >= 9 and mixed == 0 and wrong == 0 and worst <= 1e-9,
           f"{checked} entries, slope dev {worst:.2e}")


def test_06_pullback_checks():
    rng = random.Random(99)
    worst_cross = 0.0
    for n in (1, 2, 3):
        pulled, expected = fiber_tube_pullback(n)
        assert pulled.coefficients == expected.coefficients
        for env in pulled.chart.random_points(1000, rng):
            u = [eval_expr(c, env) for c in pulled.coefficients]
            v = [eval_expr(c, env) for c in expected.coefficients]
            nu = math.sqrt(sum(x * x for x in u))
            nv = math.sqrt(sum(x * x for x in v))
            cross = math.sqrt(sum((u[i] * v[j] - u[j] * v[i]) ** 2
                                  for i in range(3) for j in range(i + 1, 3)))
            worst_cross = max(worst_cross, cross / (nu * nv))
            assert sum(a * b for a, b in zip(u, v)) > 0  # positive multiple
    signs_ok = True
    for (p, q) in ((-4, 15), (-1, 1)):
        for sgn in (1, -1):
            rep = fc.contact_sign(torus_wrapping_pullback(p, q, sgn), grid=24)
            signs_ok = signs_ok and rep.sign == "Positive"
    report("6 embedding pullbacks",
           worst_cross <= 1e-8 and signs_ok,
           f"kernel dev {worst_cross:.2e}, wrapped embeddings positive: {signs_ok}")


def test_07_hopf_invariance():
    times = [Fraction(k, 10) for k in range(10)]
    chk = fc.hopf_invariance_check(times=times, points=100)
    report("7 Hopf flow invariance", chk.ok and chk.max_error <= 1e-12,
           f"max error {chk.max_error:.2e} over {len(times)} times, both variants")


def test_08_counting_and_golden_table():
    t0 = time.perf_counter()
    ok_orbits = True
    for g in (1, 2):
        for n in range(1, 9):
            if cl.cohomology_orbit_count(g, n) != cl.count_tangent_conjugacy_classes(n):
                ok_orbits = False
    with open(DATA / "classification_table.json") as fh:
        golden = json.load(fh)
    mismatches = []
    for key, expected in golden.items():
        chiS, euler = map(int, key.split(","))
        te = cl.transverse_exists(chiS, euler)
        got = {
            "transverse_exists": te,
            "flat_exists": cl.flat_exists(chiS, euler),
            "confoliation_ok": cl.confoliation_bound(chiS, euler),
            "tangent_degree": cl.tangent_exists(chiS, euler),
            "enrollment_spectrum": None,
            "conjugacy_classes": None,
            "vot_bound": cl.virtually_overtwisted_bound(chiS, euler),
        }
        if te and chiS == 2:
            got["enrollment_spectrum"] = [int(-cl.sphere_enrollment(euler))]
            got["conjugacy_classes"] = 1
        elif te:
            spec = cl.transverse_enrollment_spectrum(chiS, euler)
            if spec.all_n:
                got["enrollment_spectrum"] = "all n >= 1"
            else:
                got["enrollment_spectrum"] = spec.sorted_values()
                n_tan = None
                if euler != 0 and (-chiS) % euler == 0 and (-chiS) // euler > 0:
                    n_tan = (-chiS) // euler
                got["conjugacy_classes"] = (cl.count_tangent_conjugacy_classes(n_tan)
                                            if n_tan else 1)
        if got != expected:
            mismatches.append((key, got, expected))
    elapsed = time.perf_counter() - t0
    report("8 orbit counts and golden classification table",
           ok_orbits and not mismatches and elapsed < 30.0,
           f"{len(golden)} cells, {elapsed:.1f}s" +
           (f", first mismatch {mismatches[0]}" if mismatches else ""))


def test_09_torus_intersection_oracle():
    from math import gcd
    classes = []
    for p in range(-5, 6):
        for q in range(-5, 6):
            if (p, q) != (0, 0) and gcd(abs(p), abs(q)) == 1:
                classes.append(mc.TorusCurve(p, q))
    classes = sorted(set(classes), key=lambda c: (c.p, c.q))
    bad = 0
    for a in classes:
        for b in classes:
            if mc.torus_intersection(a, b) != lattice_crossing_count(a, b):
                bad += 1
    report("9 torus intersection vs lattice oracle",
           bad == 0, f"{len(classes)}^2 pairs, {bad} mismatches")


def test_10_tightness_truth_table():
    UT = mc.TightnessVerdict.UNIVERSALLY_TIGHT
    NUT = mc.TightnessVerdict.NOT_UNIVERSALLY_TIGHT
    OT = mc.TightnessVerdict.OVERTWISTED_CERTIFICATE
    D = mc.SurfaceDecomposition

    sphere_empty = D(((0, 0),), (), 2, True)
    sphere_1 = D(((0, 1), (0, 1)), (((0, 0), (1, 0)),), 2, True)
    sphere_2 = D(((0, 1), (0, 2), (0, 1)),
                 (((0, 0), (1, 0)), ((1, 1), (2, 0))), 2, True)
    sphere_3 = D(((0, 1), (0, 2), (0, 2), (0, 1)),
                 (((0, 0), (1, 0)), ((1, 1), (2, 0)), ((2, 1), (3, 0))), 2, True)
    torus_empty = D(((1, 0),), (), 0, False)
    genus2_empty = D(((2, 0),), (), -2, False)
    torus_1_essential = D(((0, 2),), (((0, 0), (0, 1)),), 0, False)
    torus_2_parallel = D(((0, 2), (0, 2)),
                         (((0, 0), (1, 0)), ((0, 1), (1, 1))), 0, False)
    genus2_separating = D(((1, 1), (1, 1)), (((0, 0), (1, 0)),), -2, False)
    torus_disk = D(((0, 1), (1, 1)), (((0, 0), (1, 0)),), 0, False)
    genus2_disk_chain = D(((0, 1), (0, 2), (2, 1)),
                          (((0, 0), (1, 0)), ((1, 1), (2, 0))), -2, False)

    # (label, decomposition, euler, expected universal verdict, expected convex-tight)
    cases = [
        ("sphere empty no-disk (euler<0)", sphere_empty, -2, UT, False),
        ("sphere empty no-disk (euler>=0)", sphere_empty, 1, NUT, False),
        ("sphere connected disk", sphere_1, 0, UT, True),
        ("sphere disconnected disk (2)", sphere_2, 0, OT, False),
        ("sphere disconnected disk (3)", sphere_3, 2, OT, False),
        ("torus empty no-disk", torus_empty, 0, UT, True),
        ("genus2 empty no-disk", genus2_empty, -3, UT, True),
        ("torus connected no-disk", torus_1_essential, -1, UT, True),
        ("genus2 connected no-disk", genus2_separating, 0, UT, True),
        ("torus disconnected no-disk", torus_2_parallel, 0, UT, True),
        ("torus connected disk (euler>0)", torus_disk, 2, NUT, False),
        ("genus2 disconnected disk", genus2_disk_chain, 1, OT, False),
    ]
    assert len(cases) == 12
    failures = []
    for label, dec, euler, expected_ut, expected_convex in cases:
        got_ut = mc.universal_tightness(dec, euler)
        got_convex = mc.convex_neighborhood_tight(dec)
        if got_ut is not expected_ut or got_convex is not expected_convex:
            failures.append((label, got_ut, got_convex))
    report("10 tightness truth table", not failures,
           "12 cases" + (f", first failure {failures[0]}" if failures else ""))
