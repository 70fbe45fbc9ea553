import argparse
import contextlib
import enum
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polygon_reference
import report_reference
from contactbundles import circle_dynamics, cli, hyperbolic
from contactbundles import multicurve as mc
from fold_reference import fold, holonomy_relator, trace_slack
from polygon_reference import largest_accepted_area

DATA = Path(__file__).parent / "data"
#: the directory that holds the imported package, for child processes
SRC = str(Path(cli.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


def refuse_full_build(monkeypatch, vertices: int) -> list:
    """Let a command read at most `vertices` vertices and one handle's
    pairings; reading more, as the full build does, raises.  Returns the
    list that each call appends its (name, count) to."""
    calls = []

    def limited(build, limit):
        def read(g, radius, count):
            calls.append((build.__name__, count))
            if count > limit:
                raise AssertionError("the command built the whole polygon")
            return build(g, radius, count)
        return read

    for build, limit in ((hyperbolic.polygon_vertices, vertices), (hyperbolic.side_pairings, 1)):
        monkeypatch.setattr(hyperbolic, build.__name__, limited(build, limit))
    return calls


class TestClassifyCommand:
    def test_counting_fields(self, capsys):
        code, rep, _ = run_json(capsys, "classify", "--chi-s", "-2", "--euler", "1")
        assert code == 0
        assert rep["outputs"]["enrollment_spectrum"] == [1, 2]
        assert rep["outputs"]["conjugacy_classes"] == 2
        assert rep["outputs"]["vot_bound"] == 1
        assert rep["deterministic"] is True

    def test_sphere_route(self, capsys):
        code, rep, _ = run_json(capsys, "classify", "--chi-s", "2", "--euler", "-1")
        assert code == 0
        assert rep["outputs"]["enrollment_spectrum"] == [2]

    def test_no_transverse(self, capsys):
        code, rep, _ = run_json(capsys, "classify", "--chi-s", "-2", "--euler", "5")
        assert code == 0
        assert rep["outputs"]["transverse_exists"] is False
        assert rep["outputs"]["enrollment_spectrum"] is None

    def test_schema_fields(self, capsys):
        _, rep, _ = run_json(capsys, "classify", "--chi-s", "-4", "--euler", "2")
        for field in ("transverse_exists", "flat_exists", "confoliation_ok",
                      "tangent_degree", "enrollment_spectrum", "conjugacy_classes",
                      "vot_bound", "boundary_slope", "whitney_class"):
            assert field in rep["outputs"]

    def test_odd_chi_usage_error(self, capsys):
        # odd or above 2: refused by the classification's own check, in one line
        for chi_s in ("-1", "1", "3", "-3", "4"):
            code, out, err = run(capsys, "classify", "--chi-s", chi_s, "--euler", "0")
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1 and "chi(S)" in err, (chi_s, err)


class TestHolonomyCommand:
    def test_four_pi(self, capsys):
        code, rep, _ = run_json(capsys, "holonomy", "--genus", "2", "--area", "4pi",
                                "--iters", "5000")
        assert code == 0
        assert abs(rep["outputs"]["abs_rho"] - 2.0) <= rep["outputs"]["error_bound"]

    def test_small_area(self, capsys):
        code, rep, _ = run_json(capsys, "holonomy", "--genus", "2", "--area", "0.001",
                                "--iters", "2000")
        assert code == 0
        assert rep["outputs"]["abs_rho"] <= 1e-3

    def test_out_of_range_exits_2(self, capsys):
        code, out, err = run(capsys, "holonomy", "--genus", "2", "--area", "6pi")
        assert code == 2 and out == "" and "error" in err

    def test_near_top_of_area_range(self, capsys):
        code, rep, _ = run_json(capsys, "holonomy", "--genus", "2", "--area", "5.99pi",
                                "--iters", "2000")
        assert code == 0
        assert abs(rep["outputs"]["abs_rho"] - 2.995) <= rep["outputs"]["error_bound"]

    def test_float_limit_of_the_top_exits_2(self, capsys):
        # tanh(R/2) rounds to 1 here, so the vertices would lie on the unit circle
        area = repr((1 - 2.3e-16) * 38 * math.pi)
        code, out, err = run(capsys, "holonomy", "--genus", "10", "--area", area,
                             "--iters", "100")
        assert code == 2 and out == "" and "float limit" in err

    @pytest.mark.parametrize("area,target", [("2pi", 1.0), ("4pi", 2.0), ("5pi", 2.5)])
    def test_huge_iteration_count(self, capsys, area, target):
        start = time.perf_counter()
        code, rep, _ = run_json(capsys, "holonomy", "--genus", "2", "--area", area,
                                "--iters", str(10 ** 12))
        assert time.perf_counter() - start < 2.0
        assert code == 0 and rep["outputs"]["iterations"] == 10 ** 12
        assert abs(rep["outputs"]["abs_rho"] - target) <= rep["outputs"]["error_bound"]

    @pytest.mark.parametrize("genus", [1, 2, 5, 10])
    def test_huge_iteration_count_at_the_top(self, capsys, genus):
        top = (4 * genus - 2) * math.pi
        for k in range(8, 14):
            area = (1 - 10.0 ** -k) * top
            for iters in (10 ** 4, 10 ** 12):
                code, rep, _ = run_json(capsys, "holonomy", "--genus", str(genus),
                                        "--area", repr(area), "--iters", str(iters))
                assert code == 0
                out = rep["outputs"]
                assert abs(out["abs_rho"] - area / (2 * math.pi)) <= out["error_bound"]

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "holonomy", "--genus", "2", "--area", "pi/2",
                         "--iters", "1000")
        _, out2, _ = run(capsys, "holonomy", "--genus", "2", "--area", "pi/2",
                         "--iters", "1000")
        assert out1 == out2

    @pytest.mark.parametrize("g,area", [(1, "1.5pi"), (2, "4pi"), (3, "9.99pi"), (8, "29.997pi"),
                                        (20, "77.9pi"), (10000, "19999pi")])
    def test_no_lifted_product_and_the_trace_of_polygon(self, capsys, g, area):
        """holonomy prints the commutator trace and bound that `polygon`
        prints; `test_constructs_no_lift` shows that it lifts no product."""
        _, pol, _ = run_json(capsys, "polygon", "--genus", str(g), "--area", area)
        _, hol, _ = run_json(capsys, "holonomy", "--genus", str(g), "--area", area, "--iters", "10")
        for key in ("commutator_trace", "commutator_trace_bound"):
            assert hol["outputs"][key] == pol["outputs"][key]

    @pytest.mark.parametrize("g,area", [(1, "1.5pi"), (8, "29.997pi"), (10000, "39997.99999pi")])
    def test_constructs_no_lift(self, capsys, monkeypatch, g, area):
        def refuse(*args):
            raise AssertionError("holonomy built a boundary lift")

        monkeypatch.setattr(circle_dynamics.MoebiusBoundaryLift, "__init__", refuse)
        code, rep, _ = run_json(capsys, "holonomy", "--genus", str(g), "--area", area)
        assert code == 0 and rep["outputs"]["residual"] <= rep["outputs"]["error_bound"]

    @pytest.mark.parametrize("g", [4000, 6000, 8000, 10000])
    def test_rho_within_its_bound_near_the_top_at_large_genus(self, capsys, g):
        """A winding carried through every product of the power drifted by
        whole turns here; read once from g*rho(X~), rho keeps its bound at 150
        shares of the top with 1 - share from 1e-1 to 1e-6."""
        for i in range(150):
            area = f"{(1 - 10.0 ** (-1 - 5 * i / 149)) * (4 * g - 2)!r}pi"
            code, rep, _ = run_json(capsys, "holonomy", "--genus", str(g), "--area", area,
                                    "--iters", "100000")
            out = rep["outputs"]
            assert code == 0 and abs(out["abs_rho"] - out["target_abs_rho"]) <= out["error_bound"], area

    @pytest.mark.parametrize("area", ["39978.8pi", "39994pi"])
    def test_rho_within_its_bound_where_the_carried_winding_drifted(self, capsys, area):
        # the carried winding printed rho -19970.24 at 39978.8pi, 19 turns off
        code, rep, _ = run_json(capsys, "holonomy", "--genus", "10000", "--area", area,
                                "--iters", "100000")
        out = rep["outputs"]
        assert code == 0 and abs(out["abs_rho"] - out["target_abs_rho"]) <= out["error_bound"]

    def test_top_genus_builds_a_few_isometries(self, capsys, monkeypatch):
        """O(1) in g: one handle's two pairings and five vertices at g = 10^4,
        where the 4g-letter fold made 180,002 matrices."""
        calls = refuse_full_build(monkeypatch, vertices=5)
        code, rep, _ = run_json(capsys, "holonomy", "--genus", "10000", "--area", "19999pi",
                                "--iters", "100000")
        assert code == 0 and sorted(calls) == [("polygon_vertices", 5), ("side_pairings", 1)]
        out = rep["outputs"]
        assert abs(out["abs_rho"] - out["target_abs_rho"]) <= out["error_bound"]

    def test_builds_no_polygon(self, capsys, monkeypatch):
        refuse_full_build(monkeypatch, vertices=5)
        code, rep, _ = run_json(capsys, "holonomy", "--genus", "8", "--area", "29.997pi")
        assert code == 0 and rep["outputs"]["commutator_class"] == "elliptic"

    @pytest.mark.parametrize("g,area,cls", [
        (3, "2pi", "undecided"),  # a whole turn: the identity, trace -2.0
        (1, repr(0.99999 * 2 * math.pi), "elliptic"),  # |trace| = 2 - 1e-9
        (1000, repr((1 - 1e-6) * 3998 * math.pi), "elliptic"),  # |trace| = 2 - 3.9e-5
    ])
    def test_commutator_class_is_decided_by_the_trace_bound(self, capsys, g, area, cls):
        """The relator is exactly a rotation: elliptic where |trace| < 2 - bound."""
        code, rep, _ = run_json(capsys, "holonomy", "--genus", str(g), "--area", area)
        assert code == 0 and rep["outputs"]["commutator_class"] == cls

    @pytest.mark.parametrize("g", [1, 2, 10000])
    def test_rho_of_a_tiny_area_keeps_its_digits(self, capsys, g):
        """At area 1e-300, b = -tanh(rho)*e^(-i*psi) of the closed-form pairings
        keeps its digits, and so does D = A/(2g): rho prints -A/(2*pi) with
        its sign, never 0.0 or -0.0."""
        code, out, _ = run(capsys, "holonomy", "--genus", str(g), "--area", "1e-300")
        rep = json.loads(out)["outputs"]
        assert code == 0 and rep["rho"] == float(f"{-1e-300 / (2 * math.pi):.12g}")
        assert "-0.0" not in out and rep["residual"] <= rep["error_bound"]


class TestPolygonCommand:
    def test_report(self, capsys):
        code, rep, _ = run_json(capsys, "polygon", "--genus", "2", "--area", "5pi")
        assert code == 0
        assert rep["outputs"]["pairing_residual_max"] <= 1e-9
        assert abs(rep["outputs"]["commutator_trace"]) <= 1e-5  # expected trace 0 at 5pi

    def test_float_limit_of_the_top_exits_2(self, capsys):
        area = repr((1 - 2.3e-16) * 38 * math.pi)
        code, out, err = run(capsys, "polygon", "--genus", "10", "--area", area)
        assert code == 2 and out == "" and "float limit" in err

    @pytest.mark.parametrize("g", [10, 20, 40])
    def test_every_accepted_area_below_the_top_gets_a_report(self, capsys, g):
        # the image of a vertex under its pairing rounds onto the unit circle
        # near the top; the residual is read off the vertex, so it stays finite
        area = (4 * g - 2) * math.pi
        reports = 0
        for _ in range(300):
            area = math.nextafter(area, 0.0)
            try:
                hyperbolic.radius_for_area(g, area)
            except hyperbolic.AreaOutOfRange:
                continue
            code, rep, _ = run_json(capsys, "polygon", "--genus", str(g), "--area", repr(area))
            assert code == 0 and math.isfinite(rep["outputs"]["pairing_residual_max"])
            reports += 1
        assert reports > 0

    def test_float_limit_of_the_bottom_exits_2(self, capsys):
        for cmd, g, area in (("polygon", 1, "5e-324"), ("holonomy", 10 ** 4, "1e-320")):
            code, out, err = run(capsys, cmd, "--genus", str(g), "--area", area)
            assert code == 2 and out == "" and "float limit" in err

    def test_near_top_of_area_range(self, capsys):
        # 5.7pi is 0.95 of the top 6pi, where the vertices approach the boundary
        code, rep, _ = run_json(capsys, "polygon", "--genus", "2", "--area", "5.7pi")
        assert code == 0
        out = rep["outputs"]
        assert out["pairing_residual_max"] <= 1e-7
        assert abs(abs(out["commutator_trace"]) - out["expected_abs_trace"]) <= 1e-6

    @pytest.mark.parametrize("g", [1, 2, 8])
    def test_the_area_measures_no_distance(self, capsys, monkeypatch, g):
        # one distance for the side length at every genus, none for the area,
        # which is read off the circumradius; the pairing residuals use
        # `image_distance`: 4 per report
        calls = []
        distance = hyperbolic.hdistance

        def counted(p, q):
            calls.append((p, q))
            return distance(p, q)

        monkeypatch.setattr(hyperbolic, "hdistance", counted)
        code, _, _ = run(capsys, "polygon", "--genus", str(g), "--area", f"{2 * g - 1}pi")
        assert code == 0 and len(calls) == 1
        calls.clear()
        hyperbolic.polygon_area(g, 1.5)
        assert calls == []

    @pytest.mark.parametrize("g", [1, 8, 10 ** 4])
    def test_measures_one_handle(self, capsys, monkeypatch, g):
        """O(1) work in g: five vertices, the first handle's two pairings,
        4 image distances and 1 distance per report, at every genus."""
        refuse_full_build(monkeypatch, vertices=5)
        calls = []
        for name in ("hdistance", "image_distance"):
            fn = getattr(hyperbolic, name)
            monkeypatch.setattr(hyperbolic, name,
                                lambda *args, _name=name, _fn=fn: calls.append(_name) or _fn(*args))
        for share in (1e-3, 0.5, 1 - 1e-6):
            area = share * (4 * g - 2)
            code, rep, _ = run_json(capsys, "polygon", "--genus", str(g), "--area", f"{area!r}pi")
            assert code == 0 and sorted(calls) == ["hdistance"] + ["image_distance"] * 4
            out = rep["outputs"]
            assert out["pairing_residual_max"] <= out["pairing_residual_bound"]
            calls.clear()

    #: the shares of the `geometry` benchmark's `polygon` requests at the top
    TOP_SHARES = (0.95, 0.99, 1 - 1e-3, 1 - 1e-4, 1 - 1e-5, 1 - 1e-6)

    @staticmethod
    def outputs(monkeypatch, g, area_text):
        """The unrounded outputs of one `polygon` report."""
        seen = []
        monkeypatch.setattr(cli, "_emit", lambda command, inputs, outputs, error=None:
                            seen.append(outputs) or 0)
        assert cli.main(["polygon", "--genus", str(g), "--area", area_text]) == 0
        return seen[0]

    @pytest.mark.parametrize("g", [*range(1, 9), 10 ** 4])
    def test_fields_match_the_full_build(self, monkeypatch, g):
        """Bit for bit against the report measured on all 4g vertices and 2g
        pairings, but for the residual, which the full build takes over every
        handle (at g = 1 handle 1 is the whole polygon, so it matches too),
        and the trace, which it takes from the 4g-letter product: the two
        traces agree within the report's bound plus the product's slack."""
        rng = random.Random(g)
        shares = ([(i + rng.random()) * 0.9 / 14 for i in range(14)] + list(self.TOP_SHARES)
                  if g <= 8 else [1e-3, 0.5, 1 - 1e-6])
        for share in shares:
            area_text = f"{share * (4 * g - 2)!r}pi"
            area = cli._parse_area(area_text)
            out = self.outputs(monkeypatch, g, area_text)
            ref = polygon_reference.polygon_outputs(g, area)
            residual, bound = out.pop("pairing_residual_max"), out.pop("pairing_residual_bound")
            full_residual = ref.pop("pairing_residual_max")
            trace, trace_bound = out.pop("commutator_trace"), out.pop("commutator_trace_bound")
            full_trace = ref.pop("commutator_trace")
            assert out == ref, (g, share)
            assert residual <= full_residual <= bound
            if g == 1:
                assert residual == full_residual
            poly = polygon_reference.build_symmetric_polygon(g, out["circumradius"])
            rel = holonomy_relator(polygon_reference.reference_pairings(poly))
            assert abs(trace - full_trace) <= trace_bound + trace_slack(fold(rel), rel)

    @pytest.mark.parametrize("g", [2, 10 ** 4])
    def test_trace_within_its_bound_near_the_top(self, capsys, g):
        """The relator's power read 0.7541806821933981 for |trace| at every share
        from 1 - 1e-5 at g = 10^4; the printed trace now keeps its printed bound
        of the exact 2|cos(((4g - 2)pi - A)/2)| up to the largest accepted area."""
        top = 4 * g - 2
        areas = [f"{(1 - 10.0 ** -k) * top!r}pi" for k in range(5, 13)]
        areas.append(repr(largest_accepted_area(g)))
        reports = 0
        for area_text in areas:
            try:
                hyperbolic.radius_for_area(g, cli._parse_area(area_text))
            except hyperbolic.AreaOutOfRange:
                continue
            code, rep, _ = run_json(capsys, "polygon", "--genus", str(g), "--area", area_text)
            out = rep["outputs"]
            assert code == 0 and (abs(abs(out["commutator_trace"]) - out["expected_abs_trace"])
                    <= out["commutator_trace_bound"]), area_text
            reports += 1
        assert reports == (9 if g == 2 else 8)

    def test_residual_near_the_top_within_its_bound(self, capsys):
        """At g = 2, share 1 - 1e-8, the residual passed 1e-7 (1.16e-7 once):
        it is not small there, but it lies within its derived bound, on every
        handle of the full build too."""
        area = (1 - 1e-8) * 6
        code, rep, _ = run_json(capsys, "polygon", "--genus", "2", "--area", f"{area!r}pi")
        out = rep["outputs"]
        assert code == 0 and out["pairing_residual_max"] <= out["pairing_residual_bound"]
        poly, pairings = polygon_reference.symmetric_pairings(2, area * math.pi)
        bound = hyperbolic.pairing_residual_bound(2, poly.circumradius)
        assert max(polygon_reference.pairing_residuals(poly, pairings)) <= bound

    def test_side_length_is_the_first_side(self, capsys):
        rng = random.Random(41)
        for g in (1, 2, 3, 8):
            for _ in range(10):
                share = rng.uniform(0.001, 0.999)
                area = share * (4 * g - 2)
                _, rep, _ = run_json(capsys, "polygon", "--genus", str(g), "--area", f"{area!r}pi")
                poly, _ = polygon_reference.symmetric_pairings(g, area * math.pi)
                first = hyperbolic.hdistance(poly.vertex(1), poly.vertex(2))
                assert rep["outputs"]["side_length"] == report_reference.round12(first)


class TestFormsCommand:
    def test_library_sweep_all_positive(self, capsys):
        code, rep, _ = run_json(capsys, "forms", "--library", "--grid", "24")
        assert code == 0
        lib = rep["outputs"]["library"]
        assert len(lib) >= 10
        for key, entry in lib.items():
            if entry["expected_sign"] is not None:
                assert entry["sign"] == "Positive", key

    def test_form_file(self, capsys, tmp_path):
        path = tmp_path / "zeta.form"
        path.write_text("chart r:[0.05,1.4] theta:[0,6.283185] z:[0,6.283185];\n"
                        "periodic theta z;\nexclude r<1e-3;\n"
                        "form (1-r^4)*dz + r^2*dtheta")
        code, rep, _ = run_json(capsys, "forms", "--form-file", str(path), "--grid", "24")
        assert code == 0
        assert rep["outputs"]["sign"] == "Positive"

    def test_bad_form_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.form"
        path.write_text("chart x:[-1,1] y:[-1,1] z:[-1,1];\nform dz - w*dx")
        code, rep, _ = run_json(capsys, "forms", "--form-file", str(path))
        assert code == 1
        assert rep["error"]["type"] == "UnknownVariableError"

    def test_division_by_symbolic_zero_exits_1(self, capsys, tmp_path):
        path = tmp_path / "zero.form"
        path.write_text("chart x:[-1,1] y:[-1,1] z:[-1,1];\nform 1/(x-x)*dy + dz")
        code, rep, _ = run_json(capsys, "forms", "--form-file", str(path), "--grid", "8")
        assert code == 1
        assert rep["error"] == {"type": "ZeroDivisionError", "message": "division by symbolic zero"}

    def test_huge_exponent_exits_1_quickly(self, capsys, tmp_path):
        path = tmp_path / "power.form"
        path.write_text("chart x:[-1,1] y:[-1,1] z:[-1,1];\nform x^99999999*dy + dz")
        t0 = time.perf_counter()
        code, rep, _ = run_json(capsys, "forms", "--form-file", str(path), "--grid", "8")
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert rep["error"]["type"] == "FormSyntaxError"
        assert "exponent" in rep["error"]["message"]

    def test_missing_file_exits_1(self, capsys):
        code, rep, err = run_json(capsys, "forms", "--form-file", "/nonexistent.form")
        assert code == 1
        assert rep["error"]["type"] == "FileNotFoundError"
        assert "/nonexistent.form" in rep["error"]["message"]

    def test_unreadable_files_exit_1(self, capsys, tmp_path):
        binary = tmp_path / "binary.form"
        binary.write_bytes(b"\xff\xfe")
        for path, kind in ((tmp_path, "IsADirectoryError"), (binary, "UnicodeDecodeError")):
            code, rep, _ = run_json(capsys, "forms", "--form-file", str(path))
            assert code == 1 and rep["error"]["type"] == kind

    def test_neither_file_nor_library_exits_2(self, capsys):
        code, out, err = run(capsys, "forms", "--grid", "8")
        assert code == 2 and out == ""
        assert err == "error: provide --form-file or --library\n"

    @pytest.mark.parametrize("grid", ["0", "-1", "257", "2000"])
    def test_grid_outside_domain_exits_2(self, capsys, tmp_path, grid):
        path = tmp_path / "std.form"
        path.write_text("chart x:[-1,1] y:[-1,1] z:[-1,1];\nform dz - y*dx")
        for mode in (["--library"], ["--form-file", str(path)]):
            code, out, err = run(capsys, "forms", *mode, "--grid", grid)
            assert code == 2 and out == "" and "grid" in err

    def test_non_finite_coefficient_exits_1(self, capsys, tmp_path):
        path = tmp_path / "overflow.form"
        path.write_text("chart x:[-1,1] y:[-1,1] z:[-1,1];\nform dz - exp(exp(exp(3*x)))*y*dx")
        code, rep, _ = run_json(capsys, "forms", "--form-file", str(path), "--grid", "8")
        assert code == 1 and rep["outputs"] == {}
        assert rep["error"] == {
            "type": "ArithmeticError",
            "message": "alpha ^ d(alpha) is inf at the grid point (0.7142857142857142, -1.0, "
                       "-1.0), which no exclusion removes"}


class TestMulticurveCommand:
    def test_unreadable_files_exit_1(self, capsys, tmp_path):
        dec = tmp_path / "a.dec"
        dec.write_text(mc.format_decomposition(mc.SurfaceDecomposition(
            ((0, 2), (0, 2)), (((0, 0), (1, 0)), ((0, 1), (1, 1))), 0, False)))
        for argv in (["--file", str(tmp_path)], ["--file", str(tmp_path / "missing.dec")],
                     ["--file", str(dec), "--compare", str(tmp_path)],
                     ["--file", str(tmp_path / "missing.dec"), "--compare", str(dec)]):
            code, rep, _ = run_json(capsys, "multicurve", *argv)
            assert code == 1
            assert rep["error"]["type"] in ("IsADirectoryError", "FileNotFoundError")
            # every error report echoes the files it was given, --compare too
            assert rep["inputs"] == dict(zip(("file", "compare"), argv[1::2]))

    def test_compare_identical(self, capsys, tmp_path):
        dec = mc.SurfaceDecomposition(((0, 2), (0, 2)),
                                      (((0, 0), (1, 0)), ((0, 1), (1, 1))), 0, False)
        a = tmp_path / "a.dec"
        b = tmp_path / "b.dec"
        a.write_text(mc.format_decomposition(dec))
        b.write_text(mc.format_decomposition(dec))
        code, rep, _ = run_json(capsys, "multicurve", "--file", str(a),
                                "--compare", str(b))
        assert code == 0
        assert rep["outputs"]["isotopy_equal"] is True
        assert rep["outputs"]["universal_tightness"] == "UniversallyTight"

    @pytest.mark.parametrize("name", ["regular12", "complete8"])
    def test_compare_committed_relabelled_pairs(self, capsys, name):
        # 12 pieces are beyond the old 8-piece guard; the 8 pieces of the
        # complete multigraph are pairwise twins
        data = Path(__file__).parent / "data"
        code, rep, _ = run_json(capsys, "multicurve", "--file", str(data / f"{name}_a.dec"),
                                "--compare", str(data / f"{name}_b.dec"))
        assert code == 0
        assert rep["outputs"]["isotopy_equal"] is True

    @pytest.mark.parametrize("name", ["regular12", "complete8"])
    def test_each_decomposition_is_validated_once(self, capsys, monkeypatch, name):
        # validate, then is_essential, universal_tightness,
        # convex_neighborhood_tight and isotopy_equal all need the verdict
        data = Path(__file__).parent / "data"
        checked = []
        check = mc._check
        monkeypatch.setattr(mc, "_check", lambda dec: checked.append(dec) or check(dec))
        code, rep, _ = run_json(capsys, "multicurve", "--file", str(data / f"{name}_a.dec"),
                                "--compare", str(data / f"{name}_b.dec"))
        assert code == 0 and rep["outputs"]["valid"] is True
        assert len(checked) == 2 and checked[0] is not checked[1]

    def test_kept_verdict_keeps_the_error_contract(self):
        bad = mc.SurfaceDecomposition(((0, 1),), (), -2, False)
        ok, diags = mc.validate(bad)
        diags.append("changed by the caller")
        assert mc.validate(bad) == (False, diags[:-1])
        for check in (mc.is_essential, mc.convex_neighborhood_tight,
                      lambda d: mc.universal_tightness(d, 1), lambda d: mc.isotopy_equal(d, d)):
            with pytest.raises(mc.InvalidDecomposition, match="euler mismatch"):
                check(bad)

    def test_invalid_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.dec"
        path.write_text("surface chi=-2 sphere=false\npiece P genus=0 boundaries=1\n")
        code, rep, _ = run_json(capsys, "multicurve", "--file", str(path))
        assert code == 1
        assert rep["error"]["type"] == "InvalidDecomposition"

    @pytest.mark.parametrize("header,piece", [
        ("surface sphere=false", "piece P genus=1 boundaries=0"),
        ("surface chi=0 sphere=false", "piece P genus=x boundaries=0"),
        ("surface chi=0 sphere=false", "piece P genus boundaries=0"),
        ("surface chi=0 sphere=false", "piece P genus=1 boundaries=0\npiece P genus=1 boundaries=0"),
    ])
    def test_malformed_file_exits_1_with_error(self, capsys, tmp_path, header, piece):
        path = tmp_path / "bad.dec"
        path.write_text(f"{header}\n{piece}\n")
        code, rep, _ = run_json(capsys, "multicurve", "--file", str(path))
        assert code == 1
        assert rep["error"]["type"] == "InvalidDecomposition"
        assert rep["error"]["message"].startswith("line ")


class TestCoversCommand:
    def test_orbit_report(self, capsys):
        code, rep, _ = run_json(capsys, "covers", "--genus", "2", "--n", "6")
        assert code == 0
        assert rep["outputs"]["orbit_count"] == 4
        assert rep["outputs"]["agree"] is True

    def test_beyond_old_guard(self, capsys):
        code, rep, _ = run_json(capsys, "covers", "--genus", "3", "--n", "6")
        assert code == 0
        assert rep["outputs"]["orbit_count"] == 4
        assert rep["outputs"]["agree"] is True

    def test_scale_guard_exits_2(self, capsys):
        # the first n with n^{2g} above the 2^16 vectors of the memory bound
        code, out, err = run(capsys, "covers", "--genus", "3", "--n", "7")
        assert code == 2 and out == ""
        assert "refused above 65536" in err

    @pytest.mark.parametrize("argv", [("--genus", "0", "--n", "2"),
                                      ("--genus", "-1", "--n", "2"),
                                      ("--genus", "2", "--n", "0"),
                                      ("--genus", "1000000000", "--n", "2")])
    def test_outside_domain_exits_2(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, "covers", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: ")


class TestReportShape:
    def test_valid_json_and_fields(self, capsys):
        code, out, err = run(capsys, "classify", "--chi-s", "0", "--euler", "0")
        rep = json.loads(out)
        for field in ("command", "inputs", "outputs", "version", "deterministic"):
            assert field in rep
        assert rep["outputs"]["enrollment_spectrum"] == "all n >= 1"

    def test_float_formatting(self, capsys):
        _, rep, _ = run_json(capsys, "holonomy", "--genus", "1", "--area", "1.0",
                             "--iters", "100")
        # 12 significant digits: repr round-trips through %.12g
        a = rep["outputs"]["area"]
        assert a == float(f"{a:.12g}")

    def test_rational_rendering(self, capsys):
        _, rep, _ = run_json(capsys, "classify", "--chi-s", "-2", "--euler", "1")
        assert rep["outputs"]["boundary_slope"]["mu"] == "-1/2"


def written(obj) -> str:
    out = []
    cli._put(obj, out, "\n")
    return "".join(out)


#: floats at the edges of the writer: signed zeros, the non-finite values,
#: subnormals, and values whose 12-digit rounding changes their `repr` form
EDGE_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-320,
               2.2250738585072014e-308, 1.7976931348623157e308, 9.9999999999999e-05,
               -9.99999999999995e-05, 9999999999999998.0, 999999999999.9999, 0.1 + 0.2,
               1e16, 1e-4, 123456789012.5, 1234567890123.0, -5.5e13, 1e100, 3.0, -7.0]
LEAVES = (st.text() | st.integers() | st.integers(-10 ** 40, 10 ** 40)
          | st.floats(allow_subnormal=True) | st.sampled_from(EDGE_FLOATS)
          | st.fractions() | st.booleans() | st.none())
REPORTS = st.recursive(LEAVES, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)), max_leaves=30)


class TestReportWriter:
    """`cli._put` rounds and encodes in one walk; `report_reference` rounds,
    then `json.dumps` encodes."""

    @settings(max_examples=400, deadline=None)
    @given(REPORTS)
    @example({"a": {}, "b": [], "c": (), "d": [{}, [], ()]})
    @example({"\u00e9\u2603\U0001f600": ["\"quoted\"", "back\\slash", "\x00\x1f\t\n\x7f"]})
    @example([Fraction(-1, 2), Fraction(3), True, False, None, -10 ** 30, 0])
    @example(EDGE_FLOATS)
    @example({"z": 1, "a": {"y": 2.5, "b": np.float64(1 / 3)}})
    @example([enum.IntEnum("Level", "LOW HIGH").HIGH, type("Name", (str,), {})("k\u00e9y"),
              {type("Key", (str,), {})("b"): Fraction(7, 2)}])  # subclasses: their base's writer
    def test_matches_the_two_pass_reference(self, obj):
        assert written(obj) == report_reference.encode(obj)

    @pytest.mark.parametrize("value", [np.int64(3), np.float32(1.5), np.bool_(True),
                                       {1, 2}, frozenset(), complex(1, 2), b"bytes"])
    def test_a_type_json_cannot_write_raises_type_error(self, value):
        for obj in (value, {"outputs": [1, {"x": value}]}):
            with pytest.raises(TypeError):
                written(obj)
            with pytest.raises(TypeError):
                report_reference.encode(obj)

    def test_a_key_that_is_no_str_raises_type_error(self):
        # every key of a report is a str; json would write this one as "1"
        with pytest.raises(TypeError):
            written({1: "one"})

    def test_a_report_is_one_write(self, monkeypatch):
        writes = []
        monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": writes.append})())
        assert cli.main(["covers", "--genus", "2", "--n", "6"]) == 0
        assert len(writes) == 1 and writes[0].endswith("}\n")


#: the golden reports and the argv that prints each, as the CI workflow runs
#: them from the repository root
GOLDEN = [
    ("library_grid16.json", "forms --library --grid 16"),
    ("torus_pullback_grid24.json", "forms --form-file tests/data/torus_pullback.form --grid 24"),
    ("torus_pullback_grid64.json", "forms --form-file tests/data/torus_pullback.form --grid 64"),
    ("quotient_by_sum_grid24.json", "forms --form-file tests/data/quotient_by_sum.form --grid 24"),
    ("connection_grid24.json", "forms --form-file tests/data/connection.form --grid 24"),
    ("mixed_all_axes_grid24.json", "forms --form-file tests/data/mixed_all_axes.form --grid 24"),
    ("flat_dx_grid5.json", "forms --form-file tests/data/flat_dx.form --grid 5"),
    ("signs_and_quotients_grid24.json",
     "forms --form-file tests/data/signs_and_quotients.form --grid 24"),
    ("holonomy_g8_29.997pi.json", "holonomy --genus 8 --area 29.997pi --iters 10000"),
    ("polygon_g8_29.997pi.json", "polygon --genus 8 --area 29.997pi"),
    ("holonomy_g10000_19999pi.json", "holonomy --genus 10000 --area 19999pi --iters 100000"),
    ("holonomy_g10000_39978.8pi.json", "holonomy --genus 10000 --area 39978.8pi --iters 100000"),
]


@pytest.mark.parametrize("name,argv", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_golden_report_is_byte_identical(capsys, monkeypatch, name, argv):
    monkeypatch.chdir(DATA.parents[1])
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / name).read_bytes()


class TestArgumentDomains:
    def test_bad_genus_exits_2(self, capsys):
        code, out, err = run(capsys, "holonomy", "--genus", "0", "--area", "1.0")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_bad_iters_exits_2(self, capsys, iters):
        code, out, err = run(capsys, "holonomy", "--genus", "1", "--area", "1.0",
                             "--iters", iters)
        assert code == 2 and out == "" and err == "error: iterations must be >= 1\n"

    def test_unparseable_area_exits_2(self, capsys):
        code, out, err = run(capsys, "holonomy", "--genus", "1", "--area", "2tau")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("command", ["holonomy", "polygon"])
    @pytest.mark.parametrize("signed,plain", [("+pi", "pi"), ("+pi/2", "pi/2"), (" + pi ", "pi")])
    def test_signed_pi_area_reads_as_its_multiple(self, capsys, command, signed, plain):
        code, rep, err = run_json(capsys, command, "--genus", "2", f"--area={signed}")
        _, plain_rep, _ = run_json(capsys, command, "--genus", "2", "--area", plain)
        assert (code, err) == (0, "")
        assert rep["outputs"] == plain_rep["outputs"]

    @pytest.mark.parametrize("command", ["holonomy", "polygon"])
    @pytest.mark.parametrize("area", ["-pi", "-pi/2", " - pi"])
    def test_negative_pi_area_reaches_the_domain_check(self, capsys, command, area):
        code, out, err = run(capsys, command, "--genus", "2", f"--area={area}")
        assert code == 2 and out == ""
        assert "area must lie strictly between 0" in err

    @pytest.mark.parametrize("command", ["holonomy", "polygon"])
    @pytest.mark.parametrize("area", ["pi/0", "0pi/0", "pi/-0"])
    def test_zero_denominator_area_exits_2(self, capsys, command, area):
        code, out, err = run(capsys, command, "--genus", "2", "--area", area)
        assert code == 2 and out == ""
        assert "cannot parse area" in err

    @pytest.mark.parametrize("argv", [("--genus=--", "--area=1pi"), ("--genus=2", "--area=--")])
    def test_double_dash_value_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "polygon", *argv)
        assert code == 2 and out == ""
        assert err.endswith(": expected one argument\n")

    @pytest.mark.parametrize("command", ["holonomy", "polygon"])
    def test_genus_domain_boundary(self, capsys, monkeypatch, command):
        monkeypatch.setattr(hyperbolic, "MAX_GENUS", 3)
        code, rep, _ = run_json(capsys, command, "--genus", "3", "--area", "1pi")
        assert code == 0 and rep["outputs"]["genus"] == 3
        code, out, err = run(capsys, command, "--genus", "4", "--area", "1pi")
        assert code == 2 and out == ""
        assert err == ("error: genus must be <= 3: the polygon's rounding bounds are tested "
                       "only up to there\n")

    @pytest.mark.parametrize("command", ["holonomy", "polygon"])
    @pytest.mark.parametrize("genus", [hyperbolic.MAX_GENUS + 1, 10 ** 20])
    def test_genus_above_the_domain_exits_2_quickly(self, capsys, command, genus):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--genus", str(genus), "--area", "1pi")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: genus must be <= ")

    def test_divisor_count_above_its_bound_exits_2_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", "--chi-s", str(-10 ** 20), "--euler", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "refused above n = 1000000000000" in err


def in_process(argv):
    """(stdout, stderr, exit code) of one in-process `cli.main` call, argparse's
    own usage errors (SystemExit) included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    return out.getvalue(), err.getvalue(), code


def child_env():
    return dict(os.environ, COLUMNS="80", PYTHONPATH=SRC)


def fresh_process(argv):
    """(stdout, stderr, exit code) of `python -m contactbundles.cli argv`."""
    proc = subprocess.run([sys.executable, "-m", "contactbundles.cli", *argv],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    return proc.stdout, proc.stderr, proc.returncode


#: argv that argparse answers with its own help or usage error, or that
#: exercise how it reads an option; `main` reads plain "--opt value" tokens
#: from the command's subparser's actions and any others with argparse, and
#: must answer each as the full parse does
USAGE_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "polygon"],
    ["--version"],
    ["bogus", "--genus", "2"],
    ["poly", "--genus", "2", "--area", "3pi"],  # a command's abbreviation
    ["--", "polygon", "--genus", "2", "--area", "3pi"],
    ["polygon", "--", "--genus", "2", "--area", "3pi"],
    ["polygon", "--genus", "2", "--", "--area", "3pi"],
    ["polygon", "--genus", "2", "--area", "3pi", "--"],
    ["classify", "--chi-s", "-2", "--euler", "1", "--", "extra"],
    ["polygon", "-h"],
    ["polygon", "--genus", "2", "--area", "3pi", "--help"],
    ["polygon", "--he"],
    ["polygon", "-h", "--bogus"],
    ["polygon", "--gen", "2", "--ar", "3pi"],
    ["polygon", "--genus=2", "--area=3pi"],
    ["classify", "--chi-s=-2", "--euler=-1"],
    ["classify", "--chi", "-2", "--euler", "1"],
    ["polygon", "--genus", "2", "--area", "3pi", "--bogus"],
    ["polygon", "--genus", "2", "--area", "3pi", "extra"],
    ["polygon", "--bogus", "x", "--genus", "2", "--area", "3pi", "extra"],
    ["covers", "--genus", "2", "--n", "6", "-x"],
    ["polygon", "--genus", "two", "--area", "3pi"],
    ["polygon", "--genus", "2"],
    ["polygon"],
    ["multicurve", "--file"],
    ["polygon", "--genus", "2", "--area", "-pi"],
    ["polygon", "--genus=2", "--area=--"],
    ["forms", "--lib", "--grid=--"],
    ["holonomy", "--genus", "2", "--area", "4pi", "--iters", "10", "--iters", "0"],
    ["polygon", "--area", "3pi", "--genus", "2", "polygon"],
    ["classify", "--chi-s", "-2", "--euler", "1"],
    ["classify", "--chi-s", "-10", "--euler", "-3"],
    ["forms", "--library=1"],
]


@pytest.mark.parametrize("argv", USAGE_ARGV, ids=" ".join)
def test_usage_is_the_full_parse(monkeypatch, argv):
    """(stdout, stderr, exit code) of `main` equal those of the same call with
    every argv read by the top-level parser alone."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to it
    got = in_process(argv)
    parser, _ = cli.build_parser()
    monkeypatch.setattr(cli, "_parser", lambda: (parser, {}))
    assert got == in_process(argv)


#: the top-level parser the differential test reads every argv with, and its subparsers
FULL_PARSER, SUBPARSERS = cli.build_parser()
#: values of the differential test: signs, negative numbers argparse reads
#: as values, what no type converts, "--", and cheap input files
VALUES = ["2", "-2", "-1.5", "-pi", "3pi", "", "--", "x", " 2", "1_0",
          str(DATA / "flat_dx.form"), str(DATA / "regular12_a.dec"), str(DATA / "missing.dec")]


@st.composite
def drawn_argv(draw):
    """A command's name and up to 5 tokens: most of the command's required
    options and some of the others in a drawn order, each as "--opt value"
    (a flag alone) or as "--opt=value", where up to two tokens are replaced
    or preceded by one of the command's options, a prefix of one, a join, a
    value, or a token argparse refuses or answers with help."""
    name = draw(st.sampled_from(sorted(SUBPARSERS)))
    actions = SUBPARSERS[name]._option_string_actions
    options = sorted(o for o, a in actions.items() if a.dest != "help")
    option, value = st.sampled_from(options), st.sampled_from(VALUES)
    odd = st.one_of(
        option, value,
        st.tuples(option, st.integers(2, 6)).map(lambda ok: ok[0][:ok[1]]),
        st.tuples(option, value).map("=".join),
        st.sampled_from(["-h", "--help", "--", "--bogus", "extra"]))
    # half the values written are ints, which most options read
    paired = st.one_of(st.sampled_from(["2", "-2", " 2", "1_0"]), value)
    tokens = []
    for o in draw(st.permutations(options)):
        # a required option is kept three times in four, any other one time in two
        if draw(st.booleans()) or actions[o].required and draw(st.booleans()):
            v = draw(paired)
            tokens += ([f"{o}={v}"] if draw(st.booleans()) else
                       [o] if actions[o].nargs == 0 else [o, v])
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(tokens)))
        tokens[i:i + draw(st.integers(0, 1))] = [draw(odd)]
    return [name, *tokens[:5]]


@settings(max_examples=400, deadline=None)
@given(drawn_argv())
@example(["polygon", "--genus", "2", "--area", "3pi"])
@example(["forms", "--library", "--grid", "2"])
@example(["multicurve", "--euler=-2", "--file", str(DATA / "regular12_a.dec")])
@example(["covers", "--n", "-2", "--genus", " 2"])
def test_drawn_argv_is_the_full_parse(argv):
    """`main` on drawn argv, plain "--opt value" or not, answers as the same
    call with every argv read by the top-level parser alone."""
    got = in_process(argv)
    with mock.patch.object(cli, "_parser", lambda: (FULL_PARSER, {})):
        assert got == in_process(argv)


@pytest.mark.parametrize("argv", [
    ["classify", "--chi-s", "-10", "--euler=-3"],
    ["polygon", "--area", "3pi", "--genus=2"],
    ["forms", "--library", "--grid", "4"],
    ["multicurve", "--file", str(DATA / "missing.dec")],
])
def test_plain_argv_is_read_without_argparse(argv):
    expected = in_process(argv)
    with mock.patch.object(argparse.ArgumentParser, "parse_known_args",
                           side_effect=AssertionError("argparse read a plain argv")):
        assert in_process(argv) == expected


def test_main_reads_sys_argv_without_an_argument(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["contactbundles", "covers", "--genus", "2", "--n", "6"])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["orbit_count"] == 4


class TestOneParserPerProcess:
    """`main` builds its parser once per process and looks up the handler
    when the call runs."""

    def test_same_bytes_in_process_as_in_fresh_processes(self, monkeypatch, tmp_path):
        # argparse wraps its usage text to $COLUMNS; fix it on both sides
        monkeypatch.setenv("COLUMNS", "80")
        periodic = tmp_path / "periodic.form"
        periodic.write_text("chart x:[-1,1] y:[-1,1] theta:[0,6.283185307179586]; "
                            "periodic thta; form dtheta - y*dx")
        overflow = tmp_path / "overflow.form"
        overflow.write_text("chart x:[-1,1] y:[-1,1] z:[-1,1]; "
                            "form dz - exp(exp(exp(3*x)))*y*dx")
        calls = [
            ["polygon", "--genus", "2", "--area", "3pi"],
            ["classify", "--chi-s", "-2", "--euler", "1"],
            ["holonomy", "--genus", "2", "--area", "4pi", "--iters", "2000"],
            ["forms", "--form-file", str(DATA / "flat_dx.form"), "--grid", "8"],
            ["multicurve", "--file", str(DATA / "regular12_a.dec"),
             "--compare", str(DATA / "regular12_b.dec")],
            ["covers", "--genus", "2", "--n", "6"],
            ["polygon", "--genus", "2"],  # a required option is missing
            ["forms", "--library", "--grid=--"],
            ["bogus", "--genus", "2"],  # an unknown subcommand
            ["holonomy", "--genus", "0", "--area", "1pi"],
            ["polygon", "--genus", "2", "--area", "7pi"],  # above the top 6pi
            ["forms", "--form-file", str(tmp_path / "missing.form")],
            ["forms", "--form-file", str(periodic), "--grid", "4"],
            ["forms", "--form-file", str(overflow), "--grid", "8"],
            ["polygon", "--genus", "3", "--area", "5pi"],
        ]
        for argv in calls:
            assert in_process(argv) == fresh_process(argv), argv
        assert cli._parser.cache_info().misses == 1

    def test_handler_is_looked_up_when_the_call_runs(self, monkeypatch):
        assert in_process(["polygon", "--genus", "2", "--area", "3pi"])[2] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_polygon", lambda args: seen.append(args.genus) or 7)
        assert in_process(["polygon", "--genus", "2", "--area", "3pi"])[2] == 7
        assert seen == [2]

    def test_numpy_stays_unloaded_outside_forms(self):
        script = f"""
import sys
import contactbundles.cli as cli
for argv in (["polygon", "--genus", "2", "--area", "3pi"],
             ["holonomy", "--genus", "2", "--area", "4pi", "--iters", "100"],
             ["classify", "--chi-s", "-2", "--euler", "1"],
             ["multicurve", "--file", {str(DATA / "regular12_a.dec")!r}]):
    assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy was loaded"
import contactbundles
contactbundles.formcalc.contact_sign
"""
        for code in (script, "from contactbundles import formcalc; formcalc.parse_form"):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=child_env(), timeout=60)
            assert proc.returncode == 0, proc.stderr
