import json
import math
import time
from pathlib import Path

import pytest

from contactbundles import cli, hyperbolic
from contactbundles import multicurve as mc


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


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
        code, out, err = run(capsys, "classify", "--chi-s", "-1", "--euler", "0")
        assert code == 2 and out == ""


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

    def test_near_top_of_area_range(self, capsys):
        # 5.7pi is 0.95 of the top 6pi, where the vertices approach the boundary
        code, rep, _ = run_json(capsys, "polygon", "--genus", "2", "--area", "5.7pi")
        assert code == 0
        out = rep["outputs"]
        assert out["pairing_residual_max"] <= 1e-7
        assert abs(abs(out["commutator_trace"]) - out["expected_abs_trace"]) <= 1e-6


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

    @pytest.mark.parametrize("grid", ["0", "-1", "257", "2000"])
    def test_grid_outside_domain_exits_2(self, capsys, tmp_path, grid):
        path = tmp_path / "std.form"
        path.write_text("chart x:[-1,1] y:[-1,1] z:[-1,1];\nform dz - y*dx")
        for mode in (["--library"], ["--form-file", str(path)]):
            code, out, err = run(capsys, "forms", *mode, "--grid", grid)
            assert code == 2 and out == "" and "grid" in err


class TestMulticurveCommand:
    def test_unreadable_files_exit_1(self, capsys, tmp_path):
        dec = tmp_path / "a.dec"
        dec.write_text(mc.format_decomposition(mc.SurfaceDecomposition(
            ((0, 2), (0, 2)), (((0, 0), (1, 0)), ((0, 1), (1, 1))), 0, False)))
        for argv in (["--file", str(tmp_path)], ["--file", str(tmp_path / "missing.dec")],
                     ["--file", str(dec), "--compare", str(tmp_path)]):
            code, rep, _ = run_json(capsys, "multicurve", *argv)
            assert code == 1
            assert rep["error"]["type"] in ("IsADirectoryError", "FileNotFoundError")
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


class TestArgumentDomains:
    def test_bad_genus_exits_2(self, capsys):
        code, out, err = run(capsys, "holonomy", "--genus", "0", "--area", "1.0")
        assert code == 2 and out == ""

    def test_bad_iters_exits_2(self, capsys):
        code, out, err = run(capsys, "holonomy", "--genus", "1", "--area", "1.0",
                             "--iters", "0")
        assert code == 2 and out == ""

    def test_unparseable_area_exits_2(self, capsys):
        code, out, err = run(capsys, "holonomy", "--genus", "1", "--area", "2tau")
        assert code == 2 and out == ""

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
        assert err == "error: genus must be <= 3: the polygon is built in time linear in g\n"

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
