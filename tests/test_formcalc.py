import functools
import gc
import itertools
import math
import operator
import pickle
import random
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contactbundles import formcalc as fc
from contactbundles.formcalc import forms, models
from contactbundles.formcalc.expr import MAX_EXPONENT, compile_expr, variables
from contactbundles.formcalc.models import (fiber_tube_pullback, torus_wrapping_embedding,
                                            torus_wrapping_pullback)
from expr_reference import (REDUCED_COEFFS, Add, Cos, Exp, Mul, Pi, Pow, Rat, Sin, Var, div,
                            eval_expr, neg, rebuild, ring)
from models_reference import _block_rotation_components, scaling_flow_components

XYZ = fc.Chart(("x", "y", "z"), ((-2.0, 2.0),) * 3)


def coeff_values(form, env):
    return [eval_expr(c, env) for c in form.coefficients]


def columns(chart, points):
    """The coordinate columns, in chart order, of `points` (dicts by name)."""
    return [np.array([p[n] for p in points]) for n in chart.names]


# (text, exception, message, offset) for rejected forms and (text, None,
# printed form, None) for accepted ones, over the chart XYZ
PINNED_PARSES = [
    ("dz + -y*dx", fc.FormSyntaxError, "empty term", 5),
    ("dx + + dy", fc.FormSyntaxError, "empty term", 5),
    ("- -dz", fc.FormSyntaxError, "empty term", 2),
    ("dz-", fc.FormSyntaxError, "empty term", 3),
    ("dz + y", fc.FormSyntaxError, "no differential", 5),
    ("dz + y*dx*2", fc.FormSyntaxError, "must end its term", 7),
    ("dx dy", fc.FormSyntaxError, "must end its term", 0),
    ("(dz)", fc.FormSyntaxError, "must end its term", 1),
    ("dz + (y*dx)", fc.FormSyntaxError, "must end its term", 8),
    ("y dx", fc.FormSyntaxError, "joined to the differential by '*'", 2),
    ("dz +* y*dx", fc.FormSyntaxError, "unexpected token", 4),
    ("dz + w*dx", fc.UnknownVariableError, "unknown variable 'w'", 5),
    ("", fc.FormSyntaxError, "empty form", 0),
    ("-dz", None, "(-1)*dz", None),
    ("2*(x+1)*dx - 3*dy", None, "(2 + 2*x)*dx + (-3)*dy", None),
    ("dz + y*dx + x*dx", None, "(x + y)*dx + dz", None),
]


@pytest.mark.parametrize("text, exc, message, offset", PINNED_PARSES)
def test_pinned_parse_results(text, exc, message, offset):
    if exc is None:
        assert fc.parse_form(text, XYZ).text() == message
        return
    with pytest.raises(fc.FormSyntaxError) as info:
        fc.parse_form(text, XYZ)
    assert type(info.value) is exc
    assert message in str(info.value)
    assert info.value.position == offset


XY = ("x", "y")


@pytest.mark.parametrize("call, message", [
    (lambda: variables(1.0), "not an expression: 1.0"),
    (lambda: compile_expr(fc.parse_expr("x + y", XY), ("x",)), "not an expression over"),
    (lambda: compile_expr(fc.parse_expr("x", XY), XY)(1.0), "kernel takes 2 arguments, got 1"),
], ids=["not-an-expr", "missing-name", "argument-count"])
def test_expr_refuses_what_is_not_its_input(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def _over_xyz(*texts):
    return tuple(fc.parse_expr(t, XYZ.names) for t in texts)


@pytest.mark.parametrize("call, message", [
    (lambda: fc.Chart(XY, ((-1.0, 1.0),) * 2), "charts have 3 or 4 coordinates"),
    (lambda: fc.Chart(XYZ.names, ((-1.0, 1.0),) * 2), "one range per coordinate"),
    (lambda: fc.Chart(XYZ.names, XYZ.ranges, (True, False)), "one periodic flag per coordinate"),
    (lambda: fc.Chart(XYZ.names, ((-1.0, 1.0), (-1.0, 1.0), (1.0, 1.0))),
     "ranges must be nonempty"),
    (lambda: fc.Chart(XYZ.names, XYZ.ranges, (), ((fc.parse_expr("x", XY), 0.0),)),
     "exclusion eps must be positive"),
    (lambda: fc.OneForm(XYZ, _over_xyz("0", "1")), "one coefficient per coordinate"),
    (lambda: fc.OneForm(XYZ, (fc.parse_expr("w", ("w",)),) + _over_xyz("0", "1")),
     "unknown variable 'w'"),
    (lambda: fc.parse_form_file("chart x:[-1,1] y:[-1,1] z:[-1,1]"), "missing form statement"),
    (lambda: fc.parse_form_file("form dz"), "no chart statement"),
    (lambda: fc.pullback(_over_xyz("x", "y") + (fc.parse_expr("w", ("w",)),), XYZ,
                         fc.parse_form("dz", XYZ)), "unknown variable 'w'"),
    (lambda: fc.characteristic_slope_on_torus(fc.hopf_plane_field_form(), 0.5),
     "torus slopes require a 3-dimensional chart"),
    (lambda: fc.r_of_slope(1, 0), "q must be positive"),
    (lambda: fc.r_of_slope(2, 4), "p/q must be in lowest terms"),
], ids=["two-coordinates", "range-too-few", "flag-too-few", "empty-range", "eps-zero",
        "coefficient-too-few", "form-unknown-variable", "no-form", "no-chart",
        "pullback-unknown-variable", "slope-on-4-chart", "q-zero", "not-lowest-terms"])
def test_forms_refuses_malformed_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_star_import_resolves_every_exported_name():
    # a name left in __all__ after its removal fails the import here
    namespace = {}
    exec("from contactbundles.formcalc import *", namespace)
    assert all(namespace[name] is getattr(fc, name) for name in fc.__all__)


class TestParser:
    def test_standard_form(self):
        f = fc.parse_form("dz - y*dx", XYZ)
        env = {"x": 0.3, "y": -1.2, "z": 0.7}
        assert coeff_values(f, env) == pytest.approx([1.2, 0.0, 1.0])

    def test_parameter_binding(self):
        chart = fc.Chart(("x", "y", "t"), ((-1, 1), (-1, 1), (0, 1)),
                         (False, False, True))
        f = fc.parse_form("cos(2*n*pi*t)*dx - sin(2*n*pi*t)*dy", chart, {"n": 2})
        env = {"x": 0.0, "y": 0.0, "t": 0.125}
        vals = coeff_values(f, env)
        assert vals[0] == pytest.approx(math.cos(math.pi / 2))
        assert vals[1] == pytest.approx(-math.sin(math.pi / 2))

    def test_double_plus_position(self):
        with pytest.raises(fc.FormSyntaxError) as exc:
            fc.parse_form("dx + + dy", XYZ)
        assert exc.value.position == 5

    def test_unknown_variable(self):
        with pytest.raises(fc.UnknownVariableError):
            fc.parse_form("dz - w*dx", XYZ)

    def test_missing_differential(self):
        with pytest.raises(fc.FormSyntaxError):
            fc.parse_form("dz + y", XYZ)

    def test_rational_literals_exact(self):
        e = fc.parse_expr("3/8 + 1e-3", ["x"])
        v = Fraction(3, 8) + Fraction(1, 1000)
        assert (e.nums, e.den) == ({(): v.numerator}, v.denominator)

    def test_print_reparse_round_trip(self):
        texts = ["dz - y*dx", "(1-r^4)*dz + r^2*dtheta", "dz + x*dy - y*dx"]
        charts = [XYZ,
                  fc.Chart(("r", "theta", "z"), ((0.1, 1.4), (0, 6.3), (0, 6.3)),
                           (False, True, True)),
                  XYZ]
        for text, chart in zip(texts, charts):
            f = fc.parse_form(text, chart)
            again = fc.parse_form(f.text(), chart)
            assert f.coefficients == again.coefficients

    def test_signed_factor_inside_a_term(self):
        # the coefficient is a product of the expression grammar, unary signs included
        f = fc.parse_form("x^-1*dy - y*-x*dz", XYZ)
        env = {"x": 0.5, "y": 3.0, "z": 0.0}
        assert coeff_values(f, env) == pytest.approx([0.0, 2.0, 1.5])

    def test_exponent_cap(self):
        assert fc.parse_form(f"x^{MAX_EXPONENT}*dz", XYZ).text() == f"x^{MAX_EXPONENT}*dz"
        for text, offset in ((f"x^{MAX_EXPONENT + 1}*dz", 2), ("dz + (x+y)^-17*dx", 12)):
            with pytest.raises(fc.FormSyntaxError) as info:
                fc.parse_form(text, XYZ)
            assert info.value.position == offset and "exponent" in str(info.value)
        t0 = time.perf_counter()
        with pytest.raises(fc.FormSyntaxError):
            fc.parse_expr("x^99999999", ["x"])
        assert time.perf_counter() - t0 < 0.1

    def test_chart_header(self):
        chart = fc.parse_form_file(
            "chart x:[-2,2] y:[-2,2] z:[-2,2]; periodic z; exclude x<1e-3; form dx").chart
        assert chart.names == ("x", "y", "z")
        assert chart.periodic == (False, False, True)
        assert len(chart.exclusions) == 1 and chart.exclusions[0][1] == pytest.approx(1e-3)

    def test_chart_header_with_blanks_around_the_bound(self):
        # the exclusion's text ends in a blank, which the tokenizer skips
        chart = fc.parse_form_file(
            "chart r:[0,1] y:[-1,1] z:[-1,1]; exclude r < 1e-3; form dr").chart
        assert chart.exclusions == fc.parse_form_file(
            "chart r:[0,1] y:[-1,1] z:[-1,1]; exclude r<1e-3; form dr").chart.exclusions

    @pytest.mark.parametrize("text", ["x/(y + 1)", "-x*y", "-(x + y)/z", "x ", "-x", "x/y/z",
                                      "-(x/y)", "-x/(1 - y)^2", "-1", "2*-3/4", "-(x)/-y",
                                      "x^-1/y"])
    def test_render_round_trip_and_subst(self, text):
        """Parsed signs and quotients, (-1)*a and a*b^-1, render to text that
        parses back to the same polynomial, and subst composes through both:
        x = y + 1 gives the polynomial of the text with (y + 1) written for x."""
        e = fc.parse_expr(text, XYZ.names)
        assert fc.parse_expr(fc.render(e), XYZ.names) == e
        assert (fc.subst(e, {"x": fc.parse_expr("y + 1", XYZ.names)})
                == fc.parse_expr(text.replace("x", "(y + 1)"), XYZ.names))

    @pytest.mark.parametrize("text, at", [
        ("param a=1;\n\n   chart x:0,1] y:[-1,1] z:[-1,1];\nform dz - a*y*dx", "x:0,1]"),
        ("param a=1;\n\nchart x:[-1,1] y:[-1,1] z:[-1,1];\n\nexclude x + w<1e-3;\nform dz",
         "w<"),
        ("chart x:[-1,1] y:[-1,1] z:[-1,1];\n\nexclude x<abc;\nform dz", "abc"),
        ("chart x:[-1,1] y:[-1,1] z:[-1,1];\n\nparam a=1e999999999;\nform dz", "1e9"),
        ("param a=1;\nchart x:[-1,1] y:[0,1e309] z:[-1,1];\nform dz", "[0,1e309]"),
        ("param a=1;\n  periodc z;\nchart x:[-1,1] y:[-1,1] z:[-1,1];\nform dz", "periodc"),
        # a periodic name that is not a coordinate, before or after the chart
        ("chart x:[-1,1] y:[-1,1] theta:[0,6.283185307179586]; periodic thta; "
         "form dtheta - y*dx", "thta"),
        ("periodic z w;\nchart x:[-1,1] y:[-1,1] z:[-1,1];\nform dz", "w;"),
        # a param over a coordinate, before or after the chart: it replaced x
        # in the form but not in the exclusions
        ("chart x:[-1,1] y:[-1,1] z:[-1,1];\nparam x=2;\nform dz + x*dy", "x=2"),
        ("param x=2;\nchart x:[-1,1] y:[-1,1] z:[-1,1];\nform dz + x*dy", "x=2"),
        # a param that pi, a function or a differential hides was ignored
        ("param pi=2; chart x:[-1,1] y:[-1,1] z:[-1,1]; form dz", "pi="),
        ("chart x:[-1,1] y:[-1,1] z:[-1,1]; param sin=2; form dz", "sin="),
        ("chart x:[-1,1] y:[-1,1] z:[-1,1]; param dz=1; form dz", "dz="),
        ("param dx=1; chart x:[-1,1] y:[-1,1] z:[-1,1]; form dz", "dx="),
        # a param name no identifier reaches was accepted
        ("chart x:[-1,1] y:[-1,1] z:[-1,1];\nparam  =1;\nform dz", "=1"),
        ("chart x:[-1,1] y:[-1,1] z:[-1,1];\nparam a b=1;\nform dz", "a b"),
        ("chart x:[-1,1] y:[-1,1] z:[-1,1];\nparam 3=1;\nform dz", "3="),
        # a second param overrode the first, a second form replaced the
        # first and a second chart added its coordinates
        ("chart x:[-1,1] y:[-1,1] z:[-1,1]; param a=1; param a=2; form a*dz", "a=2"),
        ("chart x:[-1,1] y:[-1,1] z:[-1,1]; form dz; form dy", "form dy"),
        ("chart x:[-1,1] y:[-1,1]; chart z:[-1,1]; form dz", "chart z"),
        # a zero denominator raised ZeroDivisionError, with no offset
        ("chart x:[1/0,1] y:[-1,1] z:[-1,1]; form dz", "[1/0"),
        ("chart x:[-1,1] y:[-1,1] z:[-1,1]; exclude x<1/0; form dz", "1/0"),
        ("chart x:[-1,1] y:[-1,1] z:[-1,1]; param a=1/0; form a*dz", "1/0"),
    ])
    def test_header_errors_at_file_offsets(self, text, at):
        with pytest.raises(fc.FormSyntaxError) as info:
            fc.parse_form_file(text)
        assert info.value.position == text.index(at)

    def test_form_errors_at_offsets_into_the_form(self):
        with pytest.raises(fc.FormSyntaxError) as info:
            fc.parse_form_file("param a=1;\n\nchart x:[-1,1] y:[-1,1] z:[-1,1];\nform  dz +* y*dx")
        assert info.value.position == len("dz +")

    def test_duplicate_coordinate_names(self):
        # parse_form used to index past its coefficient list (IndexError)
        with pytest.raises(ValueError, match="distinct"):
            fc.parse_form_file("chart x:[0,1] x:[0,1] z:[0,1]; form dz + x*dx;")

    def test_coordinate_names_need_not_be_identifiers(self):
        # kernels name their arguments by position, so no SyntaxError
        form = fc.parse_form_file("chart a-b:[0,1] y:[0,1] z:[0,1]; form dz + y*dy;")
        assert fc.contact_sign(form, grid=4).sign == "Mixed"

    def test_form_file(self):
        text = ("chart r:[0.05,1.4] theta:[0,6.28] z:[0,6.28];\n"
                "periodic theta z;\nexclude r<1e-3;\nform (1-r^4)*dz + r^2*dtheta")
        f = fc.parse_form_file(text)
        assert f.chart.names == ("r", "theta", "z")
        assert eval_expr(f.coefficients[1], {"r": 0.5, "theta": 1.0, "z": 1.0}) == pytest.approx(0.25)

    def test_exclusions_parse_in_linear_time(self):
        # each exclusion was read behind as many blanks as its file offset:
        # 4000 of them took 15 s
        text = ("chart x:[-1,1] y:[-1,1] z:[-1,1];\n"
                + "".join(f"exclude x + {k + 2}<1e-3;\n" for k in range(4000)) + "form dz - y*dx")
        start = time.perf_counter()
        form = fc.parse_form_file(text)
        assert time.perf_counter() - start < 3.0
        assert len(form.chart.exclusions) == 4000
        bad = text.replace("x + 3999<", "x + w<")
        with pytest.raises(fc.UnknownVariableError) as info:
            fc.parse_form_file(bad)
        assert info.value.position == bad.index("w<")


class TestParserMemo:
    """A repeated group text is read once, and refused as without the memo."""

    GROUP = "(" * 50 + "x" + ")" * 50  # 50 levels of nesting

    @staticmethod
    def sums_read(text):
        """How many sums parsing `text` reads: the whole text and each group read afresh."""
        calls = []
        original = fc.expr._Parser.parse_sum

        def counting(parser):
            calls.append(1)
            return original(parser)

        with mock.patch.object(fc.expr._Parser, "parse_sum", counting):
            e = fc.parse_expr(text, "xyz")
        return e, len(calls)

    def test_a_repeated_group_is_read_once(self):
        # a function argument is a group too: sin(x + y) reads none
        e, sums = self.sums_read("(x + y)*(x + y)*sin(x + y)*(x + y)")
        assert e == fc.parse_expr("(x + y)^3*sin(x + y)", "xyz")
        assert sums == 1 + 1

    def test_a_copy_deeper_than_the_first_is_read_afresh(self):
        e, sums = self.sums_read("(x + 1)*((x + 1))")
        assert e == fc.parse_expr("(x + 1)^2", "xyz")
        assert sums == 1 + 3
        # read at depth 10, hit at 0, read afresh at 49 (99 levels), refused at 51
        g = self.GROUP
        text = ("sin(" * 10 + g + ")" * 10 + "+" + g + "*" + "(" * 49 + g + ")" * 49 + "+"
                + "(" * 51 + g + ")" * 51)
        with pytest.raises(fc.FormSyntaxError, match="nesting exceeds 100 levels") as info:
            fc.parse_expr(text, "xyz")
        assert info.value.position == 554 == text.rindex(g) + 49

    @pytest.mark.parametrize("prefix", ["(" * 60, "-" * 60, "sin(" * 60])
    def test_a_copy_past_max_nesting_is_refused_at_its_own_offset(self, prefix):
        g = self.GROUP
        text = f"{g}*{prefix}{g}" + ")" * prefix.count("(")
        with pytest.raises(fc.FormSyntaxError, match="nesting exceeds 100 levels") as info:
            fc.parse_expr(text, "xyz")
        assert info.value.position == text.rindex(g) + 40  # where the parser without a memo refuses
        assert fc.parse_expr(f"{g}*{g}", "xyz") == fc.parse_expr("x^2", "xyz")

    def test_a_repeated_zero_division_is_refused_after_the_whole_text(self):
        with pytest.raises(ZeroDivisionError):
            fc.parse_expr("(x/(y - y))*(x/(y - y))*sin((x/(y - y)))", "xyz")
        with pytest.raises(fc.FormSyntaxError, match="unexpected token") as info:
            fc.parse_expr("(x/(y - y))*(x/(y - y)) + )", "xyz")
        assert info.value.position == len("(x/(y - y))*(x/(y - y)) + ")


class TestExteriorDerivative:
    def test_standard_structure(self):
        d = fc.exterior_derivative(fc.parse_form("dz - y*dx", XYZ))
        assert list(d) == [(0, 1), (0, 2), (1, 2)]
        assert fc.render(d[0, 1]) == "1"
        assert fc.render(d[0, 2]) == "0"
        assert fc.render(d[1, 2]) == "0"

    def test_d_squared_zero_symbolically(self):
        f = fc.parse_expr("sin(x)*y", ["x", "y", "z"])
        df = fc.OneForm(XYZ, tuple(fc.diff(f, v) for v in ("x", "y", "z")))
        dd = fc.exterior_derivative(df)
        for c in dd.values():
            assert fc.render(c) == "0"

    def test_d_squared_zero_numerically(self):
        rng = random.Random(20)
        f = fc.parse_expr("exp(x)*sin(y*z) + x^3/(1 + y^2)", ["x", "y", "z"])
        df = fc.OneForm(XYZ, tuple(fc.diff(f, v) for v in ("x", "y", "z")))
        dd = fc.exterior_derivative(df)
        for env in XYZ.random_points(100, rng):
            for c in dd.values():
                assert abs(eval_expr(c, env)) <= 1e-10

    def test_cylindrical_model(self):
        zeta = fc.solid_torus_universal_form()
        d = fc.exterior_derivative(zeta)
        rng = random.Random(21)
        for env in zeta.chart.random_points(50, rng):
            r = env["r"]
            assert eval_expr(d[0, 1], env) == pytest.approx(2 * r, rel=1e-12)
            assert eval_expr(d[0, 2], env) == pytest.approx(-4 * r ** 3, rel=1e-12)
            assert abs(eval_expr(d[1, 2], env)) <= 1e-15

    def test_one_polynomial_from_parse_to_report(self):
        # the parser returns each coefficient as a polynomial, the form keeps
        # the instance `normalize` shares, and the calculus returns polynomials
        form = fc.parse_form_file((Path(__file__).parent / "data" / "torus_pullback.form")
                                  .read_text())
        assert all(type(c) is fc.Expr and fc.normalize(c) is c for c in form.coefficients)
        d = fc.exterior_derivative(form)
        assert {type(fc.volume_coefficient(form))} | {type(c) for c in d.values()} == {fc.Expr}

    def test_calculus_does_no_fraction_arithmetic(self):
        # polynomials are integer numerators over one denominator, so the
        # calculus builds no `Fraction`
        form = fc.parse_form_file((Path(__file__).parent / "data" / "torus_pullback.form")
                                  .read_text())
        fc.expr._datom.cache_clear()
        calls = dict.fromkeys(("__mul__", "__add__", "__sub__", "__neg__"), 0)

        def counted(name):
            op = getattr(Fraction, name)

            def call(*args):
                calls[name] += 1
                return op(*args)
            return call

        with mock.patch.multiple(Fraction, **{name: counted(name) for name in calls}):
            fc.volume_coefficient(form)
            fc.exterior_derivative(form)
        assert calls == dict.fromkeys(calls, 0)


class TestDerivativeOracle:
    def test_matches_central_differences(self):
        rng = random.Random(22)
        exprs = ["sin(x)*cos(y) + z^2", "exp(x/2)*y", "x^3 - 2*x*y*z + 1/(2 + z^2)"]
        h = 1e-5
        for text in exprs:
            e = fc.parse_expr(text, ["x", "y", "z"])
            for var in ("x", "y", "z"):
                de = fc.diff(e, var)
                for env in XYZ.random_points(350, rng):
                    up = dict(env); up[var] += h
                    dn = dict(env); dn[var] -= h
                    fd = (eval_expr(e, up) - eval_expr(e, dn)) / (2 * h)
                    sym = eval_expr(de, env)
                    assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))


class TestContactSign:
    def test_standard_positive(self):
        rep = fc.contact_sign(fc.parse_form("dz - y*dx", XYZ), grid=32)
        assert rep.sign == "Positive" and rep.min_abs > 0.5

    def test_refinement_skips_poles(self):
        # volume coefficient (x+1)/(x+5/4): zero on the grid at x = -1, pole
        # at the refined neighbour x = -1.25, inside the chart [-2, 2]^3
        f = fc.parse_form("dz - y*(x+1)/(x+5/4)*dx", XYZ)
        rep = fc.contact_sign(f, grid=9)
        assert rep.sign == "Mixed" and rep.min_abs == 0.0
        (w,) = rep.witnesses
        assert w == (-1.0, -2.0, -2.0)  # y and z clamped onto the chart
        coeff = fc.volume_coefficient(f)
        assert eval_expr(coeff, dict(zip(XYZ.names, w))) == 0.0
        # 81 flagged grid points, each with 27 refined points, 9 of them poles
        assert rep.samples == 9 ** 3 + 81 * (27 - 9)

    def test_flat_form_mixed(self):
        rep = fc.contact_sign(fc.parse_form("dx", XYZ), grid=8)
        assert rep.sign == "Mixed" and rep.min_abs == 0.0

    def test_cylindrical_coefficient(self):
        zeta = fc.solid_torus_universal_form()
        coeff = fc.volume_coefficient(zeta)
        rng = random.Random(23)
        for env in zeta.chart.random_points(100, rng):
            r = env["r"]
            assert eval_expr(coeff, env) == pytest.approx(2 * r + 2 * r ** 5, rel=1e-12)
        assert fc.contact_sign(zeta, grid=32).sign == "Positive"

    def test_mixed_when_signs_flip(self):
        # alpha = dz - (y^2/2) dx has volume coefficient y, which flips sign
        g = fc.parse_form("dz - (y^2/2)*dx", XYZ)
        rep = fc.contact_sign(g, grid=9)
        assert rep.sign == "Mixed" and len(rep.witnesses) == 2

    def test_positive_multiple_invariance(self):
        base = fc.parse_form("dz - y*dx", XYZ)
        for factor_text in ("1 + x^2/4", "exp(y/2)", "2"):
            factor = fc.parse_expr(factor_text, ["x", "y", "z"])
            scaled = fc.OneForm(XYZ, tuple(factor * c for c in base.coefficients))
            assert fc.contact_sign(scaled, grid=16).sign == "Positive"

    @pytest.mark.parametrize("coeff, value, point", [
        ("exp(exp(exp(3*x)))*y", "inf", (0.7142857142857142, -1.0, -1.0)),
        ("exp(" * 99 + "x*y" + ")" * 99, "-inf", (-1.0, -1.0, -1.0)),
    ], ids=["triple_exp", "exp_tower_99"])
    def test_non_finite_coefficient_inside_the_chart_is_reported(self, coeff, value, point):
        # the first overflows on the columns x = 0.714 and x = 1 only, the tower everywhere
        form = fc.parse_form_file(f"chart x:[-1,1] y:[-1,1] z:[-1,1]; form dz - {coeff}*dx")
        with pytest.raises(ArithmeticError) as info:
            fc.contact_sign(form, grid=8)
        assert str(info.value) == (f"alpha ^ d(alpha) is {value} at the grid point {point}, "
                                   "which no exclusion removes")

    def test_non_finite_coefficient_outside_the_exclusions_is_not_sampled(self):
        # |x - 1| < 1/2 removes the columns x = 5/7 and x = 1 where the coefficient overflows
        form = fc.parse_form_file("chart x:[-1,1] y:[-1,1] z:[-1,1]; exclude x - 1<1/2; "
                                  "form dz - exp(exp(exp(3*x)))*y*dx")
        rep = fc.contact_sign(form, grid=8)
        assert (rep.sign, rep.samples) == ("Positive", 6 * 64)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            fc.contact_sign(fc.hopf_plane_field_form())

    @pytest.mark.parametrize("grid", [0, -3, 257])
    def test_grid_domain(self, grid):
        with pytest.raises(ValueError, match="outside the domain"):
            fc.contact_sign(fc.parse_form("dz - y*dx", XYZ), grid=grid)

    @pytest.mark.parametrize("grid", [(4, 0, 4), (256, 256, 257), (4, 4), (4, 4, 4), 4.0, "4"])
    def test_a_grid_is_one_int(self, grid):
        # a per-axis grid or a count of another type is refused, not converted
        form = fc.parse_form("dz - y*dx", XYZ)
        with pytest.raises(TypeError, match="grid must be an int"):
            fc.contact_sign(form, grid=grid)
        with pytest.raises(TypeError, match="grid must be an int"):
            fc.grid_counts(grid, 3)

    def test_largest_grid_in_domain(self):
        assert fc.MAX_GRID_POINTS == 256 ** 3
        rep = fc.contact_sign(fc.three_torus_form(2), grid=256)
        assert rep.sign == "Positive" and rep.samples == 256 ** 3


REDUCED_EXCLUSIONS = [("x", "1/4"), ("x - y", "1/10"), ("y*z", "1/20"), ("1", "1/2"),
                      ("x^2 + z^2", "1/3"), ("z - 1", "1/8")]
RANGES = [(-1.0, 1.0), (-2.0, 2.0), (0.0, 1.0)]


def _reduced_case(coeffs, exclusions, ranges, periodic, grid):
    chart = fc.Chart(("x", "y", "z"), tuple(ranges), tuple(periodic),
                     tuple((fc.parse_expr(e, "xyz"), float(Fraction(eps)))
                           for e, eps in exclusions))
    return fc.OneForm(chart, tuple(fc.parse_expr(c, "xyz") for c in coeffs)), grid


def _outcome(sign_fn, form, grid):
    try:
        return repr(sign_fn(form, grid))
    except (ValueError, ArithmeticError) as e:
        return f"{type(e).__name__}: {e}"


class TestReducedGrid:
    """`contact_sign` on the broadcast-reduced grid against the dense oracle."""

    @settings(max_examples=300, deadline=None)
    @given(coeffs=st.tuples(*[st.sampled_from(REDUCED_COEFFS)] * 3),
           exclusions=st.lists(st.sampled_from(REDUCED_EXCLUSIONS), max_size=2),
           ranges=st.tuples(*[st.sampled_from(RANGES)] * 3),
           periodic=st.tuples(*[st.booleans()] * 3),
           grid=st.integers(1, 9))
    @example(("0", "0", "1"), [], [(-1.0, 1.0)] * 3, (False,) * 3, 9)  # dz - (y^2/2) dx: Mixed
    @example(("y^2/2", "0", "1"), [], [(-1.0, 1.0)] * 3, (False,) * 3, 1)  # one point: Positive
    @example(("y*(x + 2)/(x + 9/4)", "0", "-1"), [], [(-2.0, 2.0)] * 3, (False,) * 3, 9)
    @example(("y*(x + 1)/(x + 5/4)", "0", "-1"), [], [(-2.0, 2.0)] * 3, (False,) * 3, 9)
    @example(("1", "0", "0"), [("x", "1/4")], [(-1.0, 1.0)] * 3, (False,) * 3, 7)
    @example(("x*y", "z", "1"), [("1", "1/2")], [(-1.0, 1.0)] * 3, (False,) * 3, 4)
    @example(("y/x", "0", "1"), [], [(-1.0, 1.0)] * 3, (False,) * 3, 9)  # a pole at x = 0
    @example(("y/x", "0", "1"), [("x", "1/4")], [(-1.0, 1.0)] * 3, (False,) * 3, 9)
    def test_matches_dense_oracle_bit_for_bit(self, coeffs, exclusions, ranges, periodic, grid):
        form, grid = _reduced_case(coeffs, exclusions, ranges, periodic, grid)
        outcome = _outcome(fc.contact_sign, form, grid)
        assert outcome == _outcome(_dense_contact_sign, form, grid)
        if outcome.startswith("ContactReport"):  # a definite sign clears SIGN_TOL
            rep = fc.contact_sign(form, grid)
            assert rep.sign == "Mixed" or rep.min_abs > forms.SIGN_TOL

    @pytest.mark.parametrize("coeffs,grid,sign,refined", [
        (("-y^2/2", "0", "1"), 9, "Mixed", False),
        (("-y*(x + 2)/(x + 9/4)", "0", "1"), 9, "Mixed", True),
        (("1", "0", "0"), 1, "Mixed", True),  # one sample: its neighbours are itself
        (("x^2*y", "0", "1"), 7, "Mixed", True),
    ])
    def test_mixed_and_refined_cases(self, coeffs, grid, sign, refined):
        form, grid = _reduced_case(coeffs, [], [(-2.0, 2.0)] * 3, (False,) * 3, grid)
        rep = fc.contact_sign(form, grid)
        assert rep.sign == sign
        assert (rep.samples > grid ** 3) == refined
        assert repr(rep) == repr(_dense_contact_sign(form, grid))

    def test_library_builds_no_dense_mesh(self):
        entries = [e.form for e in fc.model_library().values() if e.expected_sign is not None]
        for form in entries:  # warm the symbolic caches
            fc.contact_sign(form, grid=2)
        tracemalloc.start()
        try:
            for form in entries:
                fc.contact_sign(form, grid=128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20  # one dense float64 array at grid 128 is 16 MB


FLAT_DX = Path(__file__).parent / "data" / "flat_dx.form"
#: dz - (y^3*x*z + y)*dx: 1 + 3*x*y^2*z takes both signs on [-1, 1]^3
MIXED_ALL_AXES = Path(__file__).parent / "data" / "mixed_all_axes.form"
#: a coefficient that reads every axis and is flagged on every sample, so its
#: reduced grid is the whole grid: 1/10^13 + 3*x*y^2*z/10^14
ALL_AXES = "chart x:[-1,1] y:[-1,1] z:[-1,1]; form dz - ((y + y^3*x*z/10)/10^13)*dx"


def peak_of_sign(text, grid):
    """The report of `contact_sign` on the form file `text` at `grid`, and
    its tracemalloc peak in bytes, with the symbolic caches warm."""
    form = fc.parse_form_file(text)
    fc.contact_sign(form, grid=2)
    tracemalloc.start()
    try:
        rep = fc.contact_sign(form, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rep, peak


class TestChunkedRefinement:
    """`contact_sign` refines REFINE_CHUNK flagged samples at a time."""

    @staticmethod
    def sign_with_chunk(form, grid, chunk):
        with mock.patch.object(forms, "REFINE_CHUNK", chunk):
            return _outcome(fc.contact_sign, form, grid)

    @settings(max_examples=200, deadline=None)
    @given(coeffs=st.tuples(*[st.sampled_from(REDUCED_COEFFS + ["x^2*y", "-y^2/2", "x*y*z"])] * 3),
           exclusions=st.lists(st.sampled_from(REDUCED_EXCLUSIONS), max_size=2),
           ranges=st.tuples(*[st.sampled_from(RANGES)] * 3),
           periodic=st.tuples(*[st.booleans()] * 3),
           grid=st.integers(1, 9),
           chunk=st.integers(1, 9))
    @example(("1", "0", "0"), [], [(-2.0, 2.0)] * 3, (False,) * 3, 5, 2)
    @example(("x^2*y", "0", "1"), [], [(-2.0, 2.0)] * 3, (False,) * 3, 7, 1)
    def test_small_chunks_match_dense_oracle(self, coeffs, exclusions, ranges, periodic, grid,
                                             chunk):
        form, grid = _reduced_case(coeffs, exclusions, ranges, periodic, grid)
        assert self.sign_with_chunk(form, grid, chunk) == _outcome(_dense_contact_sign, form, grid)

    def check_chunk_boundaries(self, text, chunk):
        form = fc.parse_form_file(text)
        whole = self.sign_with_chunk(form, 5, 10 ** 6)
        assert self.sign_with_chunk(form, 5, chunk) == whole
        assert whole == _outcome(_dense_contact_sign, form, 5)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 31, 32, 33, 124, 125, 126])
    def test_chunk_boundaries_of_a_flat_form(self, chunk):
        # grid 5: all 125 grid points flagged, all in the one reduced sample
        # of dx, and 3375 refined points, all zero
        self.check_chunk_boundaries(FLAT_DX.read_text(), chunk)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 31, 32, 33, 124, 125, 126])
    def test_chunk_boundaries_of_an_all_axes_form(self, chunk):
        # grid 5: all 125 reduced samples flagged, 3375 refined points
        self.check_chunk_boundaries(ALL_AXES, chunk)

    @pytest.mark.parametrize("chunk", [1, 2, 5, 50, 51, 52, 60, 63, 64])
    def test_chunk_boundaries_with_a_late_minimum(self, chunk):
        # coefficient (2 - x)*(2 + y*z)/10^13 reads every axis, so at grid 4
        # the reduced grid is the whole grid: every sample is flagged and
        # positive, and the least value is met first at the refined points
        # of sample 51 of 64, (1, -1, 1) (x = 1 + 1/3 and y = -1 - 1/3
        # clamped onto the chart [-1, 1]^3), tied at sample 60, (1, 1, -1)
        form, grid = _reduced_case(("-(2 - x)*(2*y + y^2*z/2)/10000000000000", "0", "1"), [],
                                   [(-1.0, 1.0)] * 3, (False,) * 3, 4)
        whole = self.sign_with_chunk(form, grid, 10 ** 6)
        assert "witnesses=((1.0, -1.0, 1.0),), samples=1792" in whole
        assert self.sign_with_chunk(form, grid, chunk) == whole
        assert whole == _outcome(_dense_contact_sign, form, grid)

    @staticmethod
    def peak_at_grid_128(text):
        # every sample of the grid is flagged: at grid 128 the unchunked
        # refinement built 2^21 * 27 points, about 4 GB
        rep, peak = peak_of_sign(text, 128)
        assert rep.sign == "Mixed" and rep.samples == 128 ** 3 * 28
        return peak

    def test_memory_does_not_grow_with_flagged_samples(self):
        assert self.peak_at_grid_128(FLAT_DX.read_text()) < 16 * 2 ** 20

    def test_memory_of_an_all_axes_form(self):
        # its reduced grid is the whole grid, whose evaluation and sign
        # alone peak at 38 MiB (see MAX_GRID_POINTS)
        assert self.peak_at_grid_128(ALL_AXES) < 64 * 2 ** 20

    def test_a_mixed_verdict_costs_no_more_memory_than_a_definite_one(self):
        # both coefficients read every axis, so at grid 128 one value array
        # is 16 MiB: 1 + 3*x*y^2*z/10 is positive on the chart, and
        # 1 + 3*x*y^2*z takes both signs.  The bounds leave no room for a
        # grid-sized copy of the values beside the value array and its
        # magnitudes (38 MiB for either verdict).
        positive, low = peak_of_sign(
            "chart x:[-1,1] y:[-1,1] z:[-1,1]; form dz - (y + y^3*x*z/10)*dx", 128)
        mixed, high = peak_of_sign(MIXED_ALL_AXES.read_text(), 128)
        assert (positive.sign, mixed.sign) == ("Positive", "Mixed")
        assert low < 46 * 2 ** 20
        assert high <= 1.05 * low

    def test_flat_form_refines_its_one_reduced_sample(self):
        # dx reads no axis: one reduced sample stands for all 256^3 grid
        # points, so 27 points are refined, not 256^3 * 27
        sizes = []

        def counting(expr, names):
            kernel = compile_expr(expr, names)

            def counted(*cols):
                sizes.append(np.broadcast(*cols).size)
                return kernel(*cols)
            return counted

        form = fc.parse_form_file(FLAT_DX.read_text())
        with mock.patch.object(forms, "compile_expr", counting):
            rep = fc.contact_sign(form, grid=256)
        assert rep.sign == "Mixed" and rep.samples == 256 ** 3 * 28
        _, *refined = sizes
        assert sum(refined) <= 27

    def test_refinement_stays_inside_a_non_periodic_chart(self):
        # the neighbours of the corner sample at half a grid step are clamped
        # onto [-1, 1] on non-periodic axes, and each sample keeps all 27
        text = FLAT_DX.read_text()
        rep = fc.contact_sign(fc.parse_form_file(text), grid=32)
        assert rep.witnesses == ((-1.0, -1.0, -1.0),) and rep.samples == 32 ** 3 * 28
        periodic = text.replace("form", "periodic x; form")
        rep = fc.contact_sign(fc.parse_form_file(periodic), grid=32)
        assert rep.witnesses == ((-1.03125, -1.0, -1.0),) and rep.samples == 32 ** 3 * 28


class TestPullback:
    def test_forms_over_different_coordinates_differ(self):
        abc = fc.Chart(("a", "b", "c"), XYZ.ranges)
        assert not fc.forms_equal_numeric(fc.parse_form("dz", XYZ), fc.parse_form("dc", abc))

    def test_identity_map(self):
        f = fc.parse_form("dz + x*dy - y*dx", XYZ)
        comps = tuple(fc.parse_expr(n, XYZ.names) for n in XYZ.names)
        assert fc.forms_equal_numeric(fc.pullback(comps, XYZ, f), f, points=100)

    def test_scaling_flow_preserves_kernel(self):
        comps, src = scaling_flow_components(Fraction(1, 2))
        alpha = fc.parse_form("dz + x*dy - y*dx", src)
        pulled = fc.pullback(comps, src, alpha)
        factor = math.exp(1.0)
        rng = random.Random(24)
        for env in src.random_points(100, rng):
            for cp, ca in zip(pulled.coefficients, alpha.coefficients):
                assert abs(eval_expr(cp, env) - factor * eval_expr(ca, env)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tube_embedding_sends_model_to_band(self, n):
        pulled, expected = fiber_tube_pullback(n)
        rng = random.Random(25)
        for env in pulled.chart.random_points(200, rng):
            u = coeff_values(pulled, env)
            v = coeff_values(expected, env)
            cross = sum((u[i] * v[j] - u[j] * v[i]) ** 2
                        for i in range(3) for j in range(i + 1, 3))
            dot = sum(a * b for a, b in zip(u, v))
            assert cross <= 1e-16 and dot > 0

    def test_finite_difference_oracle(self):
        # pulled-back coefficients match difference quotients of the map
        chart = fc.Chart(("u", "v", "w"), ((-1.0, 1.0),) * 3)
        comps = (fc.parse_expr("u*v", ["u", "v", "w"]),
                 fc.parse_expr("v + w^2", ["u", "v", "w"]),
                 fc.parse_expr("sin(u)", ["u", "v", "w"]))
        target = fc.parse_form("dz - y*dx", XYZ)
        pulled = fc.pullback(comps, chart, target)
        rng = random.Random(26)
        h = 1e-5
        for env in chart.random_points(100, rng):
            for j, src_name in enumerate(chart.names):
                up = dict(env); up[src_name] += h
                dn = dict(env); dn[src_name] -= h
                fd = 0.0
                for i in range(3):
                    a_i = eval_expr(target.coefficients[i],
                                    dict(zip(XYZ.names, (eval_expr(c, env) for c in comps))))
                    dcomp = (eval_expr(comps[i], up) - eval_expr(comps[i], dn)) / (2 * h)
                    fd += a_i * dcomp
                assert abs(eval_expr(pulled.coefficients[j], env) - fd) <= 1e-6

    def test_naturality(self):
        chart_a = fc.Chart(("s", "t", "u"), ((-1.0, 1.0),) * 3)
        chart_b = fc.Chart(("u", "v", "w"), ((-2.0, 2.0),) * 3)
        f_comps = (fc.parse_expr("u + v", ["u", "v", "w"]),
                   fc.parse_expr("v*w", ["u", "v", "w"]),
                   fc.parse_expr("w", ["u", "v", "w"]))  # chart_b -> XYZ
        g_comps = (fc.parse_expr("s*t", ["s", "t", "u"]),
                   fc.parse_expr("t", ["s", "t", "u"]),
                   fc.parse_expr("u - s", ["s", "t", "u"]))  # chart_a -> chart_b
        alpha = fc.parse_form("dz - y*dx", XYZ)
        step = fc.pullback(f_comps, chart_b, alpha)
        lhs = fc.pullback(g_comps, chart_a, step)
        fg = tuple(fc.normalize(fc.subst(c, dict(zip(chart_b.names, g_comps))))
                   for c in f_comps)
        rhs = fc.pullback(fg, chart_a, alpha)
        rng = random.Random(27)
        for env in chart_a.random_points(100, rng):
            for c1, c2 in zip(lhs.coefficients, rhs.coefficients):
                assert abs(eval_expr(c1, env) - eval_expr(c2, env)) <= 1e-8

    def test_numeric_inequality(self):
        f = fc.parse_form("dz - y*dx", XYZ)
        g = fc.parse_form("dz - 1.0000001*y*dx", XYZ)
        assert fc.forms_equal_numeric(f, f) and not fc.forms_equal_numeric(f, g)

    def test_component_count_guard(self):
        with pytest.raises(ValueError):
            fc.pullback((fc.parse_expr("x", "xyz"),), XYZ, fc.parse_form("dz - y*dx", XYZ))


def compiles(call):
    """(call(), the expressions `forms` compiled during it)."""
    compiled = []

    def counting(expr, names):
        compiled.append(expr)
        return compile_expr(expr, names)

    with mock.patch.object(forms, "compile_expr", counting):
        return call(), compiled


class TestCompiledSamples:
    """The library's compiled evaluation against the tree-walking `eval_expr`."""

    def test_random_points_draw_like_rejection_sampling(self):
        chart = fc.Chart(("r", "theta", "z"), ((0.0, 1.0), (0.0, 6.0), (-1.0, 1.0)),
                         exclusions=((fc.parse_expr("r - 1/2", ["r"]), 0.25),))
        rng = random.Random(5)
        expected = []
        while len(expected) < 40:
            env = {n: rng.uniform(lo, hi) for n, (lo, hi) in zip(chart.names, chart.ranges)}
            if all(abs(eval_expr(e, env)) >= eps for e, eps in chart.exclusions):
                expected.append(env)
        assert chart.random_points(40, random.Random(5)) == expected

    def test_random_points_refuse_a_chart_the_exclusions_empty(self):
        chart = fc.parse_form_file("chart x:[-1,1] y:[-1,1] z:[-1,1]; exclude 1<2; form dx").chart
        with pytest.raises(ValueError, match="no samples survive the exclusions in 5000 "):
            chart.random_points(5, random.Random(0))
        f = fc.parse_form("dz - y*dx", chart)
        with pytest.raises(ValueError, match="no samples survive the exclusions"):
            fc.forms_equal_numeric(f, f, points=3)

    @staticmethod
    def exclusion_compiles(chart, call):
        """How often `call()` compiles each of the chart's exclusions."""
        _, compiled = compiles(call)
        return [compiled.count(fc.normalize(e)) for e, _ in chart.exclusions]

    def test_a_refusal_compiles_each_exclusion_once(self):
        chart = fc.parse_form_file("chart x:[-1,1] y:[-1,1] z:[-1,1]; exclude 1<2; form dx").chart
        f = fc.parse_form("dz - y*dx", chart)

        def refuse():
            with pytest.raises(ValueError, match="in 3000 random draws"):
                fc.forms_equal_numeric(f, f, points=3)
        assert self.exclusion_compiles(chart, refuse) == [1]

    def test_a_refined_sign_compiles_each_exclusion_once(self):
        # every sample is flagged: 48^3 refined in 27 chunks, none excluded
        form = fc.parse_form_file(ALL_AXES.replace(
            "; form", "; exclude x - 5<1; exclude y*z - 3<1; form"))
        reports = []
        counts = self.exclusion_compiles(
            form.chart, lambda: reports.append(fc.contact_sign(form, grid=48)))
        assert counts == [1, 1]
        assert reports[0].samples == 48 ** 3 * 28

    def test_slope_matches_pointwise_evaluation(self):
        f = fc.parse_form("(2 + sin(theta)*r)*dz + r^2*cos(z)*dtheta",
                          fc.solid_torus_universal_form().chart)
        slopes = []
        for u in range(24):
            for v in range(24):
                env = {"r": 0.7, "theta": 2.0 * math.pi * u / 24, "z": 2.0 * math.pi * v / 24}
                slopes.append(-eval_expr(f.coefficients[1], env) / eval_expr(f.coefficients[2], env))
        s = fc.characteristic_slope_on_torus(f, 0.7)
        assert s.value == pytest.approx(sum(slopes) / len(slopes), abs=1e-14)
        assert s.spread == pytest.approx(max(slopes) - min(slopes), abs=1e-14)

    def test_coefficient_values(self):
        f = fc.parse_form("exp(x)*dz - y/(1 + z^2)*dx", XYZ)
        pts = XYZ.random_points(20, random.Random(6))
        got = fc.forms.coefficient_values(f, columns(XYZ, pts))
        assert got.shape == (3, 20)
        for j, env in enumerate(pts):
            assert got[:, j] == pytest.approx(coeff_values(f, env), rel=1e-14, abs=1e-15)


class TestKernelCaches:
    """A form compiles its kernels once, and they live as long as the form."""

    def test_a_second_sign_compiles_nothing(self):
        form = fc.parse_form("dz - y*dx + x^2*z*dy", XYZ)
        first, compiled = compiles(lambda: fc.contact_sign(form, grid=16))
        assert compiled == [fc.volume_coefficient(form)]
        second, compiled = compiles(lambda: fc.contact_sign(form, grid=16))
        assert compiled == [] and second == first

    def test_coefficient_kernels_serve_values_and_slopes(self):
        form = fc.parse_form("(2 + sin(theta)*r)*dz + r^2*cos(z)*dtheta",
                             fc.solid_torus_universal_form().chart)
        pts = form.chart.random_points(5, random.Random(1))

        def read():
            return (fc.forms.coefficient_values(form, columns(form.chart, pts)),
                    fc.characteristic_slope_on_torus(form, 0.7))

        (values, slope), compiled = compiles(read)
        assert compiled == list(form.coefficients)
        (again, slope_again), compiled = compiles(read)
        assert compiled == [] and (again == values).all() and slope_again == slope

    @pytest.mark.parametrize("builder", [fc.solid_torus_universal_form, fc.hopf_plane_field_form,
                                         fc.models.bennequin_tube_form])
    def test_constant_builders_return_one_form(self, builder):
        assert builder() is builder()

    def test_a_dropped_form_frees_its_kernels(self):
        form = fc.parse_form("dz - y*dx + sin(x)*dy", XYZ)
        fc.contact_sign(form, grid=8)
        fc.forms.coefficient_values(form, [np.zeros(1)] * 3)
        kernel, ref = form._volume_kernel, weakref.ref(form)
        del form
        gc.collect()
        assert ref() is None
        assert kernel(0.0, 1.0, 0.0) == 2.0  # 1 + cos(x): a kernel outlives its form


class TestSlope:
    def test_model_slope_at_half(self):
        zeta = fc.solid_torus_universal_form()
        s = fc.characteristic_slope_on_torus(zeta, 0.5)
        assert s.value == pytest.approx(-4.0 / 15.0, abs=1e-12)
        assert s.spread <= 1e-9

    def test_slope_vanishes_at_axis(self):
        zeta = fc.solid_torus_universal_form()
        assert abs(fc.characteristic_slope_on_torus(zeta, 1e-4).value) <= 1e-7

    def test_degenerate_at_unit_radius(self):
        zeta = fc.solid_torus_universal_form()
        with pytest.raises(fc.DegenerateKernel):
            fc.characteristic_slope_on_torus(zeta, 1.0)

    def test_slope_minus_one_at_golden_radius(self):
        r = fc.r_of_slope(-1, 1)
        assert r ** 2 == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-10)
        zeta = fc.solid_torus_universal_form()
        assert fc.characteristic_slope_on_torus(zeta, r).value == pytest.approx(-1.0, abs=1e-9)

    def test_r_of_slope_forward_inverse(self):
        assert fc.r_of_slope(-4, 15) == pytest.approx(0.5, abs=1e-9)

    def test_r_of_slope_residual(self):
        # exact residual of k*x^2 - x - k at x = r^2, against the size of its terms
        eps = sys.float_info.epsilon
        for q in range(1, 41):
            for p in range(-40, 41):
                if p == 0 or math.gcd(abs(p), q) != 1:
                    continue
                k, x = Fraction(p, q), Fraction(fc.r_of_slope(p, q)) ** 2
                scale = abs(k) * x * x + x + abs(k)
                assert abs(k * x * x - x - k) <= 4 * eps * scale, (p, q)

    def test_zero_slope_out_of_range(self):
        with pytest.raises(fc.SlopeOutOfRange):
            fc.r_of_slope(0, 1)

    def test_monotone_in_slope(self):
        slopes = [(-9, 2), (-4, 1), (-2, 1), (-1, 1), (-1, 2), (-1, 4)]
        radii = [fc.r_of_slope(p, q) for p, q in slopes]
        assert all(r1 > r2 for r1, r2 in zip(radii, radii[1:]))
        pos = [(9, 2), (4, 1), (1, 1), (1, 4)]
        radii_pos = [fc.r_of_slope(p, q) for p, q in pos]
        assert all(r1 < r2 for r1, r2 in zip(radii_pos, radii_pos[1:]))
        assert all(r > 1 for r in radii_pos) and all(r < 1 for r in radii)


class TestModelLibrary:
    def test_size(self):
        assert len(fc.model_library()) >= 10

    def test_built_once_and_a_new_dict_each_call(self, monkeypatch):
        first = fc.model_library()
        first.clear()
        monkeypatch.setattr(fc.models, "parse_form", None)  # a second build would fail
        second = fc.model_library()
        assert len(second) >= 10 and second is not fc.model_library()

    def test_all_3d_entries_have_recorded_sign(self):
        for key, entry in fc.model_library().items():
            if entry.expected_sign is None:
                continue
            rep = fc.contact_sign(entry.form, grid=24)
            assert rep.sign == entry.expected_sign, key

    def test_fiber_rotation_enrollment(self):
        lib = fc.model_library()
        entry = lib["fiber_rotation"]
        assert entry.form == fc.fiber_rotation_form(2) and entry.enrollment == -2

    def test_connection_family_sign_criterion(self):
        # d_y u < 0 makes the connection form contact positive; the reversed
        # profile flips the sign
        u_bad = fc.parse_expr("y", ["y", "x", "theta"])
        from contactbundles.formcalc.models import connection_family
        assert fc.contact_sign(connection_family(u_bad), grid=12).sign == "Negative"
        u_good = fc.parse_expr("-y*(1 + x^2/8)", ["y", "x", "theta"])
        assert fc.contact_sign(connection_family(u_good), grid=12).sign == "Positive"


class TestWrappedEmbeddings:
    def test_sign_zero_rejected(self):
        with pytest.raises(ValueError, match=r"sign must be \+1 or -1"):
            torus_wrapping_embedding(-1, 1, 0)

    @pytest.mark.parametrize("pq", [(-4, 15), (-1, 1)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_contact_positive(self, pq, sign):
        p, q = pq
        rep = fc.contact_sign(torus_wrapping_pullback(p, q, sign), grid=16)
        assert rep.sign == "Positive"


#: the tenths (0 first), 40/3 and 20 seeded times, negative ones among them
_SEEDED = random.Random(7)
HOPF_TIMES = tuple(Fraction(k, 10) for k in range(10)) + (Fraction(40, 3),) + tuple(
    Fraction(_SEEDED.randint(-40, 40), _SEEDED.randint(1, 40)) for _ in range(20))


class TestHopf:
    def test_default_times_are_the_tenths(self):
        chk = fc.hopf_invariance_check()
        assert chk.times == tuple(Fraction(k, 10) for k in range(10))
        assert chk.ok

    def test_time_zero_exact(self):
        chk = fc.hopf_invariance_check(times=[Fraction(0)], points=50)
        assert chk.ok and chk.max_error == 0.0

    def test_quarter_turn_plus(self):
        chk = fc.hopf_invariance_check(times=[Fraction(1, 4)], points=100)
        assert chk.ok and chk.max_error <= 1e-12

    def test_random_time_both_variants(self):
        chk = fc.hopf_invariance_check(times=[Fraction(7, 13)], points=100)
        assert chk.ok

    @pytest.mark.parametrize("variant", [1, -1])
    @pytest.mark.parametrize("t", HOPF_TIMES)
    def test_symbolic_angle_substitutes_to_the_rotation_by_t(self, t, variant):
        """theta -> 2t pi in the coefficients pulled back once turns them
        into those of the pullback along the rotation by t."""
        angle = {"theta": fc.parse_expr("2*t*pi", (), {"t": t})}
        generic, _ = models._hopf_rotated(variant)
        lam = fc.hopf_plane_field_form()
        pulled = fc.pullback(_block_rotation_components(t, variant), lam.chart, lam)
        assert [fc.subst(p, angle) for p in generic] == list(pulled.coefficients)

    @pytest.mark.parametrize("variant", [1, -1])
    @pytest.mark.parametrize("t", HOPF_TIMES)
    def test_symbolic_angle_kernels_are_the_rotation_by_t_bit_for_bit(self, t, variant):
        cols, _ = models._hopf_reference(100)
        _, kernels = models._hopf_rotated(variant)
        theta = float(2 * t) * math.pi
        got = np.array([forms._padded(fn, cols, theta) for fn in kernels])
        lam = fc.hopf_plane_field_form()
        pulled = fc.pullback(_block_rotation_components(t, variant), lam.chart, lam)
        assert got.tobytes() == forms.coefficient_values(pulled, cols).tobytes()

    def test_max_error_is_that_of_the_pullbacks_by_each_time(self):
        lam = fc.hopf_plane_field_form()
        cols, original = models._hopf_reference(60)
        for t in HOPF_TIMES:
            worst = max(float(abs(forms.coefficient_values(fc.pullback(
                _block_rotation_components(t, v), lam.chart, lam), cols) - original).max())
                for v in (1, -1))
            assert fc.hopf_invariance_check(times=[t], points=60).max_error == worst, t

    def test_an_angle_past_the_float_range_fails_with_a_nan_error(self):
        # 2t*pi is inf, so every pulled value is NaN; the error stays NaN
        # through the later times and both variants
        huge = Fraction(5 * 10 ** 307)
        for times in ([huge], [huge, Fraction(1, 4)], [Fraction(0), huge, Fraction(1, 3)]):
            chk = fc.hopf_invariance_check(times=times, points=50)
            assert not chk.ok and math.isnan(chk.max_error), times

    def test_second_check_neither_pulls_back_nor_compiles(self, monkeypatch):
        fc.hopf_invariance_check(times=[Fraction(1, 3)], points=60)
        calls = []

        def counted(module, name):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a: calls.append(name) or fn(*a))
        for module, name in ((models, "pullback"), (models, "_pulled_coefficients"),
                             (models, "compile_expr"), (forms, "compile_expr")):
            counted(module, name)
        assert fc.hopf_invariance_check(times=HOPF_TIMES, points=60).ok
        assert calls == []

    @pytest.mark.parametrize("variant", [1, -1])
    @pytest.mark.parametrize("t", [Fraction(0), Fraction(1, 4), Fraction(3, 7), Fraction(40, 3)])
    def test_block_rotations_are_the_parsed_ones(self, t, variant):
        """The rotations built with ring operations are the polynomials the
        parser reads from their written-out text."""
        texts = ("cos(2*t*pi)*x1 - sin(2*t*pi)*y1", "sin(2*t*pi)*x1 + cos(2*t*pi)*y1",
                 "cos(2*t*pi)*x2 - v*sin(2*t*pi)*y2", "v*sin(2*t*pi)*x2 + cos(2*t*pi)*y2")
        parsed = [fc.parse_expr(text, ("x1", "y1", "x2", "y2"), {"t": t, "v": variant})
                  for text in texts]
        built = _block_rotation_components(t, variant)
        assert [fc.render(e) for e in built] == [fc.render(e) for e in parsed]
        assert list(built) == parsed


SMALL_LEAVES = st.one_of(
    st.sampled_from([Var("x"), Var("y"), Var("z"), Pi()]),
    st.builds(lambda p, q: Rat(Fraction(p, q)), st.integers(-9, 9), st.integers(1, 4)),
)
SMALL_TREES = st.recursive(SMALL_LEAVES, lambda c: st.one_of(
    st.builds(lambda a, b: Add((a, b)), c, c),
    st.builds(lambda a, b: Mul((a, b)), c, c),
    st.builds(neg, c), st.builds(Sin, c), st.builds(Cos, c), st.builds(Exp, c),
    st.builds(Pow, c, st.integers(0, 3))), max_leaves=5)


def _written_out(e, env):
    """Reference for `compile_expr`: the tree e written out in full as
    Python arithmetic on the numpy values of `env`, each subtree computed
    where it occurs, sums and products left to right, constants as Python
    floats."""
    if isinstance(e, Rat):
        return float(e.value)
    if isinstance(e, Pi):
        return math.pi
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, (Add, Mul)):
        xs, op, empty = (e.terms, operator.add, 0.0) if isinstance(e, Add) else \
            (e.factors, operator.mul, 1.0)
        return functools.reduce(op, (_written_out(x, env) for x in xs)) if xs else empty
    if isinstance(e, Pow):
        return _written_out(e.base, env) ** (float(e.exponent) if e.exponent < 0 else e.exponent)
    return {Sin: np.sin, Cos: np.cos, Exp: np.exp}[type(e)](_written_out(e.arg, env))


def _magnitude(e, env) -> float:
    """The scale of the rounding error of evaluating the tree e at env in
    floats, in any order of its sums: |value| at a leaf, the sum of the
    terms' magnitudes at a sum, the product of the factors' at a product,
    and at a function or a negative power its value plus its derivative
    times its argument's magnitude (|sin'| and |cos'| at most 1); inf past
    the float range.  It is at least |value|, and a sum whose terms cancel
    keeps their size."""
    def mag(e):
        if isinstance(e, Add):
            return math.fsum(map(mag, e.terms))
        if isinstance(e, Mul):
            return math.prod(map(mag, e.factors))
        if isinstance(e, Pow):
            x = abs(eval_expr(e.base, env))
            return (mag(e.base) ** e.exponent if e.exponent >= 0
                    else x ** e.exponent * (1 + -e.exponent * mag(e.base) / x))
        if isinstance(e, (Sin, Cos)):
            return 1 + mag(e.arg)
        if isinstance(e, Exp):
            return math.exp(eval_expr(e.arg, env)) * (1 + mag(e.arg))
        return abs(eval_expr(e, env))
    try:
        return mag(e)
    except (ArithmeticError, ValueError):
        return math.inf


def _outcome_of(evaluate):
    """evaluate() with numpy warnings off, or the type of the ArithmeticError
    it raised (Python float arithmetic raises where numpy gives inf)."""
    try:
        with np.errstate(all="ignore"):
            return evaluate()
    except ArithmeticError as err:
        return type(err)


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(SMALL_TREES, SMALL_TREES)
    # two terms near 1e17 that cancel, -cos(pi)*exp(exp(t)) - exp(exp(t))
    @example(Add((Cos(Pi()), Cos(Rat(0)))), Exp(Add((Var("x"), Exp(Var("x"))))))
    def test_matches_eval_expr_on_shared_subtrees(self, s, t):
        # s and t occur several times, as the same objects and as equal copies
        t_copy = pickle.loads(pickle.dumps(ring(t)))
        e = ring(Add((Mul((s, t)), Sin(s), neg(Mul((Exp(t_copy), s))),
                      div(t, Add((Rat(Fraction(3)), Mul((s, s))))), Cos(Add((s, t_copy))))))
        rng = random.Random(3)
        pts = [{n: rng.uniform(-1.0, 1.0) for n in "xyz"} for _ in range(20)]
        with np.errstate(all="ignore"):
            got = np.broadcast_to(compile_expr(e, "xyz")(
                *(np.array([p[n] for p in pts]) for n in "xyz")), (len(pts),))
        tree = rebuild(e)  # the sum both evaluators add up
        for k, env in zip(got, pts):
            try:
                want = eval_expr(e, env)
            except (ArithmeticError, ValueError):  # beyond Python's float range
                continue
            if math.isfinite(want):
                assert abs(k - want) <= 1e-9 * (1 + _magnitude(tree, env)), (k, want)

    def test_constant_past_the_float_range_is_inf(self):
        # the value float arithmetic gives to a quotient past the float range
        for text, want in (("1e300*1e300*x", math.inf), ("-1e300*1e300*x", -math.inf)):
            assert compile_expr(fc.parse_expr(text, "x"), "x")(1.0) == want

    def test_shared_subtree_computed_once(self):
        calls = []

        def counting_sin(a):
            calls.append(a)
            return np.sin(a)

        with mock.patch.dict(fc.expr._UNARY, {fc.expr.Sin: counting_sin}):
            kernel = compile_expr(fc.parse_expr("sin(x)*sin(x) + sin(x)", "xyz"), "xyz")
        x = np.linspace(-2.0, 2.0, 9)
        assert np.array_equal(kernel(x, 0.0, 0.0), np.sin(x) * np.sin(x) + np.sin(x))
        assert len(calls) == 1

    @settings(max_examples=200, deadline=None)
    @given(SMALL_TREES, SMALL_TREES)
    @example(Var("x"), Rat(Fraction(0)))  # x^-1 and x^-2 at x = 0.0: inf, as numpy gives
    @example(Add((Var("x"), Var("y"))), Add((Var("y"), Rat(Fraction(1, 3)))))  # Horner in y
    def test_bit_identical_to_the_polynomial_written_out(self, s, t):
        # s and t shared, a quotient and a negative power: the operation-order
        # contract of `compile_expr`, against the tree `rebuild` writes for
        # the coordinates x, y and z (Horner's rule, or the sum of terms in
        # `_monomials` order)
        cases = []
        for tree in (s, Add((Mul((s, t)), Sin(s), neg(Mul((t, s))), Cos(Add((s, t))))),
                     div(s, Add((t, Pow(s, 2)))), Pow(Add((s, t)), -2)):
            try:
                cases.append(ring(tree))
            except ZeroDivisionError:  # a quotient by a symbolic zero has no polynomial
                pass
        line = [np.linspace(-1.0, 1.0, 11) + k / 7 for k in range(3)]
        mesh = np.meshgrid(*(np.linspace(-1.0, 1.0, n) for n in (3, 4, 5)),
                           indexing="ij", sparse=True)
        for e in cases:
            for cols in (line, mesh):
                env = dict(zip("xyz", cols))
                got = _outcome_of(lambda: compile_expr(e, "xyz")(*cols))
                want = _outcome_of(lambda: _written_out(rebuild(e, "xyz"), env))
                assert type(got) is type(want), (e, got, want)
                if not isinstance(want, type):
                    assert np.shape(got) == np.shape(want)
                    assert np.array_equal(got, want, equal_nan=True), (e, got, want)

    def test_slots_are_cleared_after_their_last_use(self):
        # sin(x + k), k = 1..8, each squared early on and never used again:
        # cleared slots leave about 3 arrays alive at once, kept ones 30
        x = Var("x")
        shared = [Sin(Add((x, Rat(Fraction(k))))) for k in range(1, 9)]
        squares = Add(tuple(Mul((s, s)) for s in shared))
        kernel = compile_expr(ring(Cos(Exp(neg(squares)))), "xyz")
        cols = (np.linspace(0.0, 1.0, 2 ** 21), 0.0, 0.0)
        tracemalloc.start()
        try:
            kernel(*cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * cols[0].nbytes

    def test_value_on_the_axes_it_reads(self):
        x, y, z = np.meshgrid(*[np.linspace(0.0, 1.0, n) for n in (3, 4, 5)],
                              indexing="ij", sparse=True)
        assert np.shape(compile_expr(fc.parse_expr("sin(y)*y", "xyz"), "xyz")(x, y, z)) == (1, 4, 1)
        assert compile_expr(fc.parse_expr("2*pi", "xyz"), "xyz")(x, y, z) == 2 * math.pi

    def test_negative_constant_base(self):
        # (-1)^2 is the constant 1, and (-1)*x^2 multiplies -1.0 by x ** 2
        assert compile_expr(ring(Pow(Rat(Fraction(-1)), 2)), "xyz")(0.0, 0.0, 0.0) == 1.0
        assert compile_expr(fc.parse_expr("-x^2", "xyz"), "xyz")(3.0, 0.0, 0.0) == -9.0


#: a polynomial in x, y and z: (coefficient, (ex, ey, ez)) terms
POLY_TERMS = st.lists(st.tuples(st.fractions(-9, 9, max_denominator=7).filter(bool),
                                st.tuples(*[st.integers(0, 5)] * 3)), min_size=1, max_size=8)
DATA = Path(__file__).parent / "data"


def _no_horner(p, axes):
    return None


def _poly_of(terms):
    return ring(Add(tuple(Mul((Rat(c), *(Pow(Var(n), k) for n, k in zip("xyz", ks) if k)))
                          for c, ks in terms)))


def _xyz_terms(e):
    """The terms of a polynomial in x, y and z as (coefficient, (ex, ey, ez))."""
    out = []
    for m, c in e.nums.items():
        ks = [0, 0, 0]
        for i, k in m:
            ks["xyz".index(e.atoms[i].name)] = k
        out.append((Fraction(c, e.den), tuple(ks)))
    return out


class TestHornerKernel:
    """A polynomial that reads two or more axes, with a bare coordinate to a
    power of 2 or more, compiles to Horner's rule in that coordinate."""

    @settings(max_examples=300, deadline=None)
    @given(POLY_TERMS, st.integers(0, 2**32 - 1))
    @example([(Fraction(1), (3, 1, 0)), (Fraction(-3), (2, 0, 1)), (Fraction(3), (1, 1, 0)),
              (Fraction(-1), (0, 0, 1))], 0)  # (x - y)^3-like cancellation
    def test_within_the_horner_bound_of_eval_expr(self, terms, seed):
        # Higham, Accuracy and Stability, (5.3): Horner's rule of degree d
        # errs by at most gamma_2d * p~(|x|), p~ the polynomial of absolute
        # coefficients.  A term of the nested form passes at most N
        # roundings: 2 per degree of each coordinate's Horner chain, one
        # per addition within a cofactor, one per factor (power, product,
        # the coefficient's float); numpy's power is counted at 2 ulp.  The
        # reference `eval_expr` sums exactly rounded terms (fsum).
        e = _poly_of(terms)
        assume(fc.expr._horner_split(e, {fc.expr.Var(n): i for i, n in enumerate("xyz")}))
        degree = [max(ks[i] for _, ks in _xyz_terms(e)) for i in range(3)]
        n = 2 * sum(degree) + len(e.nums) + 2 * 4 + 2
        gamma = n * 2.0 ** -52 / (1 - n * 2.0 ** -52)
        rng = random.Random(seed)
        pts = [{v: rng.uniform(-2.0, 2.0) for v in "xyz"} for _ in range(16)]
        cols = [np.array([p[v] for p in pts]) for v in "xyz"]
        got = np.broadcast_to(compile_expr(e, "xyz")(*cols), (len(pts),))
        for value, env in zip(got, pts):
            want = eval_expr(e, env)
            absolute = math.fsum(abs(c) * math.prod(abs(env[v]) ** k for v, k in zip("xyz", ks))
                                 for c, ks in _xyz_terms(e))
            assert abs(value - want) <= 2 * gamma * absolute, (e, env, value, want)

    def test_never_writes_into_its_arguments(self):
        # x and z tie at degree 3, so Horner runs in x, and its cofactors
        # c_3 = y, c_2 = z and c_1 = y are arguments themselves
        text = "x^3*y + x^2*z + x*y + z + y^2*z^3"
        kernel = compile_expr(fc.parse_expr(text, "xyz"), "xyz")
        cols = [np.linspace(-1.0, 1.0, 5) + k for k in range(3)]
        for c in cols:
            c.flags.writeable = False
        copies = [c.copy() for c in cols]
        first = kernel(*cols)
        assert all(np.array_equal(c, k) for c, k in zip(cols, copies))
        x, y, z = copies
        want = x ** 3 * y + x ** 2 * z + x * y + z + y ** 2 * z ** 3
        assert np.allclose(first, want, rtol=1e-14, atol=1e-13)
        assert np.array_equal(kernel(*cols), first)

    def test_torus_volume_kernel_holds_about_one_full_grid_array(self):
        form = fc.parse_form_file((DATA / "torus_pullback.form").read_text(encoding="utf-8"))
        kernel = form._volume_kernel
        cols = np.meshgrid(*form.chart.grid_axes(128), indexing="ij", sparse=True)
        full = 8 * 128 ** 3
        tracemalloc.start()
        try:
            kernel(*cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * full

    @pytest.mark.parametrize("text, grids", [
        *[((DATA / name).read_text(encoding="utf-8"), (8, 24, 64)) for name in
          ("torus_pullback.form", "mixed_all_axes.form", "connection.form",
           "quotient_by_sum.form", "signs_and_quotients.form", "flat_dx.form")],
        ("chart x:[-1,1] y:[-1,1] z:[-1,1]; form dz - exp(exp(exp(3*x)))*y^2*z*dx", (8,)),
        ("chart x:[-1,1] y:[-1,1] z:[-1,1]; form dz - (y^3*x*z + y - x^2*z^2/3)*dx", (8, 24, 97)),
    ])
    def test_same_reports_as_the_sum_of_terms(self, text, grids):
        # the verdict, counts, witnesses, the non-finite point and the printed
        # min_abs of the Horner kernel are those of the left-to-right sum
        for grid in grids:
            reports = []
            for horner in (True, False):
                with mock.patch.object(fc.expr, "_horner_split",
                                       fc.expr._horner_split if horner else _no_horner):
                    form = fc.parse_form_file(text)
                    try:
                        rep = fc.contact_sign(form, grid)
                        reports.append((rep.sign, f"{rep.min_abs:.12g}", rep.witnesses,
                                        rep.samples))
                    except ArithmeticError as err:
                        reports.append(str(err))
            assert reports[0] == reports[1], (grid, reports)


ATOM_TYPES = (fc.expr.Pi, fc.expr.Var, fc.expr.Sin, fc.expr.Cos, fc.expr.Exp, fc.expr.Recip)
MEMOS = (fc.normalize, fc.expr._text, fc.expr._monomials, fc.expr._datom)


class TestPolynomialObjects:
    def test_equal_polynomials_hash_equal_and_share_the_normalize_cache(self):
        text = "sin(x*y)^3 + exp(z)/(1 + x^2) - cos(y)*z"
        a, b = fc.parse_expr(text, "xyz"), fc.parse_expr(text, "xyz")
        assert a is not b and a == b and hash(a) == hash(b)
        fc.normalize(a)
        hits = fc.normalize.cache_info().hits
        assert fc.normalize(b) is fc.normalize(a)
        assert fc.normalize.cache_info().hits == hits + 2

    def test_pickle_rebuilds_the_hash(self):
        e = fc.parse_expr("sin(x)*y + 1/3", "xyz")
        hash(e)
        copy = pickle.loads(pickle.dumps(e))
        assert copy == e and not hasattr(copy, "_hash") and hash(copy) == hash(e)

    def test_a_polynomial_pickles_by_its_atoms_not_their_ids(self):
        # ids are per process: a copy unpickled after the atoms were dropped
        # and numbered again equals the polynomial parsed afresh
        text = "sin(x)*y + 1/3 + y*sin(x)/(x + y + exp(z))"
        e = fc.parse_expr(text, "xyz")
        _, (terms, den) = e.__reduce__()
        assert {type(a) for factors, _ in terms for a, _ in factors} <= set(ATOM_TYPES)
        data = pickle.dumps(e)
        del e, terms
        for memo in MEMOS:
            memo.cache_clear()
        gc.collect()
        copy = pickle.loads(data)
        assert copy == fc.parse_expr(text, "xyz") and fc.render(copy) == fc.render(
            fc.parse_expr(text, "xyz"))

    def test_no_node_has_an_instance_dict(self):
        x = fc.parse_expr("x", "xyz")
        atoms = [fc.expr.Pi(), fc.expr.Var("x"), fc.expr.Sin(x), fc.expr.Cos(x), fc.expr.Exp(x),
                 fc.expr.Recip(fc.parse_expr("x + 1", "xyz"))]
        assert {type(a) for a in atoms} == set(ATOM_TYPES)
        assert {c.__name__ for c in ATOM_TYPES} == {c.__name__ for c in fc.expr.Atom.__subclasses__()}
        for n in atoms + [x, fc.parse_expr("x/(x + 1) + sin(x)", "xyz")]:
            hash(n)
            assert not hasattr(n, "__dict__"), type(n)

    def test_the_monomials_of_kept_polynomials_are_untracked(self):
        # tuples of ints leave the collector's lists, and frozensets never
        # did.  A collection visits a monomial before its (id, exponent)
        # pairs, so the first untracks the pairs and the second the monomial
        form = fc.parse_form_file((Path(__file__).parent / "data" / "torus_pullback.form")
                                  .read_text())
        kept = [*form.coefficients, fc.volume_coefficient(form),
                *fc.exterior_derivative(form).values()]
        gc.collect()
        gc.collect()
        monomials = [m for c in kept for m in c.nums]
        assert len(monomials) > 10
        assert not [m for m in monomials if gc.is_tracked(m)]

    def test_dropped_forms_give_their_atom_ids_back(self):
        # the id table holds atoms weakly, so the memos' bound is its bound
        def cleared():
            for memo in MEMOS:
                memo.cache_clear()
            gc.collect()
            return len(fc.expr._ATOM_IDS)

        start = cleared()
        for k in range(2000):
            e = fc.parse_expr(f"sin({k}*x)*y + exp(z/{k + 1}) - x/(y + {k})", "xyz")
            fc.diff(fc.normalize(e), "x")
        assert len(fc.expr._ATOM_IDS) >= start + 3 * 2000
        del e
        assert cleared() == start

    def test_equal_atoms_keep_one_id_while_a_polynomial_holds_one(self):
        # the second polynomial must hold the atom that was numbered, not its
        # own equal copy, or the id is given back while that copy lives on
        def probe():
            return fc.expr.Sin(fc.parse_expr("atom_id_probe", ["atom_id_probe"]))

        atom = probe()
        p1 = fc.expr._atom(atom)
        p2 = fc.expr._atom(probe())
        del p1, atom
        gc.collect()
        p3 = fc.expr._atom(probe())
        assert p3.nums == p2.nums and p2 - p3 == fc.expr.ZERO


class TestNormalizer:
    def test_binomial_cancellation(self):
        e = fc.parse_expr("(x+y)^3 - x^3 - 3*x^2*y - 3*x*y^2 - y^3", ["x", "y"])
        assert fc.render(fc.normalize(e)) == "0"

    def test_quotient_like_terms_merge(self):
        e = fc.parse_expr("x/(1+y^2) + (2*x)/(1+y^2) - (3*x)/(1+y^2)", ["x", "y"])
        assert fc.render(fc.normalize(e)) == "0"

    def test_function_argument_normalisation(self):
        a = fc.parse_expr("sin(x + y) - sin(y + x)", ["x", "y"])
        assert fc.render(fc.normalize(a)) == "0"
        b = fc.parse_expr("cos(2*x*y) - cos(y*2*x)", ["x", "y"])
        assert fc.render(fc.normalize(b)) == "0"

    def test_negative_power_monomials(self):
        e = fc.parse_expr("x^2/x^3 - 1/x", ["x"])
        assert fc.render(fc.normalize(e)) == "0"

    def test_mixed_partials_cancel(self):
        # diff differentiates a quotient by a sum s through the atom s^-1, so
        # quotients cancel symbolically too (the normal form is still light:
        # no common-denominator reduction)
        f = fc.parse_expr("sin(x*y)*exp(z) + x^2*y^3", ["x", "y", "z"])
        g = fc.parse_expr("sin(x*y)/(1 + z^2) + exp(x/(y + z))*cos(z/(x + 1))", ["x", "y", "z"])
        for e in (f, g):
            for u, v in (("x", "y"), ("y", "z"), ("x", "z")):
                lhs = fc.diff(fc.diff(e, u), v)
                rhs = fc.diff(fc.diff(e, v), u)
                assert fc.render(lhs - rhs) == "0"


class TestCatalogInvariance:
    def test_positive_multiple_preserves_every_recorded_sign(self):
        for key, entry in fc.model_library().items():
            if entry.expected_sign is None:
                continue
            names = entry.form.chart.names
            factor = fc.parse_expr(f"1 + {names[0]}^2/8", names)
            scaled = fc.OneForm(entry.form.chart,
                                tuple(factor * c for c in entry.form.coefficients))
            assert fc.contact_sign(scaled, grid=16).sign == entry.expected_sign, key


def _dense_contact_sign(form, grid=64, tol=1e-12):
    """Reference: `contact_sign` on the dense `meshgrid`, with every kernel
    padded to the full mesh by 0.0*(x + y + z), as it was before the reduced
    grid."""
    chart = form.chart

    def padded(fn, cols):
        return fn(*cols) + 0.0 * functools.reduce(operator.add, cols)

    def sample_mask(mesh):
        keep = np.ones(np.broadcast(*mesh).shape, dtype=bool)
        for expr, eps in chart.exclusions:
            with np.errstate(all="ignore"):
                vals = padded(compile_expr(fc.normalize(expr), chart.names), mesh)
            keep &= np.abs(vals) >= eps
        return keep

    fn = compile_expr(fc.volume_coefficient(form), chart.names)
    axes = chart.grid_axes(grid)
    mesh = np.meshgrid(*axes, indexing="ij")
    keep = sample_mask(mesh)
    with np.errstate(all="ignore"):
        vals = padded(fn, mesh)
    vals = np.where(keep, vals, np.nan)

    def witness_at(mask):
        idx = tuple(int(k[0]) for k in np.nonzero(mask))
        return tuple(float(m[idx]) for m in mesh)

    bad = keep & ~np.isfinite(vals)
    if bad.any():
        raise ArithmeticError(f"alpha ^ d(alpha) is {vals[bad][0]} at the grid point "
                              f"{witness_at(bad)}, which no exclusion removes")
    flat = vals[np.isfinite(vals)]
    if flat.size == 0:
        raise ValueError("no samples survive the exclusions")

    has_pos = bool((flat > tol).any())
    has_neg = bool((flat < -tol).any())
    if has_pos and has_neg:
        wp = witness_at(np.nan_to_num(vals, nan=0.0) > tol)
        wn = witness_at(np.nan_to_num(vals, nan=0.0) < -tol)
        return fc.ContactReport("Mixed", float(np.nanmin(np.abs(vals))), (wp, wn),
                                samples=int(flat.size))

    flagged = np.isfinite(vals) & (np.abs(vals) < 10 * tol)
    min_abs = float(np.min(np.abs(flat)))
    if flagged.any():
        steps = np.array([(ax[1] - ax[0]) / 2 if len(ax) > 1 else 0.0 for ax in axes])
        centers = np.stack([m[flagged] for m in mesh], axis=-1)
        offsets = np.array(list(itertools.product((-1, 0, 1), repeat=chart.dim)))
        # clamped onto a non-periodic range
        bounds = np.array([(-np.inf, np.inf) if per else r
                           for r, per in zip(chart.ranges, chart.periodic)])
        pts = np.clip(centers[:, None, :] + offsets * steps, bounds[:, 0], bounds[:, 1])
        pts = pts.reshape(-1, chart.dim)
        cols = list(pts.T)
        with np.errstate(all="ignore"):
            ref_vals = padded(fn, cols)
        kept = sample_mask(cols) & np.isfinite(ref_vals)
        pts, ref_vals = pts[kept], ref_vals[kept]
        all_vals = np.concatenate([flat, ref_vals])
        min_abs = float(np.min(np.abs(all_vals)))
        if (np.abs(all_vals) <= tol).any() or ((all_vals > tol).any() and (all_vals < -tol).any()):
            witness = (tuple(pts[np.argmin(np.abs(ref_vals))].tolist()) if ref_vals.size
                       else witness_at(flagged))
            return fc.ContactReport("Mixed", min_abs, (witness,),
                                    samples=int(all_vals.size))
    sign = "Positive" if has_pos else "Negative"
    return fc.ContactReport(sign, min_abs, (), samples=int(flat.size))
