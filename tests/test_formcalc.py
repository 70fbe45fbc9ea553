import math
import random
import sys
import time
from fractions import Fraction

import pytest

from contactbundles import formcalc as fc
from contactbundles.formcalc.expr import MAX_EXPONENT, Rat, Var, eval_expr
from contactbundles.formcalc.models import (fiber_tube_pullback, scaling_flow_components,
                                            torus_wrapping_pullback)

XYZ = fc.Chart(("x", "y", "z"), ((-2.0, 2.0),) * 3)


def coeff_values(form, env):
    return [eval_expr(c, env) for c in form.coefficients]


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
        n = fc.normalize(e)
        assert isinstance(n, Rat) and n.value == Fraction(3, 8) + Fraction(1, 1000)

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
        chart = fc.parse_chart("chart x:[-2,2] y:[-2,2] z:[-2,2]; periodic z; exclude x<1e-3;")
        assert chart.names == ("x", "y", "z")
        assert chart.periodic == (False, False, True)
        assert len(chart.exclusions) == 1 and chart.exclusions[0][1] == pytest.approx(1e-3)

    def test_form_file(self):
        text = ("chart r:[0.05,1.4] theta:[0,6.28] z:[0,6.28];\n"
                "periodic theta z;\nexclude r<1e-3;\nform (1-r^4)*dz + r^2*dtheta")
        f = fc.parse_form_file(text)
        assert f.chart.names == ("r", "theta", "z")
        assert eval_expr(f.coefficients[1], {"r": 0.5, "theta": 1.0, "z": 1.0}) == pytest.approx(0.25)


class TestExteriorDerivative:
    def test_standard_structure(self):
        d = fc.exterior_derivative(fc.parse_form("dz - y*dx", XYZ))
        assert fc.render(d.coefficient(0, 1)) == "1"
        assert fc.render(d.coefficient(0, 2)) == "0"
        assert fc.render(d.coefficient(1, 2)) == "0"

    def test_d_squared_zero_symbolically(self):
        f = fc.parse_expr("sin(x)*y", ["x", "y", "z"])
        df = fc.OneForm(XYZ, tuple(fc.diff(f, v) for v in ("x", "y", "z")))
        dd = fc.exterior_derivative(df)
        for _, _, c in dd.table:
            assert fc.render(c) == "0"

    def test_d_squared_zero_numerically(self):
        rng = random.Random(20)
        f = fc.parse_expr("exp(x)*sin(y*z) + x^3/(1 + y^2)", ["x", "y", "z"])
        df = fc.OneForm(XYZ, tuple(fc.diff(f, v) for v in ("x", "y", "z")))
        dd = fc.exterior_derivative(df)
        for env in XYZ.random_points(100, rng):
            for _, _, c in dd.table:
                assert abs(eval_expr(c, env)) <= 1e-10

    def test_cylindrical_model(self):
        zeta = fc.solid_torus_universal_form()
        d = fc.exterior_derivative(zeta)
        rng = random.Random(21)
        for env in zeta.chart.random_points(50, rng):
            r = env["r"]
            assert eval_expr(d.coefficient(0, 1), env) == pytest.approx(2 * r, rel=1e-12)
            assert eval_expr(d.coefficient(0, 2), env) == pytest.approx(-4 * r ** 3, rel=1e-12)
            assert abs(eval_expr(d.coefficient(1, 2), env)) <= 1e-15


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
        # volume coefficient (x+2)/(x+9/4): zero on the grid at x = -2, pole
        # at the refined neighbour x = -2.25
        f = fc.parse_form("dz - y*(x+2)/(x+9/4)*dx", XYZ)
        rep = fc.contact_sign(f, grid=9)
        assert rep.sign == "Mixed" and rep.min_abs == 0.0
        (w,) = rep.witnesses
        assert w[0] == -2.0
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
            from contactbundles.formcalc.expr import Mul
            scaled = fc.OneForm(XYZ, tuple(Mul((factor, c)) for c in base.coefficients))
            assert fc.contact_sign(scaled, grid=16).sign == "Positive"

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            fc.contact_sign(fc.hopf_plane_field_form())


class TestPullback:
    def test_identity_map(self):
        f = fc.parse_form("dz + x*dy - y*dx", XYZ)
        comps = tuple(Var(n) for n in XYZ.names)
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
            fc.pullback((Var("x"),), XYZ, fc.parse_form("dz - y*dx", XYZ))


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
        got = fc.forms.coefficient_values(f, pts)
        assert got.shape == (3, 20)
        for j, env in enumerate(pts):
            assert got[:, j] == pytest.approx(coeff_values(f, env), rel=1e-14, abs=1e-15)


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

    def test_all_3d_entries_have_recorded_sign(self):
        for key, entry in fc.model_library().items():
            if entry.expected_sign is None:
                continue
            rep = fc.contact_sign(entry.form, grid=24)
            assert rep.sign == entry.expected_sign, key

    def test_fiber_rotation_enrollment(self):
        lib = fc.model_library()
        entry = lib["fiber_rotation"]
        n = dict(entry.params)["n"]
        assert entry.enrollment == -n

    def test_connection_family_sign_criterion(self):
        # d_y u < 0 makes the connection form contact positive; the reversed
        # profile flips the sign
        u_bad = fc.parse_expr("y", ["y", "x", "theta"])
        from contactbundles.formcalc.models import connection_family
        assert fc.contact_sign(connection_family(u_bad), grid=12).sign == "Negative"
        u_good = fc.parse_expr("-y*(1 + x^2/8)", ["y", "x", "theta"])
        assert fc.contact_sign(connection_family(u_good), grid=12).sign == "Positive"


class TestWrappedEmbeddings:
    @pytest.mark.parametrize("pq", [(-4, 15), (-1, 1)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_contact_positive(self, pq, sign):
        p, q = pq
        rep = fc.contact_sign(torus_wrapping_pullback(p, q, sign), grid=16)
        assert rep.sign == "Positive"


class TestHopf:
    def test_time_zero_exact(self):
        chk = fc.hopf_invariance_check(times=[Fraction(0)], points=50)
        assert chk.ok and chk.max_error == 0.0

    def test_quarter_turn_plus(self):
        chk = fc.hopf_invariance_check(times=[Fraction(1, 4)], points=100)
        assert chk.ok and chk.max_error <= 1e-12

    def test_random_time_both_variants(self):
        chk = fc.hopf_invariance_check(times=[Fraction(7, 13)], points=100)
        assert chk.ok


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
        from contactbundles.formcalc.expr import Add, Neg
        # polynomial-trig trees cancel symbolically; quotient trees are only
        # guaranteed to cancel numerically (normalization is deliberately
        # light: no common-denominator reduction)
        f = fc.parse_expr("sin(x*y)*exp(z) + x^2*y^3", ["x", "y", "z"])
        for u, v in (("x", "y"), ("y", "z"), ("x", "z")):
            lhs = fc.diff(fc.diff(f, u), v)
            rhs = fc.diff(fc.diff(f, v), u)
            assert fc.render(fc.normalize(Add((lhs, Neg(rhs))))) == "0"
        g = fc.parse_expr("sin(x*y)/(1 + z^2)", ["x", "y", "z"])
        rng = random.Random(41)
        for u, v in (("x", "y"), ("y", "z"), ("x", "z")):
            diffterm = fc.normalize(Add((fc.diff(fc.diff(g, u), v),
                                         Neg(fc.diff(fc.diff(g, v), u)))))
            for env in XYZ.random_points(50, rng):
                assert abs(eval_expr(diffterm, env)) <= 1e-12


class TestCatalogInvariance:
    def test_positive_multiple_preserves_every_recorded_sign(self):
        from contactbundles.formcalc.expr import Mul, Var, Pow, Rat, Add
        from fractions import Fraction as F
        for key, entry in fc.model_library().items():
            if entry.expected_sign is None:
                continue
            first = Var(entry.form.chart.names[0])
            factor = Add((Rat(F(1)), Mul((Rat(F(1, 8)), Pow(first, 2)))))
            scaled = fc.OneForm(entry.form.chart,
                                tuple(Mul((factor, c)) for c in entry.form.coefficients))
            assert fc.contact_sign(scaled, grid=16).sign == entry.expected_sign, key
