"""Property tests of the form parser and of the CLI's exit contract on fuzzed input:
`forms --form-file`, `multicurve --file` and the argv of `classify`,
`holonomy`, `polygon` and `covers`."""

import contextlib
import io
import json
import os
import tempfile
import time
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from contactbundles import cli  # noqa: E402
from contactbundles import formcalc as fc  # noqa: E402
from contactbundles import multicurve as mc  # noqa: E402
from contactbundles.formcalc import expr as fx  # noqa: E402
from expr_reference import (Add, Cos, Exp, Mul, Pi, Pow, Rat, Sin, Var, div, neg,  # noqa: E402
                            render_tree, ring)

XYZ = fc.Chart(("x", "y", "z"), ((-2.0, 2.0),) * 3)

leaves = st.one_of(
    st.sampled_from([Var("x"), Var("y"), Var("z"), Pi()]),
    st.builds(lambda p, q: Rat(Fraction(p, q)), st.integers(-9, 9), st.integers(1, 4)),
)


def _extend(children):
    return st.one_of(
        st.builds(lambda a, b: Add((a, b)), children, children),
        st.builds(lambda a, b: Mul((a, b)), children, children),
        st.builds(div, children, children),
        st.builds(Pow, children, st.integers(-3, 3)),
        st.builds(neg, children),
        st.builds(Sin, children),
        st.builds(Cos, children),
        st.builds(Exp, children),
    )


coefficients = st.recursive(leaves, _extend, max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(st.tuples(coefficients, coefficients, coefficients))
@example((Pow(Pow(Var("x"), 3), 6), Pow(Pow(Var("y"), -3), 7), Rat(Fraction(1))))  # x^18, y^-21
def test_printed_form_parses_back(coeffs):
    try:
        form = fc.OneForm(XYZ, tuple(map(ring, coeffs)))
    except ZeroDivisionError:  # a quotient by a symbolic zero has no form
        assume(False)
    assert fc.parse_form(form.text(), XYZ).coefficients == form.coefficients


FORM_TOKENS = ["dx", "dy", "dz", "x", "y", "z", "w", "pi", "sin", "cos", "exp", "+", "-",
               "*", "/", "^", "(", ")", "0", "2", "16", "17", "0.5", "1e3", "1e999", " "]


@settings(max_examples=150, deadline=5000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.lists(st.sampled_from(FORM_TOKENS), max_size=14).map("".join),
                 st.text(alphabet="dxyz+-*/^().e0123456789 ", max_size=20)))
@example("dz + 1e300^2*x*dy")  # a coefficient beyond the float range
@example("dz + 1e9999999*x*dy")
@example("x^99999999*dy + dz")
def test_form_file_exit_contract(tmp_path, text):
    path = tmp_path / "fuzz.form"
    path.write_text(f"chart x:[-1,1] y:[-1,1] z:[-1,1];\nform {text}\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["forms", "--form-file", str(path), "--grid", "4"])
    assert code in (0, 1, 2)
    if code in (0, 1):
        report = json.loads(out.getvalue())
        assert ("error" in report) == (code == 1)


@pytest.mark.parametrize("text", ["(" * 3000 + "x" + ")" * 3000 + "*dy + dz",
                                  "(" + "-" * 3000 + "x)*dy + dz",
                                  "((x+y+z)^16)^16*dy + dz",
                                  "(x+y+z+1)^16*(x+y+z+1)^16*(x+y+z+1)^16*dy + dz",
                                  "(x+y+z+1)^16/(x+y+z+1)^16*dy + dz",
                                  "*".join(["x"] * 3000) + "*dy + dz",
                                  "*".join(["2"] * 3000) + "*dy + dz",
                                  "/".join(["2"] * 3000) + "*dy + dz",
                                  " + ".join(["x*dy"] * 3000) + " + dz"])
def test_form_file_bounds_nesting_and_expansion(tmp_path, text):
    assert_refused_at_once(tmp_path, f"chart x:[-1,1] y:[-1,1] z:[-1,1];\nform {text}\n")


@pytest.mark.parametrize("header", ["chart x:[0,1e999999999] y:[-1,1] z:[-1,1];",
                                    "chart x:[-1,1] y:[-1,1] z:[-1,1]; exclude x<1e999999999;",
                                    "chart x:[-1,1] y:[-1,1] z:[-1,1]; param a=1e999999999;",
                                    "chart x:[-1e308,1e308] y:[-1,1] z:[-1,1];",
                                    "chart x:[0,1e309] y:[-1,1] z:[-1,1];"])
def test_form_file_header_numbers_bounded(tmp_path, header):
    """Header numbers are read under the decimal-exponent bound of literals,
    and a range's endpoints and width are finite floats."""
    assert_refused_at_once(tmp_path, f"{header}\nform dz - y*dx\n")


def assert_refused_at_once(tmp_path, text):
    """`forms` refuses the form file `text` within 1 s: rc 1 and a
    FormSyntaxError object."""
    path = tmp_path / "refused.form"
    path.write_text(text)
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["forms", "--form-file", str(path), "--grid", "4"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert json.loads(out.getvalue())["error"]["type"] == "FormSyntaxError"


@pytest.mark.parametrize("op,factor", [("*", "x"), ("*", "2"), ("/", "2"), ("*", "sin(y)")])
def test_chain_bounded_by_tree_depth(tmp_path, op, factor):
    """A form whose tree is MAX_DEPTH tall runs through `forms`; a chain one
    level taller than MAX_DEPTH is refused at its last factor."""
    depth = fc.expr.MAX_DEPTH
    # the form adds one level above its coefficient; sin(y), and the
    # reciprocal of a factor after '/', one under each factor
    k = depth - 1 if op == "/" or factor == "sin(y)" else depth
    path = tmp_path / "deep.form"
    path.write_text(f"chart x:[-1,1] y:[-1,1] z:[-1,1];\n"
                    f"form dz + {op.join([factor] * k)}*dy\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["forms", "--form-file", str(path), "--grid", "4"])
    assert code == 0, out.getvalue()
    chain = op.join([factor] * (k + 1))
    fc.expr.parse_expr(chain, "xyz")
    with pytest.raises(fc.FormSyntaxError) as info:
        fc.expr.parse_expr(f"{chain}{op}{factor}", "xyz")
    assert info.value.position == len(f"{chain}{op}")


def test_chains_read_as_their_left_deep_tree():
    """The depth bound refuses long chains; a short one reads as the
    polynomial of its left-deep tree."""
    x, y, z, two = Var("x"), Var("y"), Var("z"), Rat(Fraction(2))
    assert fc.expr.parse_expr("x*y/z*2/x", "xyz") == \
        ring(Mul((Mul((Mul((Mul((x, y)), Pow(z, -1))), two)), Pow(x, -1))))


ATOMS = {fx.Pi, fx.Var, fx.Sin, fx.Cos, fx.Exp, fx.Recip}
COEFFICIENT_TOKENS = [t for t in FORM_TOKENS if not t.startswith("d")]


@settings(max_examples=150, deadline=None)
@given(st.one_of(coefficients.map(render_tree),
                 st.lists(st.sampled_from(COEFFICIENT_TOKENS), max_size=14).map("".join)))
@example("-1 - -(x + y)/(1 - z)^2 + 2*-3/4 - x^-1/-y")
def test_parsed_coefficients_are_polynomials_over_atoms(text):
    """A parsed coefficient is one polynomial: its atoms, and the atoms of
    their arguments, are of the six atom types `expr` defines; it is the
    polynomial of the text's tree, and it renders to text that parses back
    to it."""
    assert {c.__name__ for c in fx.Atom.__subclasses__()} == {c.__name__ for c in ATOMS}
    try:
        e = fc.parse_expr(text, "xyz")
    except (fc.FormSyntaxError, ZeroDivisionError):
        assume(False)
    stack = [e]
    while stack:
        p = stack.pop()
        assert type(p) is fx.Expr, (text, p)
        for a in p.atoms.values():
            assert type(a) in ATOMS, (text, a)
            if not isinstance(a, (fx.Var, fx.Pi)):
                stack.append(a.arg)
    assert fc.parse_expr(fc.render(e), "xyz") == e


def _holding(shared):
    """Trees that hold the subtree `shared` once, at some depth inside
    products, sums, quotients, signs and function calls."""
    return st.recursive(st.just(shared), lambda inner: st.one_of(
        st.builds(lambda a, b: Mul((a, b)), inner, coefficients),
        st.builds(lambda a, b: Add((a, b)), coefficients, inner),
        st.builds(div, coefficients, inner),
        st.builds(neg, inner),
        st.builds(Sin, inner),
        st.builds(Exp, inner),
    ), max_leaves=4)


def _outcome(read):
    try:
        return read()
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(max_examples=150, deadline=None)
@given(coefficients.flatmap(lambda s: st.tuples(_holding(s), _holding(s), _holding(s))))
@example((Sin(Add((Var("x"), Var("y")))), Mul((Add((Var("x"), Var("y"))), Rat(2))),
          Exp(Sin(Add((Var("x"), Var("y")))))))
def test_a_shared_subtree_reads_as_its_tree(trees):
    """The parser reads a repeated group once; the text of a tree that holds
    one subtree three times, at any depths, still reads as the tree does,
    a division by a symbolic zero included."""
    tree = Add(trees)
    try:
        read = _outcome(lambda: fc.parse_expr(render_tree(tree), "xyz"))
    except fc.FormSyntaxError:  # past a bound of the parser
        assume(False)
    assert read == _outcome(lambda: ring(tree))


def test_nested_exponents_bounded_by_their_product():
    fc.parse_form("((x+y)^4)^4*dy + dz", XYZ)
    with pytest.raises(fc.FormSyntaxError) as info:
        fc.parse_form("((x+y)^4)^5*dy + dz", XYZ)
    assert info.value.position == len("((x+y)^4)^")


def test_products_bounded_by_their_total_degree():
    fc.parse_form("(x+y)^8*(x-z)^8*x^16*sin((y+1)^16)*dy + dz", XYZ)
    for text in ("(x+y)^8*(x-z)^9*dy + dz", "(x+y)^8/(x-z)^9*dy + dz",
                 "(x+y)^8*-(x-z)^9*dy + dz"):
        with pytest.raises(fc.FormSyntaxError) as info:
            fc.parse_form(text, XYZ)
        assert info.value.position == len("(x+y)^8*")


DECOMPOSITION_LINES = st.one_of(
    st.builds("surface chi={} sphere={}".format, st.integers(-8, 4),
              st.sampled_from(["true", "false", "1", "no"])),
    st.builds("piece {} genus={} boundaries={}".format, st.sampled_from("ABC"),
              st.integers(-1, 3), st.integers(-1, 4)),
    st.builds("curve {} {}.{} {}.{}".format, st.sampled_from("cd"), st.sampled_from("ABCZ"),
              st.integers(0, 4), st.sampled_from("ABC"), st.integers(-1, 4)),
    st.text(alphabet="surfacepiecvgnsbdy=.#ABC 0123456789-", max_size=30),
)


@settings(max_examples=150, deadline=2000)
@given(st.lists(DECOMPOSITION_LINES, max_size=8).map("\n".join))
@example("surface chi=-2 sphere=false\npiece A genus=0 boundaries=999999999999")
@example("surface chi=99999999999999999999 sphere=false\npiece A genus=99999999999 boundaries=0")
@example("surface chi=-2 sphere=false\npiece P0 genus=0 boundaries=3\n"
         "piece P1 genus=0 boundaries=3\ncurve c0 P0.\u00b2 P1.0")  # a digit int() refuses
@example("surface chi=-2 sphere=false\npiece P0 genus=0 boundaries=3\n"
         f"piece P1 genus=0 boundaries=3\ncurve c0 P0.{'9' * 5000} P1.0")  # beyond int()'s digits
def test_multicurve_exit_contract(text):
    try:
        dec = mc.parse_decomposition(text)
    except mc.InvalidDecomposition:
        dec = None
    assert dec is None or isinstance(dec, mc.SurfaceDecomposition)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.dec")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["multicurve", "--file", path, "--compare", path])
        assert time.perf_counter() - start < 2.0
    assert code in (0, 1, 2)
    if code in (0, 1):
        report = json.loads(out.getvalue())
        assert ("error" in report) == (code == 1)


AREA_TOKENS = ["pi", "/", "-", "+", ".", "0", "1", "2", "5", "e", "e-3", "e308", "e999",
               "nan", "inf", " "]
AREAS = st.one_of(st.lists(st.sampled_from(AREA_TOKENS), max_size=6).map("".join),
                  st.floats().map(repr),
                  st.builds("{}pi/{}".format, st.integers(-2, 40), st.integers(-1, 9)))
# small values as well, so that a fair share of the draws lands inside the domains
HUGE = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.integers(-2, 12))
ARGVS = st.one_of(
    st.builds(lambda c, e: ["classify", "--chi-s", str(c), "--euler", str(e)], HUGE, HUGE),
    st.builds(lambda g, a, n: ["holonomy", "--genus", str(g), f"--area={a}", "--iters", str(n)],
              HUGE, AREAS, HUGE),
    st.builds(lambda g, a: ["polygon", "--genus", str(g), f"--area={a}"], HUGE, AREAS),
    st.builds(lambda g, n: ["covers", "--genus", str(g), "--n", str(n)], HUGE, HUGE),
)


@settings(max_examples=300, deadline=None)
@given(ARGVS)
@example(["classify", "--chi-s", str(-10 ** 20), "--euler", "1"])  # tau(10^20) by trial division
@example(["polygon", "--genus", "1000000", "--area=1pi"])  # a build linear in the genus
@example(["holonomy", "--genus", str(10 ** 20), "--area=1pi", "--iters", "1"])
@example(["holonomy", "--genus", "2", "--area=pi/0", "--iters", "1"])
@example(["polygon", "--genus", "11", "--area=--"])  # argparse leaves [] for the value "--"
@example(["holonomy", "--genus", "2", "--area=4pi", "--iters", str(10 ** 400)])  # 1/N below floats
@example(["covers", "--genus", str(10 ** 20), "--n", "2"])
def test_argv_exit_contract(argv):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse exits 2 on its own usage errors
            code = e.code
    assert time.perf_counter() - start < 2.0
    assert code in (0, 1, 2)
    if code in (0, 1):
        report = json.loads(out.getvalue())
        assert ("error" in report) == (code == 1)
    else:
        assert out.getvalue() == ""
