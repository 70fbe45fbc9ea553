"""The parser's refusals, pinned: each text of `CORPUS` is read along one
route and `tests/data/parser_refusals.json` records the exception type,
message and offset it gives (or, for a text at the edge of a bound that is
accepted, what it reads as).  The corpus covers MAX_EXPONENT and the
expansion degree, MAX_NESTING through parentheses, unary signs and function
calls, MAX_DEPTH through '*' chains, '/' chains and terms on one
differential, MAX_DECIMAL_EXPONENT, zero denominators and division by a
symbolic zero, which refusal wins when a text has two faults,
MAX_ATOM_EXPONENT and MAX_COEFFICIENT_DIGITS, the tokenizer's unexpected
characters and blanks, and constants past the float range.

Routes: "expr" normalizes `parse_expr(text)` over x, y, z; "form" is
`parse_form(text)` over the chart [-2, 2]^3; "file" reads a form file with
`parse_form_file` and samples it with `contact_sign` at grid 4, as the
`forms` command does.

Regenerate (only for an intended, logged change of a refusal):

    PYTHONPATH=src python tests/test_parser_refusals.py
"""

import json
from pathlib import Path

import pytest

from contactbundles import formcalc as fc

REFUSALS = Path(__file__).parent / "data" / "parser_refusals.json"
XYZ = fc.Chart(("x", "y", "z"), ((-2.0, 2.0),) * 3)
BOX = "chart x:[-1,1] y:[-1,1] z:[-1,1]; "


def _chain(op: str, factor: str, k: int) -> str:
    return op.join([factor] * k)


CORPUS = [
    # MAX_EXPONENT and the expansion degree
    ("expr", "x^16"), ("expr", "x^17"), ("expr", "x^-16"), ("expr", "x^-17"),
    ("expr", "(x+y)^17"), ("expr", "x^99999999"), ("expr", "x^1.5"), ("expr", "x^y"),
    ("expr", "x^"), ("expr", "2^-17"),
    ("expr", "((x+y)^4)^4"), ("expr", "((x+y)^4)^5"), ("expr", "((x+y)^-4)^-5"),
    ("expr", "(x+y)^8*(x-z)^8"), ("expr", "(x+y)^8*(x-z)^9"), ("expr", "(x+y)^8/(x-z)^9"),
    ("expr", "(x+y)^8*-(x-z)^9"), ("expr", "(1+x)^16 + (1+y)^16*(1+z)"),
    ("expr", "sin((x+y)^16)*(x+y)^16"), ("expr", "x^16*x^16*y^16"),
    ("expr", "(x+y+z+1)^16*(x+y+z+1)^16"), ("expr", "(x + (y + (z + 1)^2)^4)^2"),
    ("expr", "(x + (y + (z + 1)^2)^4)^3"),
    ("form", "(x+y)^9*(y+z)^8*dx + dz"), ("form", "dz + (x+y)^-17*dx"),
    ("form", "x^17*dz"),
    # MAX_NESTING through parentheses, unary signs and function calls
    ("expr", "(" * 100 + "x" + ")" * 100), ("expr", "(" * 101 + "x" + ")" * 101),
    ("expr", "-" * 100 + "x"), ("expr", "-" * 101 + "x"), ("expr", "+" * 101 + "x"),
    ("expr", "-+" * 50 + "x"), ("expr", "-+" * 50 + "-x"),
    ("expr", "sin(" * 100 + "x" + ")" * 100), ("expr", "sin(" * 101 + "x" + ")" * 101),
    ("expr", "-(" * 50 + "x" + ")" * 50), ("expr", "-(" * 51 + "x" + ")" * 51),
    ("expr", "exp(-(" * 33 + "x" + "))" * 33 + "+cos(y)"),
    ("expr", "exp(-(" * 34 + "x" + "))" * 34),
    ("form", "dz + " + "-" * 100 + "x*dx"), ("form", "dz + " + "(" * 101 + "x" + ")" * 101 + "*dx"),
    # MAX_DEPTH through '*' chains, '/' chains and terms on one differential
    ("expr", _chain("*", "x", 201)), ("expr", _chain("*", "x", 202)),
    ("expr", _chain("*", "2", 202)), ("expr", _chain("*", "sin(y)", 200)),
    ("expr", _chain("*", "sin(y)", 201)),
    ("expr", _chain("/", "x", 200)), ("expr", _chain("/", "x", 201)),
    ("expr", _chain("/", "2", 201)),
    ("expr", "-(" + _chain("*", "x", 200) + ")"), ("expr", "-(" + _chain("*", "x", 201) + ")"),
    ("expr", _chain("+", _chain("*", "y", 200), 3)), ("expr", _chain("-", _chain("*", "y", 200), 3)),
    ("expr", _chain("*", "(x+1)", 101) + "*" + _chain("*", "y", 100)),
    ("expr", "(" + _chain("*", "x", 150) + ")*" + _chain("*", "x", 51)),
    ("expr", "(" + _chain("*", "x", 150) + ")*" + _chain("*", "x", 50)),
    ("expr", "sin(" + _chain("*", "x", 200) + ")"), ("expr", "sin(" + _chain("*", "x", 201) + ")"),
    ("form", " + ".join(["x*dx"] * 200) + " + dz"), ("form", " + ".join(["x*dx"] * 201) + " + dz"),
    ("form", " - ".join(["x*dx"] * 100) + " + dz"), ("form", " - ".join(["x*dx"] * 101) + " + dz"),
    ("form", " + ".join(["dx"] * 201) + " + dz"), ("form", "-" + " - ".join(["dx"] * 200)),
    ("form", "dz + " + _chain("*", "x", 201) + "*dx"),
    ("form", "dz + " + _chain("*", "x", 202) + "*dx"),
    ("form", "dz + " + _chain("/", "x", 200) + "*dx"),
    ("form", "dz + " + _chain("/", "x", 201) + "*dx"),
    ("form", "dz - " + _chain("*", "x", 200) + "*dx"),
    ("form", "dz - " + _chain("*", "x", 201) + "*dx"),
    # MAX_DECIMAL_EXPONENT
    ("expr", "1e324*x"), ("expr", "1e325*x"), ("expr", "1e-324"), ("expr", "x*1e-325"),
    ("expr", "1.5e0000000325"), ("expr", "2E+300 + 1e9999999999"), ("expr", "1e0000000000324"),
    ("file", BOX + "param a=1e325; form dz + a*dx"),
    ("file", "chart x:[-1,1e325] y:[-1,1] z:[-1,1]; form dz"),
    ("file", BOX + "exclude x<1e-325; form dz"),
    # zero denominators
    ("file", BOX + "param a=1/0; form dz + a*dx"),
    ("file", "chart x:[1/0,1] y:[-1,1] z:[-1,1]; form dz"),
    ("file", BOX + "exclude x<3/0; form dz"),
    ("file", BOX + "param a=0/0; form dz"),
    # division by a symbolic zero
    ("expr", "1/0"), ("expr", "x/0"), ("expr", "x/(y-y)"), ("expr", "1/(x-x)^2"),
    ("expr", "(x-x)^-1"), ("expr", "sin(1/(x-x))"), ("expr", "(x-x)^0/(y-y)^-0"),
    ("expr", "0^0"), ("expr", "x/(x*(y-y))"), ("expr", "exp(x/((x+1)^2 - x^2 - 2*x - 1))"),
    ("expr", "1/(x-x) + ("), ("expr", "1/(x-x) + w"), ("expr", "1/(x-x) + x^17"),
    ("expr", "1/(x-x)" + "*x" * 201),
    ("form", "dz + y/(x-x)*dx"), ("form", "dz + y/(x-x)*dx + +"),
    ("form", "dz + 1/(x-x)*dx + w*dy"), ("form", "dz + 1/(x-x)*dx + x^17*dy"),
    ("form", "dz + 1/(x-x)*dx + dy dx"), ("form", "dz + 1/sin(x-x)*dx"),
    ("form", "dz + y/(x-x)^-1*dx"),
    ("file", BOX + "param a=0; form dz + x/a*dx"),
    ("file", BOX + "form dz + y/((x+2)^2 - x^2 - 4*x - 4)*dx"),
    ("file", BOX + "exclude 1/(x-x)<1; form dz"),
    ("file", BOX + "exclude x<1; form dz + 1/(y-y)*dx"),
    # accepted neighbours of the bounds, and other refusals of a file
    ("file", BOX + "form dz - " + _chain("*", "y", 200) + "*dx"),
    ("file", BOX + "form dz - y*" + "(" * 99 + "x" + ")" * 99 + "*dx"),
    ("file", BOX + "exclude x + w<1e-3; form dz"),
    ("file", BOX + "exclude x^17<1e-3; form dz"),
    ("file", BOX + "exclude (" + _chain("/", "x", 201) + ")<1e-3; form dz"),
    # MAX_ATOM_EXPONENT and MAX_COEFFICIENT_DIGITS through nested powers, chains
    # of large numbers and sums whose denominators multiply
    ("expr", "((x^16)^16)^12"), ("expr", "((x^16)^16)^13"), ("expr", "((x^16)^16)^16"),
    ("expr", _chain("*", "x^16", 200)), ("expr", "((x^16)^16)^12*(y^16)^16"),
    ("expr", "(1e300)^14*x"), ("expr", "(1e300)^15*x"), ("expr", "x*(1e-300)^-15"),
    ("expr", "(1e300+1)^-14 + (1e300+3)^-14"),
    ("file", BOX + "form dz + ((((sin(y))^16)^16)^16)^16*dx"),
    ("file", BOX + "form dz + ((((x^16)^16)^16)^16)*y*dx"),
    ("file", BOX + "form dz + (1e300)^16*x*dx"),
    ("file", BOX + "form dz + " + _chain("*", "1e300", 15) + "*x*dx"),
    ("file", BOX + "param k=1e300; form dz + " + _chain("*", "k", 15) + "*x*dx"),
    ("file", BOX + "form dz + (((((1e300)^16)^16)^16)^16)*x*dx"),
    ("file", BOX + "form dz + (1e300+1)^-14*x*dx + (1e300+3)^-14*x*dx"),
    # the tokenizer: characters no token starts with, numbers cut short, blanks
    ("expr", "x $ y"), ("expr", "é"), ("expr", ".5"), ("expr", "1."), ("expr", "1e"),
    ("expr", "2x"), ("expr", "x + y  \t "), ("expr", "  \t "), ("expr", "x\u00a0+\u00a0y"),
    ("form", "dz - y*dx ;"), ("file", BOX + "form dz - y*dx ;"),
    # constants past the float range compile to inf
    ("file", BOX + "form dz + 1e300*1e300*y*dx"),
    ("file", BOX + "exclude 1e300*1e300*x<1; form dz - y*dx"),
]


def outcome(route: str, text: str) -> dict:
    """What reading `text` along `route` gives: the exception's type,
    message and offset, or the text the input reads as."""
    try:
        if route == "expr":
            read = fc.render(fc.normalize(fc.parse_expr(text, "xyz")))
        elif route == "form":
            read = fc.parse_form(text, XYZ).text()
        else:
            form = fc.parse_form_file(text)
            read = f"{form.text()} {fc.contact_sign(form, grid=4).sign}"
    except (ValueError, ArithmeticError) as err:
        return {"type": type(err).__name__, "message": str(err),
                "offset": getattr(err, "position", None)}
    return {"type": None, "reads": read if len(read) <= 200 else f"{read[:200]}..."}


def records() -> list:
    return [{"route": route, "text": text, **outcome(route, text)} for route, text in CORPUS]


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_parser_refusals_replay_as_recorded(index):
    pinned = json.loads(REFUSALS.read_text(encoding="utf-8"))
    assert len(pinned) == len(CORPUS)
    want = pinned[index]
    assert (want["route"], want["text"]) == CORPUS[index]
    assert {"route": want["route"], "text": want["text"],
            **outcome(*CORPUS[index])} == want


if __name__ == "__main__":
    REFUSALS.write_text(json.dumps(records(), indent=1) + "\n", encoding="utf-8")
