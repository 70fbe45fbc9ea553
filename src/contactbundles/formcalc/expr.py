"""Expression trees for form coefficients: parser, differentiation, evaluation.

The node set is deliberately small: variables, exact rational constants, pi,
sums, products, quotients, integer powers, sin/cos/exp and negation.  Trees
are immutable, and a node computes its structural hash once, on first use.
`normalize` rewrites a tree into a sum of products of atomic
factors with exact rational coefficients, merging like terms; this is enough
for the cancellations the calculus layer relies on (mixed partials, d o d = 0)
while equality of general expressions remains a numeric check at random
points, not a canonical-form decision.

Surface syntax for coefficients:

    Expr  := sum over IDENT, RATIONAL, pi, + - * / ^INT, sin cos exp, parens

with |INT| <= MAX_EXPONENT, decimal exponents of literals at most
MAX_DECIMAL_EXPONENT in absolute value, and trees at most MAX_DEPTH levels
tall.  The same parser reads the 1-form
grammar of `forms` when given basis names.  Rational literals (including
decimal and scientific notation) are parsed bit-exactly into
`fractions.Fraction`.

`compile_expr` is the numeric evaluator of the library: a straight-line
numpy kernel that computes each repeated subtree once and returns values on
the broadcast shape of the coordinates it reads.  `eval_expr` walks the tree
point by point and is kept as its reference.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np


class FormSyntaxError(ValueError):
    """Syntax error with a 0-based offset into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownVariableError(FormSyntaxError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown variable {name!r}", position)
        self.name = name


class Expr:
    """Base of the expression nodes: frozen dataclasses, equal when their
    fields are.

    The structural hash is computed on first use and kept on the node, so a
    dict or `lru_cache` probe costs one lookup instead of a walk of the
    subtree.  str hashes are salted per process, so `__reduce__` rebuilds a
    node from its fields alone and the kept value never travels.
    """

    __slots__ = ()

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            fields = self.__dict__
            h = fields["_hash"] = hash((type(self), *fields.values()))
            return h

    def __reduce__(self):
        return type(self), tuple(v for k, v in self.__dict__.items() if k != "_hash")


def _node(cls):
    """`dataclass(frozen=True)`, keeping `Expr.__hash__` over the generated one."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Expr.__hash__
    return cls


@_node
class Rat(Expr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@_node
class Pi(Expr):
    pass


@_node
class Var(Expr):
    name: str


@_node
class Add(Expr):
    terms: Tuple[Expr, ...]


@_node
class Mul(Expr):
    factors: Tuple[Expr, ...]


@_node
class Div(Expr):
    num: Expr
    den: Expr


@_node
class Pow(Expr):
    base: Expr
    exponent: int


@_node
class Neg(Expr):
    arg: Expr


@_node
class Sin(Expr):
    arg: Expr


@_node
class Cos(Expr):
    arg: Expr


@_node
class Exp(Expr):
    arg: Expr


ZERO = Rat(Fraction(0))
ONE = Rat(Fraction(1))


def rational(v) -> Rat:
    return Rat(Fraction(v))


# ---------------------------------------------------------------------------
# rendering (also provides the deterministic sort key for normalization)

def render(e: Expr) -> str:
    """Canonical text; reparses to an equal tree."""
    return _render(e, 0)


def _render(e: Expr, prec: int) -> str:
    # precedence levels: 0 sum, 1 product, 2 unary, 3 power/atom
    if isinstance(e, Rat):
        v = e.value
        s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        if v < 0 and prec >= 2:
            return f"({s})"
        if v.denominator != 1 and prec >= 1:
            return f"({s})"
        return s
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        s = " + ".join(_render(t, 1) for t in e.terms)
        return f"({s})" if prec >= 1 else s
    if isinstance(e, Mul):
        s = "*".join(_render(f, 2) for f in e.factors)
        return f"({s})" if prec >= 2 else s
    if isinstance(e, Div):
        s = f"{_render(e.num, 2)}/{_render(e.den, 3)}"
        return f"({s})" if prec >= 2 else s
    if isinstance(e, Pow):
        k = e.exponent
        if abs(k) > MAX_EXPONENT:  # printed powers stay within what the parser reads
            head = MAX_EXPONENT if k > 0 else -MAX_EXPONENT
            return _render(Mul((Pow(e.base, head), Pow(e.base, k - head))), prec)
        if isinstance(e.base, (Var, Pi, Sin, Cos, Exp)):
            b = _render(e.base, 3)
        else:
            b = f"({_render(e.base, 0)})"
        return f"{b}^{e.exponent}"
    if isinstance(e, Neg):
        s = f"-{_render(e.arg, 2)}"
        return f"({s})" if prec >= 2 else s
    if isinstance(e, Sin):
        return f"sin({_render(e.arg, 0)})"
    if isinstance(e, Cos):
        return f"cos({_render(e.arg, 0)})"
    if isinstance(e, Exp):
        return f"exp({_render(e.arg, 0)})"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# normalization: sum of products of atomic factors

Monomial = Tuple[Tuple[Expr, int], ...]  # sorted ((atom, exponent), ...)
SOP = Dict[Monomial, Fraction]


def _atom_key(a: Expr) -> str:
    return render(a)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    acc: Dict[Expr, int] = dict(m1)
    for a, k in m2:
        acc[a] = acc.get(a, 0) + k
    items = [(a, k) for a, k in acc.items() if k != 0]
    items.sort(key=lambda ak: (_atom_key(ak[0]), ak[1]))
    return tuple(items)


def _sop_add(s1: SOP, s2: SOP) -> SOP:
    out = dict(s1)
    for m, c in s2.items():
        c2 = out.get(m, Fraction(0)) + c
        if c2:
            out[m] = c2
        elif m in out:
            del out[m]
    return out


def _sop_mul(s1: SOP, s2: SOP) -> SOP:
    out: SOP = {}
    for m1, c1 in s1.items():
        for m2, c2 in s2.items():
            m = _mono_mul(m1, m2)
            c = out.get(m, Fraction(0)) + c1 * c2
            if c:
                out[m] = c
            elif m in out:
                del out[m]
    return out


def _sop_scale(s: SOP, c: Fraction) -> SOP:
    if not c:
        return {}
    return {m: cc * c for m, cc in s.items()}


def _sop_const(c: Fraction) -> SOP:
    return {(): Fraction(c)} if c else {}


def _sop_atom(a: Expr, k: int = 1) -> SOP:
    return {((a, k),): Fraction(1)}


def _sop_invert(s: SOP) -> SOP:
    if not s:
        raise ZeroDivisionError("division by symbolic zero")
    if len(s) == 1:
        (mono, coeff), = s.items()
        inv_mono = tuple((a, -k) for a, k in mono)
        inv_mono = tuple(sorted(inv_mono, key=lambda ak: (_atom_key(ak[0]), ak[1])))
        return {inv_mono: Fraction(1) / coeff}
    return _sop_atom(Pow(_rebuild(s), -1))


def _to_sop(e: Expr) -> SOP:
    if isinstance(e, Rat):
        return _sop_const(e.value)
    if isinstance(e, (Pi, Var)):
        return _sop_atom(e)
    if isinstance(e, Neg):
        return _sop_scale(_to_sop(e.arg), Fraction(-1))
    if isinstance(e, Add):
        out: SOP = {}
        for t in e.terms:
            out = _sop_add(out, _to_sop(t))
        return out
    if isinstance(e, Mul):
        out = _sop_const(Fraction(1))
        for f in e.factors:
            out = _sop_mul(out, _to_sop(f))
        return out
    if isinstance(e, Div):
        return _sop_mul(_to_sop(e.num), _sop_invert(_to_sop(e.den)))
    if isinstance(e, Pow):
        base = _to_sop(e.base)
        k = e.exponent
        if k == 0:
            return _sop_const(Fraction(1))
        core = base if k > 0 else _sop_invert(base)
        out = dict(core)
        for _ in range(abs(k) - 1):
            out = _sop_mul(out, core)
        return out
    if isinstance(e, (Sin, Cos, Exp)):
        arg = normalize(e.arg)
        if isinstance(arg, Rat) and arg.value == 0:
            if isinstance(e, Sin):
                return {}
            return _sop_const(Fraction(1))
        return _sop_atom(type(e)(arg))
    raise TypeError(f"not an expression: {e!r}")


def _rebuild(s: SOP) -> Expr:
    if not s:
        return ZERO
    terms = []
    for mono, coeff in sorted(s.items(), key=lambda mc: tuple((_atom_key(a), k) for a, k in mc[0])):
        factors = []
        if coeff != 1 or not mono:
            factors.append(Rat(coeff))
        for a, k in mono:
            factors.append(a if k == 1 else Pow(a, k))
        terms.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


@lru_cache(maxsize=65536)
def normalize(e: Expr) -> Expr:
    """Sum-of-products canonicalisation with exact coefficient arithmetic."""
    return _rebuild(_to_sop(e))


# ---------------------------------------------------------------------------
# calculus and substitution

def diff(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative; the result is normalized."""
    return normalize(_diff(e, var))


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, (Rat, Pi)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Neg):
        return Neg(_diff(e.arg, var))
    if isinstance(e, Add):
        return Add(tuple(_diff(t, var) for t in e.terms))
    if isinstance(e, Mul):
        terms = []
        fs = e.factors
        for i in range(len(fs)):
            terms.append(Mul(tuple(fs[:i]) + (_diff(fs[i], var),) + tuple(fs[i + 1:])))
        return Add(tuple(terms))
    if isinstance(e, Div):
        return Div(Add((Mul((_diff(e.num, var), e.den)),
                        Neg(Mul((e.num, _diff(e.den, var)))))),
                   Pow(e.den, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return ZERO
        return Mul((Rat(Fraction(e.exponent)), Pow(e.base, e.exponent - 1), _diff(e.base, var)))
    if isinstance(e, Sin):
        return Mul((Cos(e.arg), _diff(e.arg, var)))
    if isinstance(e, Cos):
        return Neg(Mul((Sin(e.arg), _diff(e.arg, var))))
    if isinstance(e, Exp):
        return Mul((Exp(e.arg), _diff(e.arg, var)))
    raise TypeError(f"not an expression: {e!r}")


def subst(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of variables by expressions (not normalized)."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, (Rat, Pi)):
        return e
    if isinstance(e, Neg):
        return Neg(subst(e.arg, mapping))
    if isinstance(e, Add):
        return Add(tuple(subst(t, mapping) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(subst(f, mapping) for f in e.factors))
    if isinstance(e, Div):
        return Div(subst(e.num, mapping), subst(e.den, mapping))
    if isinstance(e, Pow):
        return Pow(subst(e.base, mapping), e.exponent)
    if isinstance(e, (Sin, Cos, Exp)):
        return type(e)(subst(e.arg, mapping))
    raise TypeError(f"not an expression: {e!r}")


def variables(e: Expr) -> set:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, (Rat, Pi)):
        return set()
    if isinstance(e, (Neg, Sin, Cos, Exp)):
        return variables(e.arg)
    if isinstance(e, Add):
        return set().union(*(variables(t) for t in e.terms)) if e.terms else set()
    if isinstance(e, Mul):
        return set().union(*(variables(f) for f in e.factors)) if e.factors else set()
    if isinstance(e, Div):
        return variables(e.num) | variables(e.den)
    if isinstance(e, Pow):
        return variables(e.base)
    raise TypeError(f"not an expression: {e!r}")


def eval_expr(e: Expr, env: Mapping[str, float]) -> float:
    if isinstance(e, Rat):
        return float(e.value)
    if isinstance(e, Pi):
        return math.pi
    if isinstance(e, Var):
        return float(env[e.name])
    if isinstance(e, Neg):
        return -eval_expr(e.arg, env)
    if isinstance(e, Add):
        return math.fsum(eval_expr(t, env) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= eval_expr(f, env)
        return out
    if isinstance(e, Div):
        return eval_expr(e.num, env) / eval_expr(e.den, env)
    if isinstance(e, Pow):
        return eval_expr(e.base, env) ** e.exponent
    if isinstance(e, Sin):
        return math.sin(eval_expr(e.arg, env))
    if isinstance(e, Cos):
        return math.cos(eval_expr(e.arg, env))
    if isinstance(e, Exp):
        return math.exp(eval_expr(e.arg, env))
    raise TypeError(f"not an expression: {e!r}")


def compile_expr(e: Expr, names: Sequence[str]):
    """Compile to a vectorised numpy function of the chart coordinates.

    The kernel takes one array per name and returns the value on the
    broadcast shape of the arguments the expression reads (a float if it
    reads none), so on `np.meshgrid(..., sparse=True)` axes it touches only
    the axes it uses.  It is a straight-line `def` built by value numbering
    (Aho, Lam, Sethi and Ullman, *Compilers*, §6.1): a subtree that occurs
    twice or more is computed once into a temporary, deleted after its last
    use; everything else is written inline, so numpy frees intermediates as
    it goes.  The operations inside each subtree keep their order, so the
    values are those of the tree written out in full.
    """
    uses: Dict[Expr, int] = {}

    def count(x: Expr) -> None:
        if isinstance(x, (Rat, Pi, Var)):  # leaves are always written inline
            return
        seen = uses.get(x, 0)
        uses[x] = seen + 1
        if not seen:
            for c in _children(x):
                count(c)

    count(e)
    arg = {n: f"_a{i}" for i, n in enumerate(names)}
    temps: Dict[Expr, str] = {}
    lines = []

    def emit(x: Expr) -> str:
        if isinstance(x, Rat):
            return f"({float(x.value)!r})" if x.value < 0 else repr(float(x.value))
        if isinstance(x, Pi):
            return "np.pi"
        if isinstance(x, Var):
            return arg[x.name]
        if x in temps:
            return temps[x]
        if isinstance(x, Neg):
            text = f"(-{emit(x.arg)})"
        elif isinstance(x, Add):
            text = "(" + " + ".join(emit(t) for t in x.terms) + ")" if x.terms else "0.0"
        elif isinstance(x, Mul):
            text = "(" + " * ".join(emit(f) for f in x.factors) + ")" if x.factors else "1.0"
        elif isinstance(x, Div):
            text = f"({emit(x.num)} / {emit(x.den)})"
        elif isinstance(x, Pow):
            k = f"{x.exponent:.1f}" if x.exponent < 0 else str(x.exponent)
            text = f"({emit(x.base)} ** {k})"
        elif isinstance(x, Sin):
            text = f"np.sin({emit(x.arg)})"
        elif isinstance(x, Cos):
            text = f"np.cos({emit(x.arg)})"
        elif isinstance(x, Exp):
            text = f"np.exp({emit(x.arg)})"
        else:
            raise TypeError(f"not an expression: {x!r}")
        if uses[x] == 1:
            return text
        temps[x] = f"_t{len(temps)}"
        lines.append(f"{temps[x]} = {text}")
        return temps[x]

    lines.append(f"return {emit(e)}")
    last = {t: i for i, line in enumerate(lines) for t in re.findall(r"_t\d+", line)}
    body = []
    for i, line in enumerate(lines[:-1]):
        body.append(line)
        dead = [t for t in dict.fromkeys(re.findall(r"_t\d+", line)) if last[t] == i]
        if dead:
            body.append(f"del {', '.join(dead)}")
    body.append(lines[-1])
    src = f"def kernel({', '.join(arg.values())}):\n" + "".join(f"    {b}\n" for b in body)
    scope = {"np": np}
    exec(src, scope)  # noqa: S102 - source is generated here
    return scope["kernel"]


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {"sin": Sin, "cos": Cos, "exp": Exp}


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | op | end
    text: str
    pos: int


def tokenize(text: str) -> list:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = pos + (len(text[pos:]) - len(stripped))
            raise FormSyntaxError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


#: largest |k| accepted in a power x^k, and largest expansion degree of a
#: parsed expression: a sum of several terms counts the largest of them, at
#: least 1; a product or quotient the sum of its factors; a power |k| times
#: its base; variables, numbers, pi, parameters and function calls count 0.
#: `_to_sop` multiplies sums out, so (x + y + z + 1)^32 alone costs seconds,
#: as does (x + y + z + 1)^16 * (x + y + z + 1)^16
MAX_EXPONENT = 16
#: deepest nesting of parentheses, function calls and unary signs; the parser
#: and the tree walkers recurse once per level
MAX_NESTING = 100
#: tallest expression tree the parser builds, counted in nodes from the root to
#: a leaf: a chain of k factors joined by '*' or '/' is a left-deep tree k - 1
#: tall, and so is the sum of k terms on one differential of a form.  Hashing
#: and the tree walkers recurse once or twice per level: a 500-factor chain
#: ran them out of Python's default 1000 frames, a 400-factor one did not
MAX_DEPTH = 200
#: largest |e| accepted in a literal 1e<e>: beyond it the value is not a
#: float, and the exact Fraction("1e9999999") alone costs seconds
MAX_DECIMAL_EXPONENT = 324


def _children(e: Expr) -> Tuple[Expr, ...]:
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Div):
        return (e.num, e.den)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Neg, Sin, Cos, Exp)):
        return (e.arg,)
    return ()


class _Parser:
    """Recursive descent over the coefficient grammar and, given basis names,
    the 1-form grammar of `forms` (`parse_form`).

    A basis differential d<name> may only end a top-level term of a form;
    anywhere else it is a syntax error.
    """

    def __init__(self, text: str, allowed: Iterable[str],
                 params: Optional[Mapping[str, object]] = None, basis: Sequence[str] = ()):
        self.tokens = tokenize(text)
        self.i = 0
        self.allowed = set(allowed)
        self.params = {k: (v if isinstance(v, Expr) else rational(v))
                       for k, v in (params or {}).items()}
        self.basis = {f"d{name}": axis for axis, name in enumerate(basis)}
        self.depth = 0
        self.degrees: Dict[int, int] = {}
        self.heights: Dict[int, int] = {}

    def degree(self, e: Expr) -> int:
        """Expansion degree (see MAX_EXPONENT) of a node this parser built."""
        return self.degrees.get(id(e), 0)

    def bounded(self, e: Expr, degree: int, t: _Token) -> Expr:
        """Record e's expansion degree and height; past MAX_EXPONENT or
        MAX_DEPTH it is an error at t.  Every node the parser builds passes
        here; leaves and parameters count height 0."""
        if degree > MAX_EXPONENT:
            raise FormSyntaxError(f"expansion degree exceeds {MAX_EXPONENT}", t.pos)
        height = 1 + max(self.heights.get(id(c), 0) for c in _children(e))
        if height > MAX_DEPTH:
            raise FormSyntaxError(f"expression depth exceeds {MAX_DEPTH}", t.pos)
        self.degrees[id(e)] = degree
        self.heights[id(e)] = height
        return e

    def nested(self, t: _Token, parse):
        """parse() one level deeper than `t`, within MAX_NESTING levels."""
        if self.depth >= MAX_NESTING:
            raise FormSyntaxError(f"nesting exceeds {MAX_NESTING} levels", t.pos)
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[self.i + ahead]

    def next(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def at_op(self, ops: str) -> bool:
        t = self.peek()
        return t.kind == "op" and t.text in ops

    def at_basis(self, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.kind == "ident" and t.text in self.basis

    def expect_op(self, op: str) -> _Token:
        if not self.at_op(op):
            raise FormSyntaxError(f"expected {op!r}", self.peek().pos)
        return self.next()

    def parse_form(self) -> Tuple[Expr, ...]:
        """form := ['-'] term (('+'|'-') term)*; one coefficient per basis name."""
        if self.peek().kind == "end":
            raise FormSyntaxError("empty form", 0)
        coeffs = [ZERO] * len(self.basis)
        negate = self.at_op("-")
        if negate:
            self.next()
        while True:
            t = self.peek()
            axis, coeff = self.parse_term()
            if negate:
                coeff = self.bounded(Neg(coeff), self.degree(coeff), t)
            coeffs[axis] = self.bounded(Add((coeffs[axis], coeff)),
                                        max(self.degree(coeffs[axis]), self.degree(coeff), 1), t)
            t = self.next()
            if t.kind == "end":
                return tuple(coeffs)
            negate = t.text == "-"

    def parse_term(self) -> Tuple[int, Expr]:
        """term := product '*' basis | basis, followed by '+', '-' or the end."""
        start = self.peek()
        if start.kind == "end" or self.at_op("+-"):
            raise FormSyntaxError("empty term", start.pos)
        coeff = ONE
        if not self.at_basis():
            coeff = self.parse_product(basis_ends=True)
            t = self.peek()
            if t.kind == "end" or self.at_op("+-"):
                raise FormSyntaxError("term carries no differential", start.pos)
            if self.at_op("*/") and self.at_basis(1):
                self.next()
            if not self.at_basis():
                raise FormSyntaxError(f"trailing input {t.text!r}", t.pos)
            if t.text != "*":
                raise FormSyntaxError("coefficient must be joined to the differential by '*'",
                                      self.peek().pos)
        basis = self.next()
        if not (self.peek().kind == "end" or self.at_op("+-")):
            raise FormSyntaxError("differential must end its term", basis.pos)
        return self.basis[basis.text], coeff

    def parse_sum(self) -> Expr:
        start = self.peek()
        terms = [self.parse_product()]
        degree = self.degree(terms[0])
        while self.at_op("+-"):
            sign = self.next().text
            t = self.peek()
            rhs = self.parse_product()
            degree = max(degree, self.degree(rhs))
            terms.append(rhs if sign == "+" else self.bounded(Neg(rhs), self.degree(rhs), t))
        if len(terms) == 1:
            return terms[0]
        return self.bounded(Add(tuple(terms)), max(degree, 1), start)

    def parse_product(self, basis_ends: bool = False) -> Expr:
        """Factors joined by '*' or '/'; with `basis_ends`, stops before an
        operator whose right operand is a basis differential."""
        out = self.parse_unary()
        degree = self.degree(out)
        while self.at_op("*/") and not (basis_ends and self.at_basis(1)):
            op = self.next().text
            t = self.peek()
            rhs = self.parse_unary()
            degree += self.degree(rhs)
            out = self.bounded(Mul((out, rhs)) if op == "*" else Div(out, rhs), degree, t)
        return out

    def parse_unary(self) -> Expr:
        if self.at_op("-"):
            t = self.next()
            arg = self.nested(t, self.parse_unary)
            return self.bounded(Neg(arg), self.degree(arg), t)
        if self.at_op("+"):
            return self.nested(self.next(), self.parse_unary)
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if not self.at_op("^"):
            return base
        self.next()
        sign = 1
        if self.at_op("-"):
            self.next()
            sign = -1
        t = self.next()
        if t.kind != "number" or not t.text.isdigit():
            raise FormSyntaxError("exponent must be an integer literal", t.pos)
        if int(t.text) > MAX_EXPONENT:
            raise FormSyntaxError(f"exponent exceeds {MAX_EXPONENT} in absolute value", t.pos)
        return self.bounded(Pow(base, sign * int(t.text)), int(t.text) * self.degree(base), t)

    def parse_atom(self) -> Expr:
        t = self.next()
        if t.kind == "number":
            _, _, exp10 = t.text.lower().partition("e")
            if exp10 and abs(int(exp10)) > MAX_DECIMAL_EXPONENT:
                raise FormSyntaxError(
                    f"decimal exponent exceeds {MAX_DECIMAL_EXPONENT} in absolute value", t.pos)
            return Rat(Fraction(t.text))
        if t.kind == "op" and t.text == "(":
            inner = self.nested(t, self.parse_sum)
            self.expect_op(")")
            return inner
        if t.kind == "ident":
            if t.text in self.basis:
                raise FormSyntaxError("differential must end its term", t.pos)
            if t.text == "pi":
                return Pi()
            if t.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.nested(t, self.parse_sum)
                self.expect_op(")")
                return self.bounded(_FUNCTIONS[t.text](arg), 0, t)
            if t.text in self.params:
                return self.params[t.text]
            if t.text in self.allowed:
                return Var(t.text)
            raise UnknownVariableError(t.text, t.pos)
        raise FormSyntaxError(f"unexpected token {t.text!r}" if t.text else "unexpected end of input", t.pos)


def parse_expr(text: str, allowed: Iterable[str], params: Optional[Mapping[str, object]] = None) -> Expr:
    """Parse a coefficient expression over the given variable names.

    `params` binds extra identifiers to numbers or expressions at parse time.
    """
    parser = _Parser(text, allowed, params)
    out = parser.parse_sum()
    t = parser.peek()
    if t.kind != "end":
        raise FormSyntaxError(f"trailing input {t.text!r}", t.pos)
    return out
