"""The tree route, the reference for the tests of `formcalc.expr`.

Expression trees of ring operations (`Rat`, `Pi`, `Var`, `Add`, `Mul`,
`Pow`, `Sin`, `Cos`, `Exp`), as the parser built them before it returned
polynomials:

- `ring` multiplies a tree out through the ring operations of `expr`, node
  by node; a polynomial (`Expr`) may stand for a subtree;
- `render_tree` writes a tree as text, as the parser reads it;
- `rebuild` writes a polynomial as the tree of its terms, in the order
  `render` and `compile_expr` read them;
- `eval_expr` walks a tree (or the rebuilt tree of a polynomial) point by
  point in plain floats, the reference that `compile_expr` kernels are
  tested against.

`neg` and `div` build -a and a/b from the ring nodes, as the parser reads
them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Mapping, Tuple

from contactbundles.formcalc import expr as fx
from contactbundles.formcalc.expr import MAX_EXPONENT, ONE, Expr


class Tree:
    pass


@dataclass(frozen=True)
class Rat(Tree):
    """num/den in lowest terms; `Rat(v)` takes what `Fraction(v)` takes."""

    num: object
    den: int = 1

    def __post_init__(self):
        v = Fraction(self.num) / self.den
        object.__setattr__(self, "num", v.numerator)
        object.__setattr__(self, "den", v.denominator)

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)


@dataclass(frozen=True)
class Pi(Tree):
    pass


@dataclass(frozen=True)
class Var(Tree):
    name: str


@dataclass(frozen=True)
class Add(Tree):
    terms: Tuple


@dataclass(frozen=True)
class Mul(Tree):
    factors: Tuple


@dataclass(frozen=True)
class Pow(Tree):
    base: object
    exponent: int


@dataclass(frozen=True)
class Sin(Tree):
    arg: object


@dataclass(frozen=True)
class Cos(Tree):
    arg: object


@dataclass(frozen=True)
class Exp(Tree):
    arg: object


#: coefficient texts the tests of forms and of the normal form draw from
REDUCED_COEFFS = ["0", "1", "-1", "x", "y", "z", "x*y", "y^2/2", "x - y", "sin(x)", "z*(x - 1/2)",
                  "(x + 2)/(x + 9/4)", "cos(y)*z", "x^2 + z^2"]

#: tree function node -> atom type of `expr`, and back
ATOMS = {Sin: fx.Sin, Cos: fx.Cos, Exp: fx.Exp}
TREES = {v: k for k, v in ATOMS.items()}
ZERO_TREE = Rat(0)


def neg(a):
    return Mul((Rat(-1), a))


def div(a, b):
    return Mul((a, Pow(b, -1)))


def children(e) -> tuple:
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Sin, Cos, Exp)):
        return (e.arg,)
    return ()


def ring(e) -> Expr:
    """The polynomial of the tree e, multiplied out node by node."""
    if isinstance(e, Expr):
        return e
    if isinstance(e, Rat):
        return fx._const(e.value)
    if isinstance(e, Pi):
        return fx._atom(fx.Pi())
    if isinstance(e, Var):
        return fx._atom(fx.Var(e.name))
    if isinstance(e, Add):
        return fx._sum(map(ring, e.terms))
    if isinstance(e, Mul):
        return reduce(fx._times, map(ring, e.factors), ONE)
    if isinstance(e, Pow):
        return ring(e.base) ** e.exponent
    if isinstance(e, (Sin, Cos, Exp)):
        return fx._function(ATOMS[type(e)], ring(e.arg))
    raise TypeError(f"not an expression: {e!r}")


def render_tree(e, prec: int = 0) -> str:
    """Text of the tree e; precedence levels: 0 sum, 1 product, 2 unary, 3
    power/atom."""
    if isinstance(e, Rat):
        s = str(e.num) if e.den == 1 else f"{e.num}/{e.den}"
        if (e.num < 0 and prec >= 2) or (e.den != 1 and prec >= 1):
            return f"({s})"
        return s
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        s = " + ".join(render_tree(t, 1) for t in e.terms)
        return f"({s})" if prec >= 1 else s
    if isinstance(e, Mul):
        s = "*".join(render_tree(f, 2) for f in e.factors)
        return f"({s})" if prec >= 2 else s
    if isinstance(e, Pow):
        k = e.exponent
        if abs(k) > MAX_EXPONENT:
            head = MAX_EXPONENT if k > 0 else -MAX_EXPONENT
            return render_tree(Mul((Pow(e.base, head), Pow(e.base, k - head))), prec)
        if isinstance(e.base, (Var, Pi, Sin, Cos, Exp)):
            return f"{render_tree(e.base, 3)}^{k}"
        return f"({render_tree(e.base)})^{k}"
    if isinstance(e, (Sin, Cos, Exp)):
        return f"{type(e).__name__.lower()}({render_tree(e.arg)})"
    raise TypeError(f"not an expression: {e!r}")


def atom_tree(a):
    """The tree of an atom of `expr`."""
    if isinstance(a, fx.Var):
        return Var(a.name)
    if isinstance(a, fx.Pi):
        return Pi()
    if isinstance(a, fx.Recip):
        return Pow(rebuild(a.arg), -1)
    return TREES[type(a)](rebuild(a.arg))


def rebuild(p: Expr):
    """The tree of p: a sum of products in `_monomials` order, each product
    its coefficient (unless 1) and its atom powers."""
    terms = []
    for factors in fx._monomials(p):
        out = [Rat(*f) if isinstance(f, fx._Ratio) else atom_tree(f[0]) if f[1] == 1
               else Pow(atom_tree(f[0]), f[1]) for f in factors]
        terms.append(out[0] if len(out) == 1 else Mul(tuple(out)))
    if not terms:
        return ZERO_TREE
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def eval_expr(e, env: Mapping[str, float]) -> float:
    if isinstance(e, Expr):
        e = rebuild(e)
    if isinstance(e, Rat):
        return e.num / e.den
    if isinstance(e, Pi):
        return math.pi
    if isinstance(e, Var):
        return float(env[e.name])
    if isinstance(e, Add):
        return math.fsum(eval_expr(t, env) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= eval_expr(f, env)
        return out
    if isinstance(e, Pow):
        return eval_expr(e.base, env) ** e.exponent
    if isinstance(e, Sin):
        return math.sin(eval_expr(e.arg, env))
    if isinstance(e, Cos):
        return math.cos(eval_expr(e.arg, env))
    if isinstance(e, Exp):
        return math.exp(eval_expr(e.arg, env))
    raise TypeError(f"not an expression: {e!r}")
