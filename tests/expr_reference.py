"""The tree route, the reference for the tests of `formcalc.expr`.

Expression trees of ring operations (`Rat`, `Pi`, `Var`, `Add`, `Mul`,
`Pow`, `Sin`, `Cos`, `Exp`), as the parser built them before it returned
polynomials:

- `ring` multiplies a tree out through the ring operations of `expr`, node
  by node; a polynomial (`Expr`) may stand for a subtree;
- `render_tree` writes a tree as text, as the parser reads it;
- `rebuild` writes a polynomial as the tree that `compile_expr` evaluates:
  the sum of its terms in the order `render` reads them or, given the chart
  coordinates, Horner's rule in one of them where `compile_expr` takes it;
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


def atom_tree(a, names=()):
    """The tree of an atom of `expr`, its argument rebuilt over `names`."""
    if isinstance(a, fx.Var):
        return Var(a.name)
    if isinstance(a, fx.Pi):
        return Pi()
    if isinstance(a, fx.Recip):
        return Pow(rebuild(a.arg, names), -1)
    return TREES[type(a)](rebuild(a.arg, names))


def horner_cofactors(p: Expr, names=()):
    """(v, [c_0, ..., c_d]) where p, over the chart coordinates `names`,
    reads two or more of them and some coordinate v occurs as a factor v^k,
    k >= 2, of a term: v of highest such degree d, the first in `names`
    among equals, and c_k the sum of the terms with v^k, divided by it, c_0
    also holding the terms with a negative power of v.  None elsewhere."""
    degree = {}
    for factors in fx._monomials(p):
        for f in factors:
            if not isinstance(f, fx._Ratio) and isinstance(f[0], fx.Var) and f[0].name in names:
                degree[f[0].name] = max(degree.get(f[0].name, 0), f[1])
    if max(degree.values(), default=0) < 2 or len(fx.variables(p) & set(names)) < 2:
        return None
    v = max(names, key=lambda n: (degree.get(n, 0), -names.index(n)))
    groups = [[] for _ in range(degree[v] + 1)]
    for factors in fx._monomials(p):
        k = next((f[1] for f in factors if f[0] == fx.Var(v) and f[1] > 0), 0)
        rest = [f for f in factors if k == 0 or f[0] != fx.Var(v)]
        groups[k].append(reduce(fx._times, (fx._const(Fraction(f.num, f.den))
                                            if isinstance(f, fx._Ratio) else fx._atom(*f)
                                            for f in rest), ONE))
    return v, [fx._sum(terms) for terms in groups]


def rebuild(p: Expr, names=()):
    """The tree of p that `compile_expr` over the coordinates `names`
    evaluates.  Where `horner_cofactors` splits p, Horner's rule in v: the
    accumulator starts at c_d*v, then adds c_(d-1), and each lower degree
    multiplies by v and adds c_k (no sum where c_k = 0).  Elsewhere a sum of
    products in `_monomials` order, each product its coefficient (unless 1)
    and its atom powers."""
    split = horner_cofactors(p, tuple(names))
    if split is not None:
        v, cofactors = split
        acc = rebuild(cofactors[-1], names)
        for c in reversed(cofactors[:-1]):
            acc = Mul((acc, Var(v)))
            if c.nums:
                acc = Add((acc, rebuild(c, names)))
        return acc
    terms = []
    for factors in fx._monomials(p):
        out = [Rat(*f) if isinstance(f, fx._Ratio) else atom_tree(f[0], names) if f[1] == 1
               else Pow(atom_tree(f[0], names), f[1]) for f in factors]
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


def monomial_by_dict(m1: tuple, m2: tuple) -> tuple:
    """The monomial m1*m2 as `expr._monomial` built it through a dict of
    exponents and `sorted`, the reference for its linear merge."""
    powers = dict(m1)
    for i, k in m2:
        powers[i] = powers.get(i, 0) + k
    return tuple(sorted(ik for ik in powers.items() if ik[1]))
