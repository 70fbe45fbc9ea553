"""Reference evaluator for the tests: `eval_expr` walks an expression tree
point by point in plain floats, the reference that `formcalc.compile_expr`
kernels are tested against.  `neg` and `div` build -a and a/b from the ring
nodes, as the parser does."""

import math
from typing import Mapping

from contactbundles.formcalc.expr import Add, Cos, Exp, Expr, Mul, Pi, Pow, Rat, Sin, Var


def neg(a: Expr) -> Expr:
    return Mul((Rat(-1), a))


def div(a: Expr, b: Expr) -> Expr:
    return Mul((a, Pow(b, -1)))


def eval_expr(e: Expr, env: Mapping[str, float]) -> float:
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
