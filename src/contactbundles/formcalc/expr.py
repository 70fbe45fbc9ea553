"""Expression trees for form coefficients: parser, differentiation, evaluation.

The node set is deliberately small: variables, exact rational constants, pi,
sums, products, integer powers and sin/cos/exp: the operations of a ring.
The parser writes a - b as a + (-1)*b and a/b as a*b^-1, and the negation
of a number as the negative number.  Trees are immutable, and a node
computes its structural hash once, on first use.  Nodes are slotted
dataclasses without an instance dict, and a rational constant (`Rat`)
holds its integer numerator and denominator.
`normalize` rewrites a tree into a sum of products of atoms with exact
rational coefficients, over one sparse polynomial ring (`_ring`), and `diff`
differentiates on that ring, atom by atom.  A ring polynomial holds integer
numerators by monomial over one positive denominator, in lowest terms, so
the calculus adds and multiplies integers and equal polynomials have equal
numerators and denominator; a monomial is a sorted tuple of (atom id,
exponent) int pairs, over ids that `_ATOM_IDS` gives atoms weakly.  The
calculus of `forms` combines ring polynomials with the private `_ring`,
`_diff`, `_times` and `_sum` and rebuilds each result into a tree once
(`_rebuild`).  A rebuilt tree keeps its polynomial, so `_ring` expands no
normal form twice.  This decides the cancellations the calculus layer relies
on (mixed partials, d o d = 0), while equality of general expressions remains
a numeric check at random points, not a canonical-form decision.

Surface syntax for coefficients:

    Expr  := sum over IDENT, RATIONAL, pi, + - * / ^INT, sin cos exp, parens

with |INT| <= MAX_EXPONENT, decimal exponents of literals at most
MAX_DECIMAL_EXPONENT in absolute value, and trees at most MAX_DEPTH levels
tall.  The same parser reads the 1-form
grammar of `forms` when given basis names.  Rational literals (including
decimal and scientific notation) are parsed bit-exactly, through
`fractions.Fraction`, into the integers of a `Rat`.

`compile_expr` is the numeric evaluator of the library: a value-numbered list
of numpy steps that computes each repeated subtree once and returns values on
the broadcast shape of the coordinates it reads.  Its reference, the
tree-walking `eval_expr`, is kept with the tests (tests/expr_reference.py).
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import weakref
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
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
    """Base of the expression nodes: frozen, slotted dataclasses, equal when
    their fields are.

    A node has no instance dict: its fields, `_hash` and `_poly` are slots.
    The structural hash is computed on first use and kept in `_hash`, so a
    dict or `lru_cache` probe costs one lookup instead of a walk of the
    subtree.  A tree `_rebuild` returns also keeps its ring polynomial in
    `_poly`, set after the hash.  str hashes are salted per process, so
    `__reduce__` rebuilds a node from its fields alone and kept values never
    travel.  `__weakref__` lets `_ATOM_IDS` number atoms without keeping them.
    """

    __slots__ = ("_hash", "_poly", "__weakref__")

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            # a dataclass's __match_args__ names its fields, in order
            h = hash((type(self), *map(self.__getattribute__, self.__match_args__)))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__match_args__))


def _node(cls):
    """`dataclass(frozen=True, slots=True)` over `Expr.__hash__`."""
    cls.__hash__ = Expr.__hash__
    return dataclass(frozen=True, slots=True)(cls)


@_node
class Rat(Expr):
    """The rational constant num/den, kept in lowest terms with den > 0.
    `Rat(v)` takes any v that `Fraction(v)` takes; `value` builds that
    `Fraction` when read."""

    num: int
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if type(num) is int and type(den) is int and den > 0 and math.gcd(num, den) == 1:
            return
        v = Fraction(num) if den == 1 else Fraction(num, den)
        object.__setattr__(self, "num", v.numerator)
        object.__setattr__(self, "den", v.denominator)

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)


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
class Pow(Expr):
    base: Expr
    exponent: int


@_node
class Sin(Expr):
    arg: Expr


@_node
class Cos(Expr):
    arg: Expr


@_node
class Exp(Expr):
    arg: Expr


ZERO = Rat(0)
ONE = Rat(1)


# ---------------------------------------------------------------------------
# rendering (also provides the deterministic sort key for normalization)

@lru_cache(maxsize=65536)
def render(e: Expr) -> str:
    """Canonical text.  A tree the parser built from integer literals
    reparses to an equal tree, and any tree within the parser's bounds
    reparses to one with the same normal form."""
    return _render(e, 0)


def _render(e: Expr, prec: int) -> str:
    # precedence levels: 0 sum, 1 product, 2 unary, 3 power/atom
    if isinstance(e, Rat):
        s = str(e.num) if e.den == 1 else f"{e.num}/{e.den}"
        if e.num < 0 and prec >= 2:
            return f"({s})"
        if e.den != 1 and prec >= 1:
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
    if isinstance(e, Sin):
        return f"sin({_render(e.arg, 0)})"
    if isinstance(e, Cos):
        return f"cos({_render(e.arg, 0)})"
    if isinstance(e, Exp):
        return f"exp({_render(e.arg, 0)})"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# normalization and differentiation on a sparse polynomial ring
#
# A polynomial is a triple (nums, den, atoms): nums a {monomial: int} dict
# without zero entries and den an int > 0, in lowest terms (gcd(den,
# *nums.values()) is 1), so equal polynomials have equal (nums, den); atoms
# maps the id of every atom in nums to that atom (it may hold more).  The
# zero polynomial is ({}, 1, {}).  The coefficient of m is nums[m]/den.  A
# monomial is the tuple of its (atom id, exponent) int pairs, sorted by id,
# exponents nonzero (S. C. Johnson, "Sparse polynomial arithmetic", ACM
# SIGSAM Bull. 8(3), 1974): the collector stops tracking a tuple of ints,
# and hashing one calls no `Expr.__hash__`.  Sums, products and derivatives
# add and multiply integers over the lcm of the denominators they combine
# and reduce once, by one gcd, per result (Knuth, TAOCP vol. 2, §4.5.1); an
# integer polynomial (den 1) takes no gcd, and no `Fraction` is built.  The
# atoms are Var, Pi, Sin/Cos/Exp of a normalized nonzero argument, and
# Pow(s, -1) of a normalized sum s of two or more terms.  `_ATOM_IDS` numbers
# them weakly: an atom keeps its id while a polynomial, a tree or a memo
# holds it, and no id is given twice.  The polynomials `_ring` and `_datom`
# return are shared through their memos and never mutated.

_ZERO = ({}, 1, {})
_ONE = ({(): 1}, 1, {})

#: atom -> (id, weak reference to the atom that id was given to)
_ATOM_IDS: "weakref.WeakKeyDictionary[Expr, tuple]" = weakref.WeakKeyDictionary()
_NEXT_ID = itertools.count()


def _atom(a: Expr, k: int = 1, c: int = 1) -> tuple:
    """The polynomial c*a^k.  Its atom is the one `_ATOM_IDS` numbered: a, or
    an equal atom numbered before it, so equal atoms share one id."""
    entry = _ATOM_IDS.get(a)
    if entry is None:
        i = next(_NEXT_ID)
        _ATOM_IDS[a] = i, weakref.ref(a)
    else:
        i, a = entry[0], entry[1]()
    return {((i, k),): c}, 1, {i: a}


def _merged(a: dict, b: dict) -> dict:
    """The union of two atom maps, sharing one of them where it holds the other."""
    if a is b or not b:
        return a
    if not a:
        return b
    if b.keys() <= a.keys():
        return a
    if a.keys() <= b.keys():
        return b
    return {**a, **b}


def _reduced(nums: dict, den: int, atoms: dict) -> tuple:
    """The polynomial nums/den in lowest terms."""
    if not nums:
        return _ZERO
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {m: c // g for m, c in nums.items()}
            den //= g
    return nums, den, atoms


def _add_term(out: dict, m: tuple, c: int) -> None:
    """out[m] += c, in place, dropping a zero."""
    if m in out:
        c += out[m]
        if c:
            out[m] = c
        else:
            del out[m]
    else:
        out[m] = c


def _sum(polys: Iterable[tuple], signs: Iterable[int] = itertools.repeat(1)) -> tuple:
    """The sum of sign*p over the pairs of `polys` and `signs` (each +1 or -1)."""
    pairs = list(zip(polys, signs))
    den, atoms = 1, {}
    for p, _ in pairs:
        if p[1] != 1:
            den = math.lcm(den, p[1])
        atoms = _merged(atoms, p[2])
    out: dict = {}
    for (nums, d, _), sign in pairs:
        scale = den // d if sign > 0 else -(den // d)
        for m, c in nums.items():
            _add_term(out, m, c * scale)
    return _reduced(out, den, atoms)


def _monomial(m: tuple, pairs: Iterable) -> tuple:
    """The monomial m times the atom powers `pairs`, (atom id, exponent)
    pairs in any order."""
    powers = dict(m)
    for i, k in pairs:
        powers[i] = powers.get(i, 0) + k
    return tuple(sorted(ik for ik in powers.items() if ik[1]))


def _product(m1: tuple, m2: tuple) -> tuple:
    """The monomial m1*m2: their concatenation where their ids do not
    interleave."""
    if not m2:
        return m1
    if not m1:
        return m2
    if m1[-1][0] < m2[0][0]:
        return m1 + m2
    if m2[-1][0] < m1[0][0]:
        return m2 + m1
    return _monomial(m1, m2)


def _times(p: tuple, q: tuple) -> tuple:
    (pn, pd, pa), (qn, qd, qa) = p, q
    out: dict = {}
    for m1, c1 in pn.items():
        for m2, c2 in qn.items():
            _add_term(out, _product(m1, m2), c1 * c2)
    return _reduced(out, pd * qd, _merged(pa, qa))


def _invert(p: tuple) -> tuple:
    """1/p: the reciprocal of a monomial, or the atom p^-1 of a sum."""
    nums, den, atoms = p
    if not nums:
        raise ZeroDivisionError("division by symbolic zero")
    if len(nums) == 1:
        (m, c), = nums.items()  # in lowest terms, so gcd(c, den) is 1
        return {tuple((i, -k) for i, k in m): den if c > 0 else -den}, abs(c), atoms
    return _atom(Pow(_rebuild(p), -1))


def _ring(e: Expr) -> tuple:
    """The polynomial of e, with every product and power multiplied out: the
    one `_rebuild` kept on e, else the expansion."""
    p = getattr(e, "_poly", None)
    return _expand(e) if p is None else p


@lru_cache(maxsize=65536)
def _expand(e: Expr) -> tuple:
    if isinstance(e, Rat):
        return ({(): e.num}, e.den, {}) if e.num else _ZERO
    if isinstance(e, (Pi, Var)):
        return _atom(e)
    if isinstance(e, Add):
        return _sum(map(_ring, e.terms))
    # products start at their first factor: _times(_ONE, p) is p
    if isinstance(e, Mul):
        rings = map(_ring, e.factors)
        return reduce(_times, rings, next(rings, _ONE))
    if isinstance(e, Pow):
        core = _ring(e.base) if e.exponent >= 0 else _invert(_ring(e.base))
        k = abs(e.exponent)
        return reduce(_times, itertools.repeat(core, k - 1), core) if k else _ONE
    if isinstance(e, (Sin, Cos, Exp)):
        arg = normalize(e.arg)
        if arg == ZERO:
            return _ZERO if isinstance(e, Sin) else _ONE
        return _atom(type(e)(arg))
    raise TypeError(f"not an expression: {e!r}")


def _factor_key(factor: Tuple[Expr, int]) -> Tuple[str, int]:
    return render(factor[0]), factor[1]


def _rebuild(p: tuple) -> Expr:
    """The tree of p: a sum of products, the factors of each product and then
    the products ordered by their (rendered atom, exponent) keys, never by
    atom ids.  The tree keeps p, which `_ring` then reads instead of
    expanding the tree again."""
    nums, den, atoms = p
    if not nums:
        return ZERO
    monomials = sorted(([sorted([(atoms[i], k) for i, k in m], key=_factor_key), c]
                        for m, c in nums.items()),
                       key=lambda mc: [_factor_key(f) for f in mc[0]])
    terms = []
    for factors, c in monomials:
        g = math.gcd(c, den)
        out = [Rat(c // g, den // g)] if c != den or not factors else []
        out += [a if k == 1 else Pow(a, k) for a, k in factors]
        terms.append(out[0] if len(out) == 1 else Mul(tuple(out)))
    tree = terms[0] if len(terms) == 1 else Add(tuple(terms))
    hash(tree)  # taken first, so the hash reads the fields alone
    object.__setattr__(tree, "_poly", p)
    return tree


@lru_cache(maxsize=65536)
def normalize(e: Expr) -> Expr:
    """Canonical sum of products of atoms with exact rational coefficients:
    products and integer powers multiplied out, like terms merged, and a
    negative power of a sum of two or more terms written with the atom
    (sum)^-1.
    ZeroDivisionError on a division by a symbolic zero."""
    return e if hasattr(e, "_poly") else _rebuild(_ring(e))  # a rebuilt tree is normal


# ---------------------------------------------------------------------------
# calculus and substitution

def diff(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative, normalized: the chain rule applied to the
    atoms of normalize(e), with d(s^-1) = -(s^-1)^2 ds for a sum s."""
    return _rebuild(_diff(_ring(e), var))


def _diff(p: tuple, var: str) -> tuple:
    nums, den, atoms = p
    chain = []  # (m, id of a, c*k, d a/d var) for each factor a^k of each term c*m
    scale = 1  # the lcm of the denominators of the atom derivatives
    for m, c in nums.items():
        for i, k in m:
            da = _datom(atoms[i], var)
            if da[0]:
                chain.append((m, i, c * k, da))
                if da[1] != 1:
                    scale = math.lcm(scale, da[1])
    out: dict = {}
    for m, i, ck, (dnums, dden, datoms) in chain:
        if dden != scale:
            ck *= scale // dden
        for m2, c2 in dnums.items():
            _add_term(out, _monomial(m, ((i, -1), *m2)), ck * c2)
        atoms = _merged(atoms, datoms)
    return _reduced(out, den * scale, atoms)


@lru_cache(maxsize=65536)
def _datom(a: Expr, var: str) -> tuple:
    """The derivative of the atom a by var."""
    if isinstance(a, (Var, Pi)):
        return _ONE if a == Var(var) else _ZERO
    if isinstance(a, Pow):
        return _times(_atom(a, 2, -1), _diff(_ring(a.base), var))
    outer = (_atom(Cos(a.arg)) if isinstance(a, Sin) else
             _atom(Sin(a.arg), 1, -1) if isinstance(a, Cos) else _atom(a))
    return _times(outer, _diff(_ring(a.arg), var))


def subst(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of variables by expressions (not normalized)."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, (Rat, Pi)):
        return e
    if isinstance(e, Add):
        return Add(tuple(subst(t, mapping) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(subst(f, mapping) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(subst(e.base, mapping), e.exponent)
    if isinstance(e, (Sin, Cos, Exp)):
        return type(e)(subst(e.arg, mapping))
    raise TypeError(f"not an expression: {e!r}")


def variables(e: Expr) -> set:
    """The names of the variables e reads.  Of a tree that keeps its
    polynomial, only the atoms are read, and of them only their arguments."""
    names, stack = set(), [e]
    while stack:
        x = stack.pop()
        if not isinstance(x, Expr):
            raise TypeError(f"not an expression: {x!r}")
        p = getattr(x, "_poly", None)
        if p is not None:
            atoms = {p[2][i] for m in p[0] for i, _ in m}
            names.update(a.name for a in atoms if isinstance(a, Var))
            stack += [c for a in atoms for c in _children(a)]
        elif isinstance(x, Var):
            names.add(x.name)
        else:
            stack += _children(x)
    return names


def compile_expr(e: Expr, names: Sequence[str]):
    """Compile to a vectorised numpy function of the chart coordinates.

    The kernel takes one array per name and returns the value on the
    broadcast shape of the arguments the expression reads (a float if it
    reads none), so on `np.meshgrid(..., sparse=True)` axes it touches only
    the axes it uses.  It runs a value-numbered list of steps (Aho, Lam,
    Sethi and Ullman, *Compilers*, §6.1), each a (slot, numpy ufunc or
    `operator` function, one or two operand slots) in depth-first order: a
    subtree that occurs twice or more is computed once, and every slot is
    cleared after its last use, so intermediates are freed as it goes.  Sums
    and products fold left to right, constants are Python floats and a
    negative exponent is a float, so the values are, bit for bit, those of
    the tree written out in full as Python arithmetic.
    """
    slots: list = [None] * len(names)  # the arguments, then constants and step results
    numbered: Dict[Expr, int] = {Var(n): i for i, n in enumerate(names)}
    steps = []

    def slot(value) -> int:
        slots.append(value)
        return len(slots) - 1

    def step(fn, x: int, y: Optional[int] = None) -> int:
        steps.append((slot(None), fn, x, y))
        return len(slots) - 1

    def emit(x: Expr) -> int:
        if x in numbered:
            return numbered[x]
        if isinstance(x, (Rat, Pi)):
            out = slot(math.pi if isinstance(x, Pi) else x.num / x.den)
        elif isinstance(x, (Add, Mul)):  # left to right, as in a + b + c
            fn, xs = (operator.add, x.terms) if isinstance(x, Add) else (operator.mul, x.factors)
            out = emit(xs[0]) if xs else slot(0.0 if isinstance(x, Add) else 1.0)
            for t in xs[1:]:
                out = step(fn, out, emit(t))
        elif isinstance(x, Pow):
            k = x.exponent
            out = step(operator.pow, emit(x.base), slot(float(k) if k < 0 else k))
        elif isinstance(x, (Sin, Cos, Exp)):
            out = step(_UNARY[type(x)], emit(x.arg))
        else:
            raise TypeError(f"not an expression over {tuple(names)}: {x!r}")
        numbered[x] = out
        return out

    result = emit(e)
    last = {s: i for i, (_, _, x, y) in enumerate(steps) for s in (x, y)}
    program = [(out, fn, x, y, tuple(s for s in {x, y} - {None} if last[s] == i))
               for i, (out, fn, x, y) in enumerate(steps)]
    start = slots[len(names):]

    def kernel(*args):
        if len(args) != len(names):
            raise TypeError(f"kernel takes {len(names)} arguments, got {len(args)}")
        regs = [*args, *start]
        for out, fn, x, y, dead in program:
            regs[out] = fn(regs[x]) if y is None else fn(regs[x], regs[y])
            for s in dead:
                regs[s] = None
        return regs[result]
    return kernel


_UNARY = {Sin: np.sin, Cos: np.cos, Exp: np.exp}


# ---------------------------------------------------------------------------
# tokenizer / parser

#: an identifier: a coordinate, parameter or function name, pi or a differential
_IDENT = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{_IDENT})"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {"sin": Sin, "cos": Cos, "exp": Exp}


#: kind is number, ident, op or end
_Token = namedtuple("_Token", "kind text pos")


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
#: `normalize` multiplies sums out, so (x + y + z + 1)^32 alone costs seconds,
#: as does (x + y + z + 1)^16 * (x + y + z + 1)^16
MAX_EXPONENT = 16
#: deepest nesting of parentheses, function calls and unary signs; the parser
#: and the tree walkers recurse once per level
MAX_NESTING = 100
#: tallest expression tree the parser builds, counted in nodes from the root to
#: a leaf: a chain of k factors joined by '*' is a left-deep tree k - 1 tall,
#: and so is the sum of k terms on one differential of a form; the reciprocal
#: b^-1 of a quotient by b counts as one level, so a chain of k factors joined
#: by '/' is k tall.  Hashing and the tree walkers recurse once or twice per
#: level: a 500-factor chain ran them out of Python's default 1000 frames, a
#: 400-factor one did not
MAX_DEPTH = 200
#: largest |e| accepted in a literal 1e<e>: beyond it the value is not a
#: float, and the exact Fraction("1e9999999") alone costs seconds
MAX_DECIMAL_EXPONENT = 324

_EXPONENT_RE = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _read_number(text: str, pos: int) -> Fraction:
    """Fraction(text), refused with FormSyntaxError at `pos` when it is not a
    number, has a zero denominator or its decimal exponent exceeds
    MAX_DECIMAL_EXPONENT in absolute value."""
    exp10 = _EXPONENT_RE.search(text)
    digits = exp10[1].replace("_", "").lstrip("0") if exp10 else ""
    if len(digits) > 9 or int(digits or 0) > MAX_DECIMAL_EXPONENT:
        raise FormSyntaxError(
            f"decimal exponent exceeds {MAX_DECIMAL_EXPONENT} in absolute value", pos)
    try:
        return Fraction(text)
    except ValueError:
        raise FormSyntaxError(f"not a number: {text.strip()!r}", pos) from None
    except ZeroDivisionError:
        raise FormSyntaxError(f"zero denominator in {text.strip()!r}", pos) from None


def _children(e: Expr) -> Tuple[Expr, ...]:
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Sin, Cos, Exp)):
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
        self.params = {k: (v if isinstance(v, Expr) else Rat(v))
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
        height = 1 + max((self.heights.get(id(c), 0) for c in _children(e)), default=-1)
        if height > MAX_DEPTH:
            raise FormSyntaxError(f"expression depth exceeds {MAX_DEPTH}", t.pos)
        self.degrees[id(e)] = degree
        self.heights[id(e)] = height
        return e

    def negated(self, e: Expr, t: _Token) -> Expr:
        """-e for the sign t: the negative number for a number e, else (-1)*e."""
        minus_e = Rat(-e.num, e.den) if isinstance(e, Rat) else Mul((Rat(-1), e))
        return self.bounded(minus_e, self.degree(e), t)

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
                coeff = self.negated(coeff, t)
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
            terms.append(rhs if sign == "+" else self.negated(rhs, t))
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
            if op == "/":
                rhs = self.bounded(Pow(rhs, -1), self.degree(rhs), t)
            out = self.bounded(Mul((out, rhs)), degree, t)
        return out

    def parse_unary(self) -> Expr:
        if self.at_op("-"):
            t = self.next()
            return self.negated(self.nested(t, self.parse_unary), t)
        if self.at_op("+"):
            return self.nested(self.next(), self.parse_unary)
        return self.parse_pow()

    def parse_pow(self) -> Expr:
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
            v = _read_number(t.text, t.pos)
            return Rat(v.numerator, v.denominator)
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
