"""Form coefficients as polynomials over atoms: parser, calculus, evaluation.

A coefficient is one `Expr` from parse to report: a polynomial with exact
rational coefficients in atoms, in the distributed sparse representation
(J. H. Davenport, Y. Siret and E. Tournier, *Computer Algebra*, Academic
Press 1988, ch. 2).  The atoms are the only nodes: variables, pi, sin, cos
and exp of a nonzero polynomial, and the reciprocal (`Recip`) of a sum of
two or more terms.  Each production of the parser returns a polynomial, so
sums, products and integer powers are multiplied out and like terms merged
as the text is read; a - b is a + (-1)*b, -a is (-1)*a and a/b is a*b^-1.
Equal polynomials are equal objects, which decides the cancellations the
calculus relies on (mixed partials, d o d = 0); equality of general
expressions remains a numeric check at random points.  `diff`
differentiates atom by atom, `subst` composes polynomials, and `render` and
`compile_expr` read the terms in one order, by rendered atoms
(`_monomials`).

Surface syntax for coefficients:

    Expr  := sum over IDENT, RATIONAL, pi, + - * / ^INT, sin cos exp, parens

with |INT| <= MAX_EXPONENT, literal decimal exponents within
MAX_DECIMAL_EXPONENT, MAX_DEPTH levels of operations, MAX_ATOM_EXPONENT and
MAX_COEFFICIENT_DIGITS.  The same parser reads the 1-form grammar of `forms`
when given basis names.  Rational literals (including decimal and
scientific notation) are read bit-exactly, through `fractions.Fraction`.
The parser reads a repeated parenthesised group or function argument once
per text, and a repeated number literal once (`_number` keeps the last 1024).

`compile_expr` is the numeric evaluator of the library, a value-numbered
list of numpy steps; its reference, the pointwise `eval_expr`, is kept with
the tests (tests/expr_reference.py).  Its order of operations is part of its
contract: a polynomial over two or more chart axes with a coordinate to a
power of 2 or more is evaluated by Horner's rule in that coordinate, every
other one as the sum of its terms in `_monomials` order, so a kernel's
values do not depend on atom ids.
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
from typing import Iterable, Mapping, Optional, Sequence, Tuple

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
    """A coefficient: the sum of nums[m]/den * m over its monomials m.

    `nums` maps each monomial to a nonzero int and `den` is an int > 0 with
    gcd(den, *nums.values()) = 1, so equal polynomials have equal (nums,
    den); `atoms` maps the id of every atom in `nums` to that atom (it may
    hold more).  A monomial is the tuple of its (atom id, exponent) int
    pairs, sorted by id, exponents nonzero (S. C. Johnson, "Sparse
    polynomial arithmetic", ACM SIGSAM Bull. 8(3), 1974): the collector
    stops tracking a tuple of ints.  Polynomials are never mutated.  The
    hash is kept in `_hash`; atom ids are per process, so a polynomial
    pickles by its atoms and exponents.  -, * and ** are ring operations.
    """

    __slots__ = ("nums", "den", "atoms", "_hash")

    def __init__(self, nums: dict, den: int, atoms: dict):
        self.nums, self.den, self.atoms = nums, den, atoms

    def __eq__(self, other):
        return self is other or (type(other) is Expr and self.den == other.den
                                 and self.nums == other.nums)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.den, frozenset(self.nums.items())))
            return h

    def __reduce__(self):
        return _from_terms, (_terms(self), self.den)

    def __repr__(self):
        return f"Expr({render(self)!r})"

    def __neg__(self):
        return _sum((self,), (-1,))

    def __sub__(self, other):
        return _sum((self, other), (1, -1))

    def __mul__(self, other):
        return _times(self, other)

    def __pow__(self, k: int):
        core = self if k >= 0 else _invert(self)
        return reduce(_times, itertools.repeat(core, abs(k) - 1), core) if k else ONE


class Atom:
    """Base of the atoms: frozen, slotted dataclasses, equal when their
    fields are.  The hash is computed on first use and kept in `_hash`; str
    hashes are salted per process, so `__reduce__` rebuilds an atom from its
    fields alone.  `__weakref__` lets `_ATOM_IDS` number atoms weakly."""

    __slots__ = ("_hash", "__weakref__")

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
    """`dataclass(frozen=True, slots=True)` over `Atom.__hash__`."""
    cls.__hash__ = Atom.__hash__
    return dataclass(frozen=True, slots=True)(cls)


@_node
class Pi(Atom):
    pass


@_node
class Var(Atom):
    name: str


@_node
class Sin(Atom):
    arg: Expr


@_node
class Cos(Atom):
    arg: Expr


@_node
class Exp(Atom):
    arg: Expr


@_node
class Recip(Atom):
    """1/arg for a sum arg of two or more terms."""

    arg: Expr


# ---------------------------------------------------------------------------
# the ring
#
# Sums, products and derivatives add and multiply integers over the lcm of
# the denominators they combine and reduce once, by one gcd, per result
# (Knuth, TAOCP vol. 2, §4.5.1); an integer polynomial (den 1) takes no gcd,
# and no `Fraction` is built.  `_ATOM_IDS` numbers the atoms weakly: an atom
# keeps its id while a polynomial or a memo holds it, and no id is given
# twice.

ZERO = Expr({}, 1, {})
ONE = Expr({(): 1}, 1, {})

#: atom -> (id, weak reference to the atom that id was given to)
_ATOM_IDS: "weakref.WeakKeyDictionary[Atom, tuple]" = weakref.WeakKeyDictionary()
_NEXT_ID = itertools.count()


def _numbered(a: Atom) -> tuple:
    """(id, atom) for a: a, or an equal atom numbered before it, so equal
    atoms share one id."""
    entry = _ATOM_IDS.get(a)
    if entry is None:
        _ATOM_IDS[a] = entry = next(_NEXT_ID), weakref.ref(a)
        return entry[0], a
    return entry[0], entry[1]()


def _atom(a: Atom, k: int = 1, c: int = 1) -> Expr:
    """The polynomial c*a^k."""
    i, a = _numbered(a)
    return Expr({((i, k),): c}, 1, {i: a})


def _const(v: Fraction) -> Expr:
    return Expr({(): v.numerator}, v.denominator, {}) if v else ZERO


def _function(kind: type, arg: Expr) -> Expr:
    """kind(arg) for an atom type: sin 0 = 0, cos 0 = exp 0 = 1, and Recip
    through `_invert`."""
    if kind is Recip:
        return _invert(arg)
    if not arg.nums:
        return ZERO if kind is Sin else ONE
    return _atom(kind(arg))


def _terms(e: Expr) -> tuple:
    """The terms of e as (((atom, exponent), ...), numerator) pairs."""
    return tuple((tuple((e.atoms[i], k) for i, k in m), c) for m, c in e.nums.items())


def _from_terms(terms: tuple, den: int, image=_atom) -> Expr:
    """The polynomial of `_terms` over den, each atom a replaced by image(a):
    how an `Expr` unpickles, its atoms numbered in this process, and how
    `subst` composes."""
    return _sum(reduce(_times, (image(a) ** k for a, k in factors), _reduced({(): c}, den, {}))
                for factors, c in terms)


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


def _reduced(nums: dict, den: int, atoms: dict) -> Expr:
    """The polynomial nums/den in lowest terms."""
    if not nums:
        return ZERO
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {m: c // g for m, c in nums.items()}
            den //= g
    return Expr(nums, den, atoms)


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


def _sum(polys: Iterable[Expr], signs: Iterable[int] = itertools.repeat(1)) -> Expr:
    """The sum of sign*p over the pairs of `polys` and `signs` (each +1 or -1)."""
    pairs = list(zip(polys, signs))
    den, atoms = 1, {}
    for p, _ in pairs:
        if p.den != 1:
            den = math.lcm(den, p.den)
        atoms = _merged(atoms, p.atoms)
    out: dict = {}
    for p, sign in pairs:
        scale = den // p.den if sign > 0 else -(den // p.den)
        for m, c in p.nums.items():
            _add_term(out, m, c * scale)
    return _reduced(out, den, atoms)


def _monomial(m1: tuple, m2: tuple) -> tuple:
    """The monomial m1*m2, by one linear merge of the two sorted tuples:
    the exponents of an id in both are added, and a zero sum is dropped."""
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, b = m1[i], m2[j]
        if a[0] < b[0]:
            out.append(a)
            i += 1
        elif b[0] < a[0]:
            out.append(b)
            j += 1
        else:
            k = a[1] + b[1]
            if k:
                out.append((a[0], k))
            i += 1
            j += 1
    return (*out, *m1[i:], *m2[j:])


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


def _times(p: Expr, q: Expr) -> Expr:
    out: dict = {}
    for m1, c1 in p.nums.items():
        for m2, c2 in q.nums.items():
            _add_term(out, _product(m1, m2), c1 * c2)
    return _reduced(out, p.den * q.den, _merged(p.atoms, q.atoms))


def _invert(p: Expr) -> Expr:
    """1/p: the reciprocal of a monomial, or the atom Recip(p) of a sum."""
    if not p.nums:
        raise ZeroDivisionError("division by symbolic zero")
    if len(p.nums) == 1:
        (m, c), = p.nums.items()  # in lowest terms, so gcd(c, den) is 1
        return Expr({tuple((i, -k) for i, k in m): p.den if c > 0 else -p.den}, abs(c), p.atoms)
    return _atom(Recip(p))


@lru_cache(maxsize=65536)
def normalize(e: Expr) -> Expr:
    """The shared instance of e: the polynomial equal to e that this memo
    returned first, so equal coefficients are one object and the memos find
    them by identity (`perfbench` reads its `cache_info()`).  Every `Expr`
    is in normal form: products and integer powers multiplied out, like
    terms merged, and a negative power of a sum of two or more terms written
    with the atom Recip(sum)."""
    return e


# ---------------------------------------------------------------------------
# rendering, in the order of `_monomials`

@lru_cache(maxsize=65536)
def _text(a: Atom) -> str:
    if isinstance(a, Var):
        return a.name
    if isinstance(a, Pi):
        return "pi"
    if isinstance(a, Recip):
        return f"({render(a.arg)})^-1"
    return f"{type(a).__name__.lower()}({render(a.arg)})"


def _power_key(power: Tuple[Atom, int]) -> Tuple[str, int]:
    return _text(power[0]), power[1]


#: the coefficient of a term of `_monomials`, in lowest terms
_Ratio = namedtuple("_Ratio", "num den")


@lru_cache(maxsize=65536)
def _monomials(e: Expr) -> tuple:
    """The terms of e in the order `render` and `compile_expr` read them,
    each the tuple of its factors: its coefficient (`_Ratio`), unless it
    is 1 and atom powers follow, then its atom powers (atom, exponent)
    ordered by (rendered atom, exponent); the terms ordered by the keys of
    their atom powers, never by atom ids."""
    terms = []
    for m, c in e.nums.items():
        powers = sorted(((e.atoms[i], k) for i, k in m), key=_power_key)
        g = math.gcd(c, e.den)
        coef = [_Ratio(c // g, e.den // g)] if c != e.den or not powers else []
        terms.append((tuple(coef + powers), [_power_key(f) for f in powers]))
    terms.sort(key=operator.itemgetter(1))
    return tuple(term for term, _ in terms)


def render(e: Expr) -> str:
    """Canonical text, which parses back to an equal polynomial: the terms
    of `_monomials` joined by ' + ', the factors of each by '*'."""
    terms = _monomials(e)
    prec = 1 if len(terms) > 1 else 0  # precedence: 0 sum, 1 term, 2 factor
    return " + ".join(_factor_text(t[0], prec) if len(t) == 1 else
                      "*".join(_factor_text(f, 2) for f in t) for t in terms) or "0"


def _factor_text(f, prec: int) -> str:
    if isinstance(f, _Ratio):
        s = str(f.num) if f.den == 1 else f"{f.num}/{f.den}"
        return f"({s})" if (f.num < 0 and prec >= 2) or (f.den != 1 and prec >= 1) else s
    return _text(f[0]) if f[1] == 1 else _power_text(*f, prec)


def _power_text(a: Atom, k: int, prec: int) -> str:
    if abs(k) > MAX_EXPONENT:  # printed powers stay within what the parser reads
        head = MAX_EXPONENT if k > 0 else -MAX_EXPONENT
        s = f"{_power_text(a, head, 2)}*{_power_text(a, k - head, 2)}"
        return f"({s})" if prec >= 2 else s
    return f"({_text(a)})^{k}" if isinstance(a, Recip) else f"{_text(a)}^{k}"


# ---------------------------------------------------------------------------
# calculus and substitution

def diff(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative: the chain rule applied to the atoms of
    e, with d(s^-1) = -(s^-1)^2 ds for a sum s."""
    atoms = e.atoms
    chain = []  # (m, id of a, c*k, d a/d var) for each factor a^k of each term c*m
    scale = 1  # the lcm of the denominators of the atom derivatives
    for m, c in e.nums.items():
        for i, k in m:
            da = _datom(atoms[i], var)
            if da.nums:
                chain.append((m, i, c * k, da))
                if da.den != 1:
                    scale = math.lcm(scale, da.den)
    out: dict = {}
    for m, i, ck, da in chain:
        if da.den != scale:
            ck *= scale // da.den
        m = _monomial(m, ((i, -1),))
        for m2, c2 in da.nums.items():
            _add_term(out, _product(m, m2), ck * c2)
        atoms = _merged(atoms, da.atoms)
    return _reduced(out, e.den * scale, atoms)


@lru_cache(maxsize=65536)
def _datom(a: Atom, var: str) -> Expr:
    """The derivative of the atom a by var."""
    if isinstance(a, (Var, Pi)):
        return ONE if a == Var(var) else ZERO
    outer = (_atom(a, 2, -1) if isinstance(a, Recip) else _atom(Cos(a.arg)) if isinstance(a, Sin)
             else _atom(Sin(a.arg), 1, -1) if isinstance(a, Cos) else _atom(a))
    return _times(outer, diff(a.arg, var))


def subst(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """e with its variables replaced, simultaneously, by the polynomials of
    `mapping`: the composition, multiplied out.  ZeroDivisionError where a
    reciprocal or a negative power meets a symbolic zero."""
    images: dict = {}

    def image(a: Atom) -> Expr:
        if a not in images:
            if isinstance(a, Var):
                images[a] = mapping[a.name] if a.name in mapping else _atom(a)
            else:
                images[a] = _atom(a) if isinstance(a, Pi) else _function(type(a), subst(a.arg, mapping))
        return images[a]
    return _from_terms(_terms(e), e.den, image)


def variables(e: Expr) -> set:
    """The names of the variables e reads: in its monomials and in the
    arguments of their atoms."""
    if type(e) is not Expr:
        raise TypeError(f"not an expression: {e!r}")
    names, stack = set(), [e]
    while stack:
        p = stack.pop()
        for a in {p.atoms[i] for m in p.nums for i, _ in m}:
            if isinstance(a, Var):
                names.add(a.name)
            elif not isinstance(a, Pi):
                stack.append(a.arg)
    return names


def compile_expr(e: Expr, names: Sequence[str]):
    """Compile to a vectorised numpy function of the chart coordinates.

    The kernel takes one array per name and returns the value on the
    broadcast shape of the arguments the expression reads (a float if it
    reads none), so on `np.meshgrid(..., sparse=True)` axes it touches only
    the axes it uses.  It runs a value-numbered list of steps (Aho, Lam,
    Sethi and Ullman, *Compilers*, §6.1), each a (slot, numpy ufunc or
    `operator` function, one or two operand slots, and for the first step of
    a Horner evaluation the axes it reads) in depth-first order: a
    polynomial, term, atom, atom power or constant that occurs twice or more
    is computed once, and every slot is cleared after its last use, so
    intermediates are freed as it goes.

    The order of operations is fixed.  A polynomial that reads two or more
    of the axes and holds a bare coordinate to a power of 2 or more is
    evaluated by Horner's rule in one coordinate v (`_horner_split` picks v
    and the cofactors c_k; J. M. Peña and T. Sauer, "On the multivariate
    Horner scheme", SIAM J. Numer. Anal. 37, 2000): acc = c_d*v into a new
    array of the polynomial's full shape, then from degree d - 1 down,
    acc*v (not at d - 1) and + c_k (where c_k is not 0), both in place in
    acc, which no other step reads; arguments and constants are never
    written.  Each c_k is compiled as a polynomial in its own right, so what
    the cofactors share is computed once.  Every other polynomial adds its
    terms left to right in `_monomials` order; the factors of a term are
    multiplied left to right in that order, constants are Python floats and
    a negative exponent is a float.  So the values are, bit for bit, those
    of the tree `rebuild` (tests/expr_reference.py) writes for the chart
    coordinates, evaluated as Python arithmetic.  Horner's rounding error
    is bounded in N. J. Higham, *Accuracy and Stability of Numerical
    Algorithms*, §5.1.
    """
    slots: list = [None] * len(names)  # the arguments, then constants and step results
    axes = {Var(n): i for i, n in enumerate(names)}
    numbered: dict = dict(axes)
    steps = []

    def slot(value) -> int:
        slots.append(value)
        return len(slots) - 1

    def step(fn, x: int, y: Optional[int] = None, *more: int) -> int:
        steps.append((slot(None), fn, x, y, more or None))
        return len(slots) - 1

    def fold(fn, items: tuple, emit) -> int:
        out = emit(items[0])
        for x in items[1:]:
            out = step(fn, out, emit(x))
        return out

    def poly(p: Expr) -> int:
        if p not in numbered:
            split = _horner_split(p, axes)
            if split is None:
                numbered[p] = fold(operator.add, _monomials(p) or ((_Ratio(0, 1),),), term)
            else:
                v, cofactors, reads = split
                x = atom(v)
                top, *rest = reversed(cofactors)
                acc = step(_horner_start, poly(top), x, *reads)
                for k, c in enumerate(rest):
                    if k:
                        acc = step(_multiply_into, acc, x)
                    if c.nums:
                        acc = step(_add_into, acc, poly(c))
                numbered[p] = acc
        return numbered[p]

    def term(factors: tuple) -> int:
        if len(factors) == 1:
            return factor(factors[0])
        if factors not in numbered:
            numbered[factors] = fold(operator.mul, factors, factor)
        return numbered[factors]

    def factor(f) -> int:
        if isinstance(f, _Ratio):
            if f not in numbered:
                try:
                    value = f.num / f.den
                except OverflowError:  # past the float range: the inf float arithmetic gives
                    value = math.inf if f.num > 0 else -math.inf
                numbered[f] = slot(value)
        elif f[1] == 1:
            return atom(f[0])
        elif f not in numbered:
            numbered[f] = step(operator.pow, atom(f[0]), slot(float(f[1]) if f[1] < 0 else f[1]))
        return numbered[f]

    def atom(a: Atom) -> int:
        if a not in numbered:
            if isinstance(a, Pi):
                out = slot(math.pi)
            elif isinstance(a, Recip):
                out = step(operator.pow, poly(a.arg), slot(-1.0))
            elif isinstance(a, (Sin, Cos, Exp)):
                out = step(_UNARY[type(a)], poly(a.arg))
            else:
                raise TypeError(f"not an expression over {tuple(names)}: {a!r}")
            numbered[a] = out
        return numbered[a]

    result = poly(e)
    operands = [{x, y, *(more or ())} - {None} for _, _, x, y, more in steps]
    last = {s: i for i, used in enumerate(operands) for s in used}
    program = [(out, fn, x, y, more, tuple(s for s in used if last[s] == i))
               for i, ((out, fn, x, y, more), used) in enumerate(zip(steps, operands))]
    start = slots[len(names):]

    def kernel(*args):
        if len(args) != len(names):
            raise TypeError(f"kernel takes {len(names)} arguments, got {len(args)}")
        regs = [*args, *start]
        for out, fn, x, y, more, dead in program:
            regs[out] = (fn(regs[x]) if y is None else fn(regs[x], regs[y]) if more is None
                         else fn(regs[x], regs[y], *[regs[s] for s in more]))
            for s in dead:
                regs[s] = None
        return regs[result]
    return kernel


_UNARY = {Sin: np.sin, Cos: np.cos, Exp: np.exp}


def _horner_split(p: Expr, axes: Mapping[Atom, int]) -> Optional[tuple]:
    """(v, (c_0, ..., c_d), reads) where `compile_expr` evaluates p by
    Horner's rule in the chart coordinate v, else None.

    That is where p reads two or more chart axes (`axes` maps each
    coordinate's `Var` to its argument index) and some coordinate occurs
    bare, as a factor v^k of a monomial, with k >= 2.  v is the coordinate
    of highest such degree d, the first in chart order among equals, and
    p = sum of c_k * v^k over k = 0..d: c_k collects the terms in which v
    has exponent k, divided by v^k, and c_0 keeps the terms that hold v to
    a negative power, as they are.  `reads` are the argument indices of
    the axes p reads, in chart order."""
    degree = {}
    for m in p.nums:
        for i, k in m:
            if k > degree.get(i, 1) and p.atoms[i] in axes:
                degree[i] = k
    if not degree:
        return None
    reads = tuple(sorted(axes[Var(n)] for n in variables(p) if Var(n) in axes))
    if len(reads) < 2:
        return None
    top, _, vid = max((k, -axes[p.atoms[i]], i) for i, k in degree.items())
    groups: list = [{} for _ in range(top + 1)]
    for m, c in p.nums.items():
        k = max(next((e for i, e in m if i == vid), 0), 0)
        groups[k][tuple(f for f in m if f[0] != vid) if k else m] = c
    return p.atoms[vid], tuple(_reduced(nums, p.den, p.atoms) for nums in groups), reads


def _horner_start(c, v, *read):
    """c*v into a new array of the broadcast shape of the arguments `read`:
    the accumulator of a Horner evaluation, which the kernel owns."""
    out = np.empty(np.broadcast(*read).shape, np.result_type(c, v))
    return np.multiply(c, v, out=out)


def _multiply_into(acc, v):
    return np.multiply(acc, v, out=acc)


def _add_into(acc, c):
    return np.add(acc, c, out=acc)


# ---------------------------------------------------------------------------
# tokenizer / parser

#: an identifier: a coordinate, parameter or function name, pi or a differential
_IDENT = r"[A-Za-z_][A-Za-z_0-9]*"
#: one token, or (`bad`) a character no token starts with; blanks match nothing
_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{_IDENT})"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S)"
)

_FUNCTIONS = {"sin": Sin, "cos": Cos, "exp": Exp}


#: kind is number, ident, op or end
_Token = namedtuple("_Token", "kind text pos")
_new_token = tuple.__new__  # the namedtuple's own constructor runs Python-level code


def tokenize(text: str, pos: int = 0, endpos: Optional[int] = None) -> list:
    """The tokens of text[pos:endpos], as `re.Pattern.finditer` spans it, at
    offsets into `text`, then an end token at endpos."""
    end = len(text) if endpos is None else endpos
    tokens = []
    for m in _TOKEN_RE.finditer(text, pos, end):
        if m.lastgroup == "bad":
            raise FormSyntaxError(f"unexpected character {m[0]!r}", m.start())
        tokens.append(_new_token(_Token, (m.lastgroup, m[0], m.start())))
    tokens.append(_new_token(_Token, ("end", "", end)))
    return tokens


#: largest |k| accepted in a power x^k, and largest expansion degree of a
#: parsed expression: a sum of several terms counts the largest of them, at
#: least 1; a product or quotient the sum of its factors; a power |k| times
#: its base; variables, numbers, pi, parameters and function calls count 0.
#: The parser multiplies sums out as it reads them and checks the bound
#: before each product and power, so (x + y + z + 1)^32 and
#: (x + y + z + 1)^16 * (x + y + z + 1)^16, which would each cost seconds to
#: multiply out, are refused before they are
MAX_EXPONENT = 16
#: deepest nesting of parentheses, function calls and unary signs; the parser
#: recurses once per level, and so do `render`, `diff` and `subst` through
#: nested atoms
MAX_NESTING = 100
#: most levels of operations the parser reads, counted as in a tree of them
#: from the root to a leaf: a chain of k factors joined by '*' is k - 1
#: levels, and so is the sum of k terms on one differential of a form; the
#: reciprocal b^-1 of a quotient by b counts as one level, so a chain of k
#: factors joined by '/' is k.  Coefficients are polynomials, which recurse
#: only through nested atoms, so the bound guards no recursion; it bounds the
#: length of a chain, and with it the atoms in one term and the terms on one
#: differential
MAX_DEPTH = 200
#: largest |e| accepted in a literal 1e<e>: beyond it the value is not a
#: float, and the exact Fraction("1e9999999") alone costs seconds
MAX_DECIMAL_EXPONENT = 324
#: largest |k| of an atom power a^k in a coefficient, the most a chain of
#: MAX_DEPTH factors a^MAX_EXPONENT writes: nested powers multiply exponents,
#: and `render` recurses once per MAX_EXPONENT of k (a^65536 overflowed)
MAX_ATOM_EXPONENT = MAX_EXPONENT * MAX_DEPTH
#: most digits of a numerator or denominator in a coefficient: Python's limit
#: on printing an int; (((((1e300)^16)^16)^16)^16) ran over 30 s to multiply
MAX_COEFFICIENT_DIGITS = 4300

_EXPONENT_RE = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _read_number(text: str, pos: int) -> Fraction:
    """Fraction(text), refused with FormSyntaxError at `pos` when it is not a
    number, has a zero denominator or its decimal exponent exceeds
    MAX_DECIMAL_EXPONENT in absolute value."""
    value = _number(text)
    if isinstance(value, str):
        raise FormSyntaxError(value, pos)
    return value


@lru_cache(maxsize=1024)
def _number(text: str):
    """Fraction(text), or the message that refuses it: each distinct literal
    is read once while it stays among the last 1024."""
    exp10 = _EXPONENT_RE.search(text)
    digits = exp10[1].replace("_", "").lstrip("0") if exp10 else ""
    if len(digits) > 9 or int(digits or 0) > MAX_DECIMAL_EXPONENT:
        return f"decimal exponent exceeds {MAX_DECIMAL_EXPONENT} in absolute value"
    try:
        return Fraction(text)
    except ValueError:
        return f"not a number: {text.strip()!r}"
    except ZeroDivisionError:
        return f"zero denominator in {text.strip()!r}"


def _bits(p: Expr) -> int:
    """Bits of the sum of |numerators| of p or of its denominator, whichever
    is more: at least those of every int p holds, and they add under products."""
    return max(sum(map(abs, p.nums.values())).bit_length(), p.den.bit_length())


class _Parser:
    """Recursive descent over the coefficient grammar and, given basis names,
    the 1-form grammar of `forms` (`parse_form`).

    Each production returns (polynomial, expansion degree, levels, bits,
    top): the degree as MAX_EXPONENT counts it and the levels as MAX_DEPTH
    does, leaves, parameters and the negation of a number counting 0; bits
    bounds `_bits` and top the largest atom exponent.  Both add under
    products, so a product or power is refused before it is multiplied out.
    A division by a symbolic zero is refused once the whole text is read, so
    a syntax error after it still wins.  A basis differential d<name> may only end a
    top-level term of a form; anywhere else it is a syntax error.

    A parenthesised group or function argument is read once per text, a
    packrat memo keyed by the group's text (B. Ford, "Packrat parsing", ICFP
    2002): a later copy takes the first copy's production if it sits no
    deeper than the depth that copy was read at, where MAX_NESTING held, and
    is read afresh otherwise, so it is refused as it would be without the
    memo.  A production depends on nothing else of its position, and a read
    that set the zero-division flag left it set for the rest of the text.
    `span` = (pos, endpos) reads that slice of `text`, at offsets into it.
    """

    def __init__(self, text: str, allowed: Iterable[str],
                 params: Optional[Mapping[str, object]] = None, basis: Sequence[str] = (),
                 span: Tuple[int, Optional[int]] = (0, None)):
        self.text = text
        self.tokens = tokenize(text, *span)
        self.closing = {}  # index of each '(' token -> index of its ')'
        opened = []
        for i, t in enumerate(self.tokens):
            if t.text == "(":
                opened.append(i)
            elif t.text == ")" and opened:
                self.closing[opened.pop()] = i
        self.groups: dict = {}  # group text -> (depth it was read at, its production)
        self.i = 0
        self.allowed = set(allowed)
        self.params = {}  # name -> what it reads as
        for k, v in (params or {}).items():
            v = _const(Fraction(v))
            self.params[k] = v, 0, 0, _bits(v), 0
        self.basis = {f"d{name}": axis for axis, name in enumerate(basis)}
        self.depth = 0
        self.zero_division = False
        self.leaves: dict = {}  # name -> what pi or a variable reads as

    def bounded(self, degree: int, levels: int, t: _Token, bits=0, top=0) -> None:
        """Past MAX_EXPONENT, MAX_DEPTH or a size bound of the module, an error at t."""
        if degree > MAX_EXPONENT:
            raise FormSyntaxError(f"expansion degree exceeds {MAX_EXPONENT}", t.pos)
        if levels > MAX_DEPTH:
            raise FormSyntaxError(f"expression depth exceeds {MAX_DEPTH}", t.pos)
        if bits > MAX_COEFFICIENT_DIGITS / math.log10(2):
            raise FormSyntaxError(f"coefficient exceeds {MAX_COEFFICIENT_DIGITS} digits", t.pos)
        if top > MAX_ATOM_EXPONENT:
            raise FormSyntaxError(f"atom exponent exceeds {MAX_ATOM_EXPONENT}", t.pos)

    def group(self, t: _Token) -> tuple:
        """The sum inside the '(' just read, and its ')', one level deeper
        than t; a repeated group text is read once (see the class)."""
        close = self.closing.get(self.i - 1)  # None where no ')' closes it
        key = close and self.text[self.tokens[self.i - 1].pos:self.tokens[close].pos]
        seen = self.groups.get(key)
        if seen and seen[0] >= self.depth:
            self.i = close + 1
            return seen[1]
        read = self.nested(t, self.parse_sum)
        self.expect_op(")")  # a sum read without error stops at the ')' `close`
        self.groups[key] = self.depth, read
        return read

    def inverse(self, p: Expr) -> Expr:
        try:
            return _invert(p)
        except ZeroDivisionError:
            self.zero_division = True
            return p

    def done(self, result):
        if self.zero_division:
            raise ZeroDivisionError("division by symbolic zero")
        return result

    def negated(self, read: tuple, t: _Token) -> tuple:
        """-p for the sign t: one level more, except for a number."""
        p, degree, levels, bits, top = read
        if levels or p.nums.keys() - {()}:
            levels += 1
        self.bounded(degree, levels, t)
        return -p, degree, levels, bits, top

    def leaf(self, name: str, atom: Atom) -> tuple:
        if name not in self.leaves:
            self.leaves[name] = _atom(atom), 0, 0, 1, 1
        return self.leaves[name]

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

    def parse_coefficient(self) -> Expr:
        """The whole text as one sum."""
        out = self.parse_sum()[0]
        t = self.peek()
        if t.kind != "end":
            raise FormSyntaxError(f"trailing input {t.text!r}", t.pos)
        return self.done(out)

    def parse_form(self) -> Tuple[Expr, ...]:
        """form := ['-'] term (('+'|'-') term)*; one coefficient per basis name."""
        if self.peek().kind == "end":
            raise FormSyntaxError("empty form", 0)
        sums = [(ZERO, 0, 0) for _ in self.basis]  # (sum, degree, levels) per differential
        negate = self.at_op("-")
        if negate:
            self.next()
        while True:
            t = self.peek()
            axis, read = self.parse_term()
            p, degree, levels, _, _ = self.negated(read, t) if negate else read
            total, degree0, levels0 = sums[axis]
            sums[axis] = total, degree, levels = (
                _sum((total, p)), max(degree0, degree, 1), 1 + max(levels0, levels))
            self.bounded(degree, levels, t, _bits(total))
            t = self.next()
            if t.kind == "end":
                return self.done(tuple(total for total, _, _ in sums))
            negate = t.text == "-"

    def parse_term(self) -> Tuple[int, tuple]:
        """term := product '*' basis | basis, followed by '+', '-' or the end."""
        start = self.peek()
        if start.kind == "end" or self.at_op("+-"):
            raise FormSyntaxError("empty term", start.pos)
        read = ONE, 0, 0, 1, 0
        if not self.at_basis():
            read = self.parse_product(basis_ends=True)
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
        return self.basis[basis.text], read

    def parse_sum(self) -> tuple:
        start = self.peek()
        terms = [self.parse_product()]
        while self.at_op("+-"):
            sign = self.next().text
            t = self.peek()
            rhs = self.parse_product()
            terms.append(rhs if sign == "+" else self.negated(rhs, t))
        if len(terms) == 1:
            return terms[0]
        degree = max(1, *(d for _, d, *_ in terms))
        levels = 1 + max(n for _, _, n, *_ in terms)
        total = _sum(p for p, *_ in terms)
        bits = _bits(total)
        self.bounded(degree, levels, start, bits)
        return total, degree, levels, bits, max(top for *_, top in terms)

    def parse_product(self, basis_ends: bool = False) -> tuple:
        """Factors joined by '*' or '/'; with `basis_ends`, stops before an
        operator whose right operand is a basis differential."""
        p, degree, levels, bits, top = self.parse_unary()
        while self.at_op("*/") and not (basis_ends and self.at_basis(1)):
            op = self.next().text
            t = self.peek()
            q, d, n, b, e = self.parse_unary()
            degree, bits, top = degree + d, bits + b, top + e
            if op == "/":
                n += 1
                self.bounded(d, n, t)
                q = self.inverse(q)
            levels = 1 + max(levels, n)
            self.bounded(degree, levels, t, bits, top)
            p = _times(p, q)
        return p, degree, levels, bits, top

    def parse_unary(self) -> tuple:
        if self.at_op("-"):
            t = self.next()
            return self.negated(self.nested(t, self.parse_unary), t)
        if self.at_op("+"):
            return self.nested(self.next(), self.parse_unary)
        return self.parse_pow()

    def parse_pow(self) -> tuple:
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
        k = int(t.text)
        if k > MAX_EXPONENT:
            raise FormSyntaxError(f"exponent exceeds {MAX_EXPONENT} in absolute value", t.pos)
        p, degree, levels, bits, top = base
        degree, levels, bits, top = k * degree, levels + 1, k * bits, k * top
        self.bounded(degree, levels, t, bits, top)
        return (self.inverse(p) if sign < 0 and k else p) ** k, degree, levels, bits, top

    def parse_atom(self) -> tuple:
        t = self.next()
        if t.kind == "number":
            p = _const(_read_number(t.text, t.pos))
            return p, 0, 0, _bits(p), 0
        if t.kind == "op" and t.text == "(":
            return self.group(t)
        if t.kind == "ident":
            if t.text in self.basis:
                raise FormSyntaxError("differential must end its term", t.pos)
            if t.text == "pi":
                return self.leaf(t.text, Pi())
            if t.text in _FUNCTIONS:
                self.expect_op("(")
                arg, _, levels, _, _ = self.group(t)
                self.bounded(0, levels + 1, t)
                return _function(_FUNCTIONS[t.text], arg), 0, levels + 1, 1, 1
            if t.text in self.params:
                return self.params[t.text]
            if t.text in self.allowed:
                return self.leaf(t.text, Var(t.text))
            raise UnknownVariableError(t.text, t.pos)
        raise FormSyntaxError(f"unexpected token {t.text!r}" if t.text else "unexpected end of input", t.pos)


def parse_expr(text: str, allowed: Iterable[str], params: Optional[Mapping[str, object]] = None) -> Expr:
    """Parse a coefficient expression over the given variable names.

    `params` binds extra identifiers to numbers at parse time.
    ZeroDivisionError on a division by a symbolic zero.
    """
    return _Parser(text, allowed, params).parse_coefficient()
