"""The polynomials of `expr` against the tuple sum-of-products normaliser and
the tree-walking chain rule they replaced, kept here as the reference; the
parser against the tree route of `expr_reference`; and the ring calculus of
`forms` against its composition from `diff` and the tree route.

The reference expands a tree into a dict from sorted ((atom, exponent), ...)
tuples to Fractions, re-sorting each product by the rendered atoms, and
differentiates by building the chain-rule tree and normalising it.  Both
normalisers treat the same atoms as independent indeterminates, so their
normal forms and derivatives render identically: a quotient by a sum s is a
product with s^-1, which both differentiate through the atom s^-1.
"""

import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contactbundles import formcalc as fc
from contactbundles.formcalc.expr import MAX_EXPONENT, ONE, ZERO, render
from expr_reference import (REDUCED_COEFFS, ZERO_TREE, Add, Cos, Exp, Mul, Pi, Pow, Rat, Sin, Var,
                            atom_tree, children, div, monomial_by_dict, neg, rebuild, render_tree,
                            ring)


# ---------------------------------------------------------------------------
# reference: tuple sum of products

def _atom_key(a):
    return render_tree(a)


def _mono_mul(m1, m2):
    acc = dict(m1)
    for a, k in m2:
        acc[a] = acc.get(a, 0) + k
    items = [(a, k) for a, k in acc.items() if k != 0]
    items.sort(key=lambda ak: (_atom_key(ak[0]), ak[1]))
    return tuple(items)


def _sop_add(s1, s2):
    out = dict(s1)
    for m, c in s2.items():
        c2 = out.get(m, Fraction(0)) + c
        if c2:
            out[m] = c2
        elif m in out:
            del out[m]
    return out


def _sop_mul(s1, s2):
    out = {}
    for m1, c1 in s1.items():
        for m2, c2 in s2.items():
            m = _mono_mul(m1, m2)
            c = out.get(m, Fraction(0)) + c1 * c2
            if c:
                out[m] = c
            elif m in out:
                del out[m]
    return out


def _sop_const(c):
    return {(): Fraction(c)} if c else {}


def _sop_atom(a):
    return {((a, 1),): Fraction(1)}


def _sop_invert(s):
    if not s:
        raise ZeroDivisionError("division by symbolic zero")
    if len(s) == 1:
        (mono, coeff), = s.items()
        inv_mono = tuple(sorted(((a, -k) for a, k in mono),
                                key=lambda ak: (_atom_key(ak[0]), ak[1])))
        return {inv_mono: Fraction(1) / coeff}
    return _sop_atom(Pow(_rebuild(s), -1))


def _to_sop(e):
    if isinstance(e, Rat):
        return _sop_const(e.value)
    if isinstance(e, (Pi, Var)):
        return _sop_atom(e)
    if isinstance(e, Add):
        out = {}
        for t in e.terms:
            out = _sop_add(out, _to_sop(t))
        return out
    if isinstance(e, Mul):
        out = _sop_const(Fraction(1))
        for f in e.factors:
            out = _sop_mul(out, _to_sop(f))
        return out
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
        arg = reference_normalize(e.arg)
        if isinstance(arg, Rat) and arg.value == 0:
            return {} if isinstance(e, Sin) else _sop_const(Fraction(1))
        return _sop_atom(type(e)(arg))
    raise TypeError(f"not an expression: {e!r}")


def _rebuild(s):
    if not s:
        return ZERO_TREE
    terms = []
    for mono, coeff in sorted(s.items(), key=lambda mc: tuple((_atom_key(a), k)
                                                              for a, k in mc[0])):
        factors = []
        if coeff != 1 or not mono:
            factors.append(Rat(coeff))
        for a, k in mono:
            factors.append(a if k == 1 else Pow(a, k))
        terms.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def reference_normalize(e):
    return _rebuild(_to_sop(e))


def _tree_diff(e, var):
    if isinstance(e, (Rat, Pi)):
        return Rat(0)
    if isinstance(e, Var):
        return Rat(1 if e.name == var else 0)
    if isinstance(e, Add):
        return Add(tuple(_tree_diff(t, var) for t in e.terms))
    if isinstance(e, Mul):
        fs = e.factors
        return Add(tuple(Mul(fs[:i] + (_tree_diff(fs[i], var),) + fs[i + 1:])
                         for i in range(len(fs))))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return ZERO_TREE
        return Mul((Rat(Fraction(e.exponent)), Pow(e.base, e.exponent - 1),
                    _tree_diff(e.base, var)))
    if isinstance(e, Sin):
        return Mul((Cos(e.arg), _tree_diff(e.arg, var)))
    if isinstance(e, Cos):
        return neg(Mul((Sin(e.arg), _tree_diff(e.arg, var))))
    if isinstance(e, Exp):
        return Mul((Exp(e.arg), _tree_diff(e.arg, var)))
    raise TypeError(f"not an expression: {e!r}")


def reference_diff(e, var):
    return reference_normalize(_tree_diff(e, var))


# ---------------------------------------------------------------------------
# random trees with shared subtrees

RATIONALS = st.builds(lambda p, q: Rat(Fraction(p, q)), st.integers(-4, 4), st.integers(1, 3))


@st.composite
def shared_trees(draw, steps=8, max_degree=MAX_EXPONENT):
    """A tree built bottom-up in 1..`steps` steps, each node over the one
    before and two earlier ones, so a subtree may occur several times: sums,
    products, quotients (by sums too), powers with exponents -2..3,
    negations, and sin/cos/exp, some of a zero argument; a quotient and a
    negation are the ring trees the parser builds for them."""
    pool = [Var("x"), Var("y"), Var("z"), Pi(), draw(RATIONALS)]
    for _ in range(draw(st.integers(1, steps))):
        a, k = pool[-1], draw(st.integers(-2, 3))
        b, c = (pool[draw(st.integers(0, len(pool) - 1))] for _ in range(2))
        zero = Add((b, neg(b)))
        pool.append(draw(st.sampled_from([
            Add((a, b)), Add((a, b, c)), Mul((a, b)), div(a, b), div(a, Add((b, c))),
            Pow(a, k), neg(a), Sin(a), Cos(a), Exp(a), Sin(zero), Cos(zero), Mul((Sin(zero), a)),
        ])))
    assume(_degree(pool[-1]) <= max_degree)
    return pool[-1]


def _degree(e) -> int:
    """A bound on the degree of e multiplied out, its function arguments
    included, so that no tree costs the reference seconds."""
    if isinstance(e, (Var, Pi, Rat)):
        return 1
    if isinstance(e, Add):
        return max(map(_degree, e.terms))
    if isinstance(e, Mul):
        return sum(map(_degree, e.factors))
    if isinstance(e, Pow):
        return abs(e.exponent) * _degree(e.base)
    return _degree(e.arg)


X, Y, Z = Var("x"), Var("y"), Var("z")
S = Add((X, Y))


@settings(max_examples=300, deadline=None)
@given(shared_trees())
@example(div(X, S))
@example(div(S, S))
@example(div(Rat(1), div(Rat(1), S)))
@example(Pow(div(X, S), -2))
@example(Mul((Sin(Add((X, neg(X)))), div(Y, Add((Z, neg(Z)))))))
@example(Exp(div(Cos(Add((Y, neg(Y)))), Add((X, Pi())))))
@example(Mul((Pow(Add((X, Mul((Y, Cos(S))))), 3), div(Sin(S), Add((Rat(1), Mul((X, Cos(S)))))))))
def test_normal_form_and_derivative_match_the_reference(e):
    """The tree route and the parser, reading the tree's text, give one
    polynomial, which renders as the reference normal form does."""
    try:
        expected = reference_normalize(e)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            ring(e)
        with pytest.raises(ZeroDivisionError):
            fc.parse_expr(render_tree(e), "xyz")
        return
    p = ring(e)
    assert render(p) == render_tree(expected)
    assert fc.parse_expr(render_tree(e), "xyz") == p
    assert fc.parse_expr(render(p), "xyz") == p
    copy = pickle.loads(pickle.dumps(p))
    assert copy == p and render(copy) == render(p)
    for var in "xy":
        assert render(fc.diff(p, var)) == render_tree(reference_diff(e, var))


def _distinct_subtrees(e):
    seen, stack = set(), [e]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            stack += children(x)
    return seen


def _assert_canonical(p):
    """Integer numerators over one positive denominator, in lowest terms, by
    monomials of (atom id, exponent) int pairs sorted by id, each id an atom
    the polynomial holds."""
    nums, den, atoms = p.nums, p.den, p.atoms
    assert type(den) is int and den > 0
    assert all(type(c) is int and c != 0 for c in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    for m in nums:
        assert type(m) is tuple and list(m) == sorted(m) and len({i for i, _ in m}) == len(m)
        assert all(type(i) is int and type(k) is int and k and i in atoms for i, k in m)


def _coefficients(p):
    """The coefficients of p by monomial, each monomial the frozenset of its
    (atom tree, exponent) pairs."""
    return {frozenset((atom_tree(p.atoms[i]), k) for i, k in m): Fraction(c, p.den)
            for m, c in p.nums.items()}


@settings(max_examples=200, deadline=None)
@given(shared_trees())
@example(Mul((Rat(Fraction(2, 3)), Rat(Fraction(3, 2)), X)))
@example(Add((Mul((Rat(Fraction(1, 6)), X)), Mul((Rat(Fraction(1, 3)), X)), Y)))
@example(div(Rat(Fraction(4, 9)), Mul((Rat(Fraction(2, 3)), X))))
@example(Pow(div(X, Add((Rat(Fraction(1, 2)), Y))), -2))
def test_ring_keeps_integer_numerators_over_one_reduced_denominator(e):
    """Every polynomial the ring returns is canonical, so equal polynomials
    are equal pairs (the memos and d o d = 0 rely on it), and its
    coefficients are those of the tuple reference."""
    for s in _distinct_subtrees(e):
        try:
            expected = _to_sop(s)
        except ZeroDivisionError:
            continue
        p = ring(s)
        _assert_canonical(p)
        assert _coefficients(p) == {frozenset(m): c for m, c in expected.items()}
        for var in "xy":
            dp = fc.expr.diff(p, var)
            _assert_canonical(dp)
            _assert_canonical(fc.expr._times(p, dp))
            assert dp - dp == ZERO


#: a monomial: (atom id, exponent) pairs sorted by id, exponents nonzero
MONOMIALS = st.dictionaries(st.integers(0, 12), st.integers(-3, 3).filter(bool),
                            max_size=6).map(lambda d: tuple(sorted(d.items())))


@settings(max_examples=500, deadline=None)
@given(MONOMIALS, MONOMIALS)
@example(((1, 2), (4, -1)), ((1, -2), (4, 1)))  # every exponent cancels
@example((), ((0, 1),))
def test_monomial_merge_matches_the_dict_merge(m1, m2):
    """`_monomial`'s linear merge gives the tuple the dict-and-`sorted`
    merge gave, for ids that interleave, coincide or cancel."""
    assert fc.expr._monomial(m1, m2) == monomial_by_dict(m1, m2)
    assert fc.expr._product(m1, m2) == monomial_by_dict(m1, m2)


def test_quotient_by_a_sum_differentiates_through_its_atom():
    """x/s is x*s^-1, so the ring and the reference's power rule both write
    (s^-1)^2, never the expanded s^2 as a new atom."""
    e = div(X, S)
    de = fc.diff(ring(e), "x")
    assert render(de) == "(x + y)^-1 + (-1)*((x + y)^-1)^2*x"
    assert render_tree(reference_diff(e, "x")) == render(de)
    assert fc.parse_expr(render(de), "xyz") == de


@pytest.mark.parametrize("e", [div(X, Add((Y, neg(Y)))), Pow(Mul((Y, Rat(0))), -1),
                               div(X, Sin(Add((Z, neg(Z))))),
                               Pow(div(Rat(1), Add((X, neg(X)))), 0)])
def test_division_by_a_symbolic_zero_raises(e):
    with pytest.raises(ZeroDivisionError):
        ring(e)
    with pytest.raises(ZeroDivisionError):
        fc.parse_expr(render_tree(e), "xyz")


# ---------------------------------------------------------------------------
# the calculus: the ring operations of `forms` against the tree route over
# `diff`, and `subst` against substituting in the rebuilt tree

def reference_exterior_derivative(form):
    names, a = form.chart.names, form.coefficients
    return {(i, j): ring(Add((fc.diff(a[j], names[i]), neg(fc.diff(a[i], names[j])))))
            for i, j in itertools.combinations(range(len(names)), 2)}


def reference_volume_coefficient(form):
    d = reference_exterior_derivative(form)
    a1, a2, a3 = form.coefficients
    return ring(Add((Mul((a1, d[1, 2])), neg(Mul((a2, d[0, 2]))), Mul((a3, d[0, 1])))))


def _substituted(tree, mapping):
    """The tree with each variable leaf in `mapping` replaced by its polynomial."""
    if isinstance(tree, Var):
        return mapping.get(tree.name, tree)
    if isinstance(tree, (Add, Mul)):
        return type(tree)(tuple(_substituted(t, mapping) for t in children(tree)))
    if isinstance(tree, Pow):
        return Pow(_substituted(tree.base, mapping), tree.exponent)
    if isinstance(tree, (Sin, Cos, Exp)):
        return type(tree)(_substituted(tree.arg, mapping))
    return tree


def reference_pullback(components, source_chart, form):
    mapping = dict(zip(form.chart.names, components))
    return fc.OneForm(source_chart, tuple(
        ring(Add(tuple(Mul((_substituted(rebuild(a), mapping), fc.diff(c, name)))
                       for a, c in zip(form.coefficients, components))))
        for name in source_chart.names))


CHART = fc.Chart(("x", "y", "z"), ((-2.0, 2.0),) * 3)
COEFFS = st.one_of(st.sampled_from(REDUCED_COEFFS).map(lambda t: fc.parse_expr(t, "xyz")),
                   shared_trees(steps=4, max_degree=4))
Q = fc.parse_expr("y/(3 + x^2 + y^2)", "xyz")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def _rings(trees):
    return tuple(map(ring, trees))


@settings(max_examples=150, deadline=None)
@given(st.tuples(COEFFS, COEFFS, COEFFS), st.tuples(COEFFS, COEFFS, COEFFS))
@example((neg(Q), ZERO, ONE), (X, Y, Z))
@example((div(Sin(X), Add((Y, Cos(Z)))), Exp(div(X, S)), Pow(S, -2)),
         (div(ONE, Add((X, Pi()))), Mul((Y, Exp(Z))), Cos(S)))
@example((Y, div(X, Add((Y, neg(Y)))), ONE), (X, Y, Z))
@example((div(X, S), ZERO, Y), (div(X, Add((Z, neg(Z)))), Y, Z))
def test_calculus_on_the_ring_matches_the_tree_route(coeffs, components):
    form = _outcome(lambda: fc.OneForm(CHART, _rings(coeffs)))
    assume(form is not ZeroDivisionError)
    d = fc.exterior_derivative(form)
    assert dict(((i, j), c) for i, j, c in d.table) == reference_exterior_derivative(form)
    for i, j, c in d.table:
        assert d.coefficient(i, j) is c
        assert d.coefficient(j, i) == ring(neg(c))
        assert d.coefficient(i, i) == ZERO
    assert fc.volume_coefficient(form) == reference_volume_coefficient(form)
    components = _outcome(_rings, components)
    assume(components is not ZeroDivisionError)
    got = _outcome(fc.pullback, components, CHART, form)
    expected = _outcome(reference_pullback, components, CHART, form)
    assert got == expected
