"""Reference geometry for the tests: the lifted holonomy relator folded
letter by letter over all 2g side pairings, the O(g) oracle for
`hyperbolic.relator_rotation`, the fold's rounding bound summed from plain
complex products, and a distance on PSL(2, R)."""

import math
from itertools import accumulate
from typing import Sequence

from contactbundles import circle_dynamics as cd
from contactbundles import hyperbolic as hy
from polygon_reference import symmetric_pairings


def proj_distance(x: hy.Isometry2H, y: hy.Isometry2H) -> float:
    """max-norm distance in PSL(2, R): min over the sign ambiguity."""
    dplus = max(abs(x.a - y.a), abs(x.b - y.b), abs(x.c - y.c), abs(x.d - y.d))
    dminus = max(abs(x.a + y.a), abs(x.b + y.b), abs(x.c + y.c), abs(x.d + y.d))
    return min(dplus, dminus)


def holonomy_relator(pairings: Sequence[hy.Isometry2H]) -> cd.WordMap:
    """The relator prod_i [phi_{2i-1}, phi_{2i}] of the pairings' canonical boundary lifts."""
    return cd.evaluate_relator([cd.MoebiusBoundaryLift(p) for p in pairings])


def holonomy_translation_number(g: int, area: float, iterations: int) -> cd.TranslationNumberEstimate:
    """Translation number of the lifted relator of the area-`area` polygon,
    folded over all 4g letters.

    The canonical lift is taken for every generator; the relator's value does
    not depend on that choice because each generator occurs with both
    exponents and integer translations are central.  |value| approximates
    area/(2*pi) within the estimate's error bound.
    """
    _, pairings = symmetric_pairings(g, area)
    return cd.translation_number(holonomy_relator(pairings), iterations)


def disk_product(x, y):
    """Disk coefficients (alpha, beta) of the product of two isometries given by theirs."""
    (a1, b1), (a2, b2) = x, y
    return a1 * a2 + b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate()


def fold_error_scale(word: cd.WordMap, rescaling: bool = True) -> float:
    """S of `circle_dynamics.trace_slack` for the fold of a word of Moebius
    lifts A_1..A_k, from prefix and suffix products of disk coefficients:
    sum_i ||P_<i|| * ||A_i|| * max(||P_>i||, ||P_>i - h*P_<=i^-1||), with
    h = Re(alpha) = trace/2 of the product and ||(a, b)|| = |a| + |b|.  The
    second norm is how an error in P_<=i moves the trace once the product is
    rescaled to det 1; `rescaling=False` leaves it out (the sum before that
    term was counted)."""
    coeffs = [(m._alpha, m._beta) for m in reversed(word._chain)]
    prefixes = list(accumulate(coeffs, disk_product))  # P_<=i
    suffixes = list(accumulate(coeffs[:0:-1], lambda p, c: disk_product(c, p)))[::-1]
    suffixes.append((1.0, 0.0))  # P_>i
    h = prefixes[-1][0].real if rescaling else 0.0
    before = [1.0] + [abs(a) + abs(b) for a, b in prefixes[:-1]]
    return math.fsum(
        p * (abs(a) + abs(b)) * max(abs(qa) + abs(qb), abs(qa - h * pa.conjugate()) + abs(qb + h * pb))
        for p, (a, b), (qa, qb), (pa, pb) in zip(before, coeffs, suffixes, prefixes))
