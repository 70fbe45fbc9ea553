"""Exact piecewise-linear lifts for the tests: random lifts, and a relator
whose orbit of 0 is known in closed form."""

import math
from fractions import Fraction

from contactbundles import circle_dynamics as cd


def random_pl(rng, max_knots=5, max_den=32):
    """Random exact-rational piecewise-linear lift."""
    k = rng.randint(1, max_knots)
    ts = set()
    while len(ts) < k:
        den = rng.randint(2, max_den)
        ts.add(Fraction(rng.randrange(den), den))
    ts = sorted(ts)
    v0 = Fraction(rng.randrange(-8, 8), rng.randint(1, 8))
    # total increase over the knots stays below 1
    weights = [Fraction(rng.randint(1, 9)) for _ in range(k)]
    total = sum(weights)
    margin = Fraction(rng.randint(1, 4), 5)
    vals = []
    acc = v0
    for w in weights:
        vals.append(acc)
        acc += w / total * margin
    return cd.PiecewiseLinearMap(list(zip(ts, vals)))


# bump: slope 3/2, 1/2, 3/2 on [1/8, 1/4, 1/2, 5/8], the identity elsewhere.
# [bump, T_1/2] is bump on [1/8, 5/8] and T bump^-1 T^-1 on [5/8, 9/8], where
# it contracts by 2/3 onto the knot 1/8 + 1 from below: F^N(0) = (1 - (2/3)^N)/8.
BUMP = cd.PiecewiseLinearMap([(Fraction(1, 8), Fraction(1, 8)), (Fraction(1, 4), Fraction(5, 16)),
                              (Fraction(1, 2), Fraction(7, 16)), (Fraction(5, 8), Fraction(5, 8))])
KNOT_CYCLE_MAPS = (BUMP, cd.PiecewiseLinearMap.translation(Fraction(1, 2)))
KNOT_CYCLE_RELATOR = cd.evaluate_relator(KNOT_CYCLE_MAPS)


def knot_cycle_average(n):
    """F^n(0)/n for KNOT_CYCLE_RELATOR in closed form, as its reduced
    (numerator, denominator): (3^n - 2^n)/(8n 3^n), where 3^n - 2^n is prime
    to 3, so only its gcd with 8n divides out.  `Fraction` would take the
    gcd of the two long numbers instead, 2 s at n = 10^6."""
    top, bottom = 3 ** n - 2 ** n, 8 * n
    g = math.gcd(top, bottom)
    return top // g, bottom // g * 3 ** n
