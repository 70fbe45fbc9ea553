"""Reference for the tests of `formcalc.models`: the scaling flow
(x, y, z) -> (e^s x, e^s y, e^{2s} z), which multiplies the standard contact
form dz + x dy - y dx by e^{2s}, as the target components of a pullback."""

from fractions import Fraction

from contactbundles import formcalc as fc


def scaling_flow_components(s: Fraction):
    """(e^s x, e^s y, e^{2s} z) as target components over the (x, y, z) chart."""
    src = fc.Chart(("x", "y", "z"), ((-2.0, 2.0),) * 3)
    comps = tuple(fc.parse_expr(text, src.names, {"s": Fraction(s)})
                  for text in ("exp(s)*x", "exp(s)*y", "exp(2*s)*z"))
    return comps, src
