"""Reference for the tests of `formcalc.models`, as target components of
pullbacks:

- the scaling flow (x, y, z) -> (e^s x, e^s y, e^{2s} z), which multiplies
  the standard contact form dz + x dy - y dx by e^{2s};
- the block rotation of the Hopf chart by the time t, with the atoms
  cos(2t pi) and sin(2t pi), which `hopf_invariance_check` reads as the
  rotation by the symbolic angle theta at theta = float(2t)*pi.
"""

from fractions import Fraction

from contactbundles import formcalc as fc
from contactbundles.formcalc.expr import Cos, Pi, Sin, Var, _atom, _const, _function, _sum


def scaling_flow_components(s: Fraction):
    """(e^s x, e^s y, e^{2s} z) as target components over the (x, y, z) chart."""
    src = fc.Chart(("x", "y", "z"), ((-2.0, 2.0),) * 3)
    comps = tuple(fc.parse_expr(text, src.names, {"s": Fraction(s)})
                  for text in ("exp(s)*x", "exp(s)*y", "exp(2*s)*z"))
    return comps, src


def _block_rotation_components(t: Fraction, variant: int):
    """Linear components of (z, w) -> (e^{2 pi i t} z, e^{+-2 pi i t} w)."""
    angle = _const(2 * Fraction(t)) * _atom(Pi())
    c, s = _function(Cos, angle), _function(Sin, angle)
    v = s if variant > 0 else -s
    x1, y1, x2, y2 = (_atom(Var(name)) for name in ("x1", "y1", "x2", "y2"))
    return (_sum((c * x1, s * y1), (1, -1)), _sum((s * x1, c * y1)),
            _sum((c * x2, v * y2), (1, -1)), _sum((v * x2, c * y2)))
