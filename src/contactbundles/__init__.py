"""Computational toolkit for contact structures on circle bundles over surfaces.

The package is organised around five independent engines plus a CLI:

* `circle_dynamics` -- lifts of circle homeomorphisms: the surface-group
  relator of piecewise-linear lifts folded to one, and exact displacement
  bounds, translation numbers and Euler numbers of such a lift; Moebius
  boundary lifts and composition words evaluate pointwise.
* `hyperbolic` -- symmetric polygons in the Poincare disk, side-pairing
  isometries, and the holonomy relator's translation number and trace, read
  from how one handle's two pairings turn at four vertices.
* `formcalc` -- a small symbolic engine for differential 1-forms: parser,
  exterior derivative, contact-sign grids, pullbacks, the model-form catalog.
* `classify` -- the integer existence / counting / bound formulas, and the
  brute-force cohomology orbit oracle.
* `multicurve` -- multicurves on surfaces encoded by complement
  decompositions; tightness criteria and torus intersection numbers.

`formcalc` needs numpy, so it is imported on first access to
`contactbundles.formcalc` (a PEP 562 module `__getattr__`), not with the
package.
"""

__version__ = "0.1.0"

import importlib

from . import circle_dynamics, classify, hyperbolic, multicurve  # noqa: F401


def __getattr__(name):
    if name == "formcalc":
        return importlib.import_module(f"{__name__}.formcalc")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
