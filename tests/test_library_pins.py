"""The catalog's coefficients, derivatives and pullbacks, pinned bit for bit.

For every coefficient of every catalog entry, its derivative by each
coordinate, its exterior derivative and volume coefficient, and the
coefficients of the fiber-tube, torus-wrapping, scaling and Hopf pullbacks,
`tests/data/library_pins.json` records the rendered text and `float.hex` of
the compiled values at three fixed points of the chart.  The test computes
them afresh and compares.

Regenerate (only for an intended, logged change of the normal form):

    PYTHONPATH=src python tests/test_library_pins.py
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from contactbundles import formcalc as fc
from contactbundles.formcalc.expr import compile_expr
from contactbundles.formcalc.models import fiber_tube_pullback, torus_wrapping_pullback
from models_reference import _block_rotation_components, scaling_flow_components

PINS = Path(__file__).parent / "data" / "library_pins.json"
#: where each point sits along each axis, as shares of its range
SHARES = (0.173, 0.5, 0.871)
WRAPS = ((-4, 15, 1), (-4, 15, -1), (-1, 1, 1), (3, 7, -1), (5, 2, 1))
HOPF_TIMES = (Fraction(0), Fraction(1, 4), Fraction(7, 13), Fraction(3, 10))


def _pin(coeff, chart) -> dict:
    cols = [np.array([lo + (hi - lo) * s for s in SHARES]) for lo, hi in chart.ranges]
    with np.errstate(all="ignore"):
        values = np.broadcast_to(compile_expr(coeff, chart.names)(*cols), (len(SHARES),))
    return {"render": fc.render(coeff), "values": [float(v).hex() for v in values]}


def _form_pins(prefix: str, form, out: dict, calculus: bool = True) -> None:
    chart = form.chart
    out[f"{prefix}/text"] = form.text()
    for name, coeff in zip(chart.names, form.coefficients):
        out[f"{prefix}/coefficient/{name}"] = _pin(coeff, chart)
        if calculus:
            for var in chart.names:
                out[f"{prefix}/diff/{name}/{var}"] = _pin(fc.diff(coeff, var), chart)
    if calculus:
        for (i, j), coeff in fc.exterior_derivative(form).items():
            out[f"{prefix}/d/{chart.names[i]}^{chart.names[j]}"] = _pin(coeff, chart)
        if chart.dim == 3:
            out[f"{prefix}/volume"] = _pin(fc.volume_coefficient(form), chart)


def records() -> dict:
    out: dict = {}
    for key, entry in fc.model_library().items():
        _form_pins(f"library/{key}", entry.form, out)
    for n in (1, 2, 3):
        pulled, expected = fiber_tube_pullback(n)
        _form_pins(f"fiber_tube/{n}/pulled", pulled, out, calculus=False)
        _form_pins(f"fiber_tube/{n}/expected", expected, out, calculus=False)
    for p, q, sign in WRAPS:
        _form_pins(f"torus_wrapping/{p}/{q}/{sign}", torus_wrapping_pullback(p, q, sign), out,
                   calculus=(p, q, sign) == WRAPS[0])
    comps, src = scaling_flow_components(Fraction(1, 2))
    _form_pins("scaling_flow/1/2", fc.pullback(comps, src, fc.parse_form("dz + x*dy - y*dx", src)),
               out, calculus=False)
    lam = fc.hopf_plane_field_form()
    for t in HOPF_TIMES:
        for variant in (1, -1):
            pulled = fc.pullback(_block_rotation_components(t, variant), lam.chart, lam)
            _form_pins(f"hopf/{t}/{variant}", pulled, out, calculus=False)
    return out


def test_library_outputs_are_pinned_bit_for_bit():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    got = records()
    assert sorted(got) == sorted(pinned)
    for key, want in pinned.items():
        assert got[key] == want, key


if __name__ == "__main__":
    PINS.write_text(json.dumps(records(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
