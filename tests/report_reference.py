"""The two-pass report encoder, the reference for `cli._put`.

`round12` rounds every float of a report to 12 significant digits and writes
every `Fraction` as the string "p/q" (a plain integer when q = 1), in one
walk; `encode` then writes the rounded tree with `json.dumps(indent=2,
sort_keys=True)`, which an indent sends through `json`'s pure-Python
encoder.  This is how `cli` wrote a report before one walk did both; it
shares no code with `cli`.
"""

import json
from fractions import Fraction


def round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Fraction):
        q = obj.denominator
        return str(obj.numerator) if q == 1 else f"{obj.numerator}/{q}"
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    return obj


def encode(obj) -> str:
    """The text of `obj` as a report prints it, without the final newline."""
    return json.dumps(round12(obj), indent=2, sort_keys=True)
