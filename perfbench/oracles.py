"""Independent checks of every report.

Nothing here imports ``contactbundles``: each expected value comes from the
request's construction, a closed formula restated below, or the golden
table ``tests/data/classification_table.json``.

`check` returns ``None`` for a correct response, else ``(reason, wrong)``:
``wrong`` is true when the program answered with exit code 0 but the answer
contradicts the oracle (an invalid input accepted counts too), and false
when the request failed outright (uncaught exception, usage-error exit code,
missing ``error`` object).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

#: |computed - requested| polygon area, relative to (4g - 2) pi
AREA_TOL = 1e-9
#: largest pairing residual (hyperbolic distance) accepted
PAIRING_TOL = 1e-7
#: ||commutator trace| - 2|cos(((4g-2)pi - A)/2)||
TRACE_TOL = 1e-6
#: relative tolerance for characteristic slopes and their spread
SLOPE_TOL = 1e-9

Result = Optional[Tuple[str, bool]]


def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _fraction_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def classify_expectation(chi: int, e: int) -> dict:
    """Existence, counting and bound formulas of the paper, restated."""
    transverse = e <= -chi if chi <= 0 else e < 0
    if e == 0:
        degree = 1 if chi == 0 else None
    else:
        degree = (-2 * chi) // e if (-2 * chi) % e == 0 and (-2 * chi) // e > 0 else None
    tangent_n = (-chi) // e if e != 0 and (-chi) % e == 0 and (-chi) // e > 0 else None
    spectrum = classes = None
    if transverse:
        if chi == 2:
            spectrum, classes = [2 if e == -1 else 1], 1
        elif chi == 0 and e == 0:
            spectrum = "all n >= 1"
        else:
            spectrum = sorted({1} | ({tangent_n} if tangent_n else set()))
            classes = divisor_count(tangent_n) if tangent_n else 1
    n = tangent_n or 1
    second = n * e + chi - 1
    return {
        "transverse_exists": transverse,
        "flat_exists": abs(e) <= max(0, -chi),
        "confoliation_ok": e <= max(0, -chi),
        "tangent_degree": degree,
        "enrollment_spectrum": spectrum,
        "conjugacy_classes": classes,
        "vot_bound": max(0, -chi - e - 1) + (1 if e > 0 else 0),
        "boundary_slope": {"n": n, "class": [n, second],
                           "mu": _fraction_text(Fraction(second, n))},
        "whitney_class": [-degree, 2 * chi] if degree else None,
    }


# ---------------------------------------------------------------------------
# exact piecewise-linear lifts, evaluated independently of the package

class PL:
    def __init__(self, knots):
        self.knots = sorted((Fraction(t), Fraction(v)) for t, v in knots)
        self.ts = [t for t, _ in self.knots]

    def __call__(self, x: Fraction) -> Fraction:
        n = math.floor(x)
        tau = x - n
        k = self.knots
        if tau < self.ts[0]:
            (t0, v0), (t1, v1) = (k[-1][0] - 1, k[-1][1] - 1), k[0]
        else:
            i = bisect_right(self.ts, tau) - 1
            t0, v0 = k[i]
            t1, v1 = k[i + 1] if i + 1 < len(k) else (k[0][0] + 1, k[0][1] + 1)
        return v0 + (v1 - v0) * (tau - t0) / (t1 - t0) + n

    def inverse(self) -> "PL":
        pts = []
        for t, v in self.knots:
            m = math.floor(v)
            pts.append((v - m, t - m))
        return PL(pts)


def relator_orbit(maps: List[List[List[str]]], iterations: int) -> Fraction:
    """R^N(0) for R = prod [f_{2i-1}, f_{2i}], letters applied right to left."""
    fs = [PL(m) for m in maps]
    word = []
    for i in range(0, len(fs), 2):
        a, b = fs[i], fs[i + 1]
        word += [a, b, a.inverse(), b.inverse()]
    chain = list(reversed(word))
    x = Fraction(0)
    for _ in range(iterations):
        for f in chain:
            x = f(x)
    return x


# ---------------------------------------------------------------------------

class Oracle:
    def __init__(self, golden: Dict[str, dict]):
        self.golden = golden
        self._pl_cache: Dict[str, Fraction] = {}

    def check(self, req: dict, rc, text: str, err: Optional[str]) -> Result:
        if err is not None:
            return f"uncaught {err}", False
        if "invalid" in req.get("expect", {}):
            return self._invalid(rc, text)
        if rc != 0:
            return f"exit code {rc}", False
        try:
            report = json.loads(text)
        except ValueError:
            return "report is not JSON", True
        if "call" in req:
            return self._call(req, report)
        outputs = report.get("outputs", {})
        command = req["argv"][0]
        return getattr(self, f"_{command}")(req, outputs)

    @staticmethod
    def _invalid(rc, text) -> Result:
        if rc != 1:
            return f"invalid input gave exit code {rc}", rc == 0
        try:
            error = json.loads(text).get("error")
        except ValueError:
            return "invalid input: report is not JSON", False
        if not (isinstance(error, dict) and "type" in error and "message" in error):
            return "invalid input: no error object", False
        return None

    @staticmethod
    def _mismatch(name, got, want) -> Result:
        return f"{name}: got {got!r}, expected {want!r}", True

    def _classify(self, req, out) -> Result:
        chi, e = req["expect"]["chi_s"], req["expect"]["euler"]
        want = classify_expectation(chi, e)
        want.update(self.golden.get(f"{chi},{e}", {}))
        for key, value in want.items():
            if out.get(key) != value:
                return self._mismatch(key, out.get(key), value)
        return None

    def _covers(self, req, out) -> Result:
        tau = divisor_count(req["expect"]["n"])
        for key, value in (("orbit_count", tau), ("divisor_count", tau), ("agree", True)):
            if out.get(key) != value:
                return self._mismatch(key, out.get(key), value)
        return None

    def _holonomy(self, req, out) -> Result:
        area = req["expect"]["area_coef"] * math.pi
        bound = out.get("error_bound")
        resid = abs(out.get("abs_rho", math.inf) - area / (2 * math.pi))
        if not (isinstance(bound, float) and resid <= bound):
            return f"|abs_rho - A/2pi| = {resid:.3g} exceeds error_bound {bound}", True
        return None

    def _polygon(self, req, out) -> Result:
        g = req["expect"]["genus"]
        area = req["expect"]["area_coef"] * math.pi
        amax = (4 * g - 2) * math.pi
        expected_trace = 2 * abs(math.cos((amax - area) / 2))
        checks = (
            ("area residual", abs(out.get("computed_area", math.inf) - area), AREA_TOL * amax),
            ("pairing residual", out.get("pairing_residual_max", math.inf), PAIRING_TOL),
            ("|trace| residual", abs(abs(out.get("commutator_trace", math.inf)) - expected_trace),
             TRACE_TOL),
        )
        for name, value, tol in checks:
            if not value <= tol:
                return f"{name} {value:.3g} exceeds {tol:.3g}", True
        return None

    def _forms(self, req, out) -> Result:
        if req["kind"] == "library":
            for key, entry in out.get("library", {}).items():
                if entry.get("expected_sign") is not None and entry.get("sign") != "Positive":
                    return self._mismatch(f"library {key} sign", entry.get("sign"), "Positive")
            if len(out.get("library", {})) < 10:
                return "library has fewer than 10 entries", True
            return None
        if out.get("sign") != "Positive":
            return self._mismatch("sign", out.get("sign"), "Positive")
        return None

    def _multicurve(self, req, out) -> Result:
        for key, value in req["expect"].items():
            if out.get(key) != value:
                return self._mismatch(key, out.get(key), value)
        return None

    def _call(self, req, out) -> Result:
        call, params = req["call"], req["params"]
        if call == "translation_number":
            n = params["iterations"]
            if req["id"] not in self._pl_cache:
                self._pl_cache[req["id"]] = relator_orbit(params["maps"], n) / n
            want = self._pl_cache[req["id"]]
            if Fraction(out["value"]) != want or out["error_bound"] != 1.0 / n:
                return self._mismatch("translation number", out, _fraction_text(want))
            if abs(want) > len(params["maps"]) - 1 + Fraction(1, n):  # Wood: |rot| <= 2g - 1
                return f"|rho| {float(want)} above the Wood bound", True
            return None
        if call == "wood_bound_check":
            if out.get("ok") is not True or out.get("bound") != float(len(params["maps"])):
                return self._mismatch("wood bound", out, "ok")
            return None
        if call == "hopf_invariance_check":
            if out.get("ok") is not True or not out.get("max_error", 1.0) <= 1e-12:
                return self._mismatch("hopf invariance", out, "ok")
            return None
        if call == "characteristic_slope_on_torus":
            r = params["r"]
            want = r * r / (r ** 4 - 1.0)
            if not (abs(out["value"] - want) <= SLOPE_TOL * max(1.0, abs(want))
                    and out["spread"] <= SLOPE_TOL * max(1.0, abs(want))):
                return self._mismatch("slope", out, want)
            return None
        raise ValueError(f"unknown call {call}")
