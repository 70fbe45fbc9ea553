"""Outside trace: spans around the public functions of each engine module.

`Tracer.install()` replaces every public function of the traced modules by a
wrapper, in every ``contactbundles`` namespace that binds it (``forms.py``
and ``models.py`` bind ``normalize``, ``eval_expr`` ... by ``from .expr
import``, so patching ``expr`` alone would miss their calls).
`Tracer.uninstall()` puts the originals back.

Each call records a span ``[parent, name, t0, t1, ok, request, outer]`` in
memory; ``outer`` is true when no enclosing span belongs to the same metric
group, so group times never count nested calls twice.  A re-entrant call of
a function already on the stack (the recursive walkers ``eval_expr``,
``variables``) is not a new span.  Counters are kept at the same
boundaries.  `layer_metrics` turns spans and counters into the per-layer
metrics.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List

#: module -> layer name used in span and metric names
MODULES = {
    "contactbundles.hyperbolic": "hyperbolic",
    "contactbundles.circle_dynamics": "circle_dynamics",
    "contactbundles.formcalc.expr": "formcalc",
    "contactbundles.formcalc.forms": "formcalc",
    "contactbundles.formcalc.models": "formcalc",
    "contactbundles.classify": "classify",
    "contactbundles.multicurve": "multicurve",
    "contactbundles.cli": "cli",
}

#: functions whose times are reported together
GROUPS = {
    "formcalc.parse_form_file": "formcalc.parse",
    "formcalc.parse_form": "formcalc.parse",
    "formcalc.parse_chart": "formcalc.parse",
    "formcalc.parse_expr": "formcalc.parse",
    "formcalc.tokenize": "formcalc.parse",
}
ORBIT_FUNCTIONS = ("classify.cohomology_orbit_count", "classify.orbit_of_vector")


def group_of(name: str) -> str:
    """Metric group of a span: the classify formulas share one group."""
    if name.startswith("classify.") and name not in ORBIT_FUNCTIONS:
        return "classify.formulas"
    return GROUPS.get(name, name)


#: per-layer metric -> (unit, better, end-to-end metric it should move, workload)
LAYER_METRICS = {
    "hyperbolic.radius_for_area.ms": ("ms", "lower", "latency_p50_ms", "geometry"),
    "hyperbolic.polygon_area.calls": ("count", "lower", "latency_p50_ms", "geometry"),
    "hyperbolic.side_pairings.ms": ("ms", "lower", "latency_p50_ms", "geometry"),
    "hyperbolic.failed": ("count", "lower", "failed_frac", "geometry"),
    "hyperbolic.self_ms": ("ms", "lower", "latency_p50_ms", "geometry"),
    "circle_dynamics.flatten.ms": ("ms", "lower", "latency_p90_ms", "geometry"),
    "circle_dynamics.flatten.pl": ("count", "higher", "latency_p90_ms", "geometry"),
    "circle_dynamics.flatten.moebius": ("count", "higher", "latency_p90_ms", "geometry"),
    "circle_dynamics.flatten.word": ("count", "lower", "latency_p90_ms", "geometry"),
    "circle_dynamics.translation_number.ms": ("ms", "lower", "latency_p90_ms", "geometry"),
    "circle_dynamics.lift_evals": ("count", "lower", "reports_per_s", "geometry"),
    "circle_dynamics.self_ms": ("ms", "lower", "latency_p90_ms", "geometry"),
    "formcalc.parse.ms": ("ms", "lower", "latency_p90_ms", "forms"),
    "formcalc.diff.ms": ("ms", "lower", "latency_p90_ms", "forms"),
    "formcalc.volume_coefficient.ms": ("ms", "lower", "latency_p90_ms", "forms"),
    "formcalc.pullback.ms": ("ms", "lower", "latency_p90_ms", "forms"),
    "formcalc.normalize.misses": ("count", "lower", "latency_p90_ms", "forms"),
    "formcalc.normalize.hit_ratio": ("ratio", "higher", "latency_p90_ms", "forms"),
    "formcalc.compile_expr.calls": ("count", "lower", "reports_per_s", "forms"),
    "formcalc.compile_expr.ms": ("ms", "lower", "reports_per_s", "forms"),
    "formcalc.sample_mask.ms": ("ms", "lower", "reports_per_s", "forms"),
    "formcalc.contact_sign.self_ms": ("ms", "lower", "reports_per_s", "forms"),
    "formcalc.grid_samples": ("count", "lower", "peak_rss_mb", "forms"),
    "formcalc.refined_samples": ("count", "lower", "reports_per_s", "forms"),
    "formcalc.eval_expr.calls": ("count", "lower", "latency_p90_ms", "forms"),
    "formcalc.eval_expr.ms": ("ms", "lower", "latency_p90_ms", "forms"),
    "formcalc.self_ms": ("ms", "lower", "reports_per_s", "forms"),
    "classify.cohomology_orbit_count.ms": ("ms", "lower", "latency_p90_ms", "counting"),
    "classify.orbit_vectors": ("count", "lower", "reports_per_s", "counting"),
    "classify.formulas.ms": ("ms", "lower", "latency_p50_ms", "counting"),
    "classify.self_ms": ("ms", "lower", "reports_per_s", "counting"),
    "multicurve.parse_decomposition.ms": ("ms", "lower", "latency_p50_ms", "counting"),
    "multicurve.validate.ms": ("ms", "lower", "latency_p50_ms", "counting"),
    "multicurve.isotopy_equal.ms": ("ms", "lower", "latency_p90_ms", "counting"),
    "multicurve.relabelings": ("count", "lower", "latency_p90_ms", "counting"),
    "multicurve.self_ms": ("ms", "lower", "latency_p90_ms", "counting"),
    "cli.self_ms": ("ms", "lower", "latency_p50_ms", "counting"),
    "trace.overhead_frac": ("ratio", "lower", None, "all"),
    "trace.unattributed_ms": ("ms", "lower", None, "all"),
    "trace.spans": ("count", "lower", None, "all"),
}


def _public_functions(mod):
    for attr, obj in sorted(vars(mod).items()):
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            yield attr, obj


def _relabelings(dec) -> int:
    """prod k! over groups of like-labelled pieces: candidates the canonical
    form of `dec` enumerates."""
    dec = getattr(dec, "decomposition", dec)
    out = 1
    for k in Counter(dec.pieces).values():
        out *= math.factorial(k)
    return out


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self.request = -1
        self._stack: List[int] = []
        self._group_depth: Counter = Counter()
        self._active: Counter = Counter()
        self._patches: List[tuple] = []
        self._coeff: Dict[int, object] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for modname, layer in MODULES.items():
            mod = importlib.import_module(modname)
            for attr, fn in _public_functions(mod):
                wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "contactbundles" or name.startswith("contactbundles.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(ns, attr, hit[1])
        forms = importlib.import_module("contactbundles.formcalc.forms")
        self._patch(forms.Chart, "sample_mask",
                    self._wrap("formcalc.sample_mask", forms.Chart.sample_mask))
        cd = importlib.import_module("contactbundles.circle_dynamics")
        for cls in (cd.PiecewiseLinearMap, cd.MoebiusBoundaryLift, cd.WordMap):
            self._patch(cls, "eval", self._count_evals(vars(cls)["eval"]))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def installed(self) -> bool:
        return bool(self._patches)

    def _count_evals(self, original):
        counters = self.counters

        def eval_counted(lift, t):
            counters["circle_dynamics.lift_evals"] += 1
            return original(lift, t)
        return eval_counted

    def _wrap(self, name: str, original):
        tracer = self
        active = self._active

        def traced(*args, **kwargs):
            if active[name]:
                return original(*args, **kwargs)
            return tracer._call(name, original, args, kwargs)
        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    # -- spans ------------------------------------------------------------

    def _call(self, name, original, args, kwargs):
        group = group_of(name)
        stack = self._stack
        parent = stack[-1] if stack else -1
        sid = len(self.spans)
        span = [parent, name, 0.0, 0.0, True, self.request, self._group_depth[group] == 0]
        self.spans.append(span)
        self._before(name, sid, parent, args, kwargs)
        stack.append(sid)
        self._active[name] += 1
        self._group_depth[group] += 1
        span[2] = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        except BaseException:
            span[4] = False
            raise
        finally:
            span[3] = time.perf_counter()
            stack.pop()
            self._active[name] -= 1
            self._group_depth[group] -= 1
        self._after(name, sid, parent, result)
        return result

    def _parent_name(self, parent: int):
        return self.spans[parent][1] if parent >= 0 else None

    def _before(self, name, sid, parent, args, kwargs) -> None:
        c = self.counters
        if name == "classify.cohomology_orbit_count":
            g, n = args[:2]
            c["classify.orbit_vectors"] += n ** (2 * g)
        elif name == "multicurve.isotopy_equal":
            c["multicurve.relabelings"] += _relabelings(args[0]) + _relabelings(args[1])
        elif name == "formcalc.contact_sign":
            grid = args[1] if len(args) > 1 else kwargs.get("grid", 64)
            dim = args[0].chart.dim
            c["formcalc.grid_samples"] += (grid ** dim if isinstance(grid, int)
                                           else math.prod(grid))
        elif name == "formcalc.eval_expr" and self._parent_name(parent) == "formcalc.contact_sign":
            if args[0] is self._coeff.get(parent):
                c["formcalc.refined_samples"] += 1

    def _after(self, name, sid, parent, result) -> None:
        if name == "circle_dynamics.flatten":
            self.counters[f"circle_dynamics.flatten.{result.kind}"] += 1
        elif name == "formcalc.volume_coefficient" and \
                self._parent_name(parent) == "formcalc.contact_sign":
            self._coeff[parent] = result

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


# ---------------------------------------------------------------------------
# metrics from recorded spans

def layer_metrics(spans: List[list], counters: Dict[str, int], request_walls: List[float],
                  normalize_delta: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced batch (times in ms)."""
    children = defaultdict(float)
    for parent, _, t0, t1, *_ in spans:
        if parent >= 0:
            children[parent] += t1 - t0
    group_ms = defaultdict(float)
    group_calls = Counter()
    self_ms = defaultdict(float)
    layer_self = defaultdict(float)
    root_ms = defaultdict(float)
    failed_out = Counter()
    for sid, (parent, name, t0, t1, ok, req, outer) in enumerate(spans):
        dur = t1 - t0
        own = dur - children[sid]
        self_ms[name] += own
        layer = name.split(".", 1)[0]
        layer_self[layer] += own
        if outer:
            group = group_of(name)
            group_ms[group] += dur
            group_calls[group] += 1
        if parent < 0:
            root_ms[req] += dur
        parent_layer = spans[parent][1].split(".", 1)[0] if parent >= 0 else None
        if not ok and parent_layer != layer:
            failed_out[layer] += 1
    unattributed = sum(wall - root_ms[i] for i, wall in enumerate(request_walls))
    hits, misses = normalize_delta.get("hits", 0), normalize_delta.get("misses", 0)
    out = {
        "hyperbolic.radius_for_area.ms": group_ms["hyperbolic.radius_for_area"],
        "hyperbolic.polygon_area.calls": group_calls["hyperbolic.polygon_area"],
        "hyperbolic.side_pairings.ms": group_ms["hyperbolic.side_pairings"],
        "hyperbolic.failed": failed_out["hyperbolic"],
        "circle_dynamics.flatten.ms": group_ms["circle_dynamics.flatten"],
        "circle_dynamics.translation_number.ms": group_ms["circle_dynamics.translation_number"],
        "formcalc.parse.ms": group_ms["formcalc.parse"],
        "formcalc.diff.ms": group_ms["formcalc.diff"],
        "formcalc.volume_coefficient.ms": group_ms["formcalc.volume_coefficient"],
        "formcalc.pullback.ms": group_ms["formcalc.pullback"],
        "formcalc.normalize.misses": misses,
        "formcalc.normalize.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "formcalc.compile_expr.calls": group_calls["formcalc.compile_expr"],
        "formcalc.compile_expr.ms": group_ms["formcalc.compile_expr"],
        "formcalc.sample_mask.ms": group_ms["formcalc.sample_mask"],
        "formcalc.contact_sign.self_ms": self_ms["formcalc.contact_sign"],
        "formcalc.eval_expr.calls": group_calls["formcalc.eval_expr"],
        "formcalc.eval_expr.ms": group_ms["formcalc.eval_expr"],
        "classify.cohomology_orbit_count.ms": group_ms["classify.cohomology_orbit_count"],
        "classify.formulas.ms": group_ms["classify.formulas"],
        "multicurve.parse_decomposition.ms": group_ms["multicurve.parse_decomposition"],
        "multicurve.validate.ms": group_ms["multicurve.validate"],
        "multicurve.isotopy_equal.ms": group_ms["multicurve.isotopy_equal"],
        "trace.unattributed_ms": unattributed,
        "trace.spans": len(spans),
    }
    for key in list(out):
        if key.endswith(".ms") or key.endswith("_ms"):
            out[key] *= 1e3
    for layer in ("hyperbolic", "circle_dynamics", "formcalc", "classify", "multicurve", "cli"):
        out[f"{layer}.self_ms"] = layer_self[layer] * 1e3
    for key in ("circle_dynamics.flatten.pl", "circle_dynamics.flatten.moebius",
                "circle_dynamics.flatten.word", "circle_dynamics.lift_evals",
                "formcalc.grid_samples", "formcalc.refined_samples",
                "classify.orbit_vectors", "multicurve.relabelings"):
        out[key] = counters.get(key, 0)
    return out
