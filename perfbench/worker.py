"""Benchmark worker: one fresh interpreter, one closed-loop client.

Imports ``contactbundles`` from the ``src`` directory of the given root,
answers the workload's warm-up request, then sends the requests of a
request file (JSON lines, read one line per request so that the list does
not count in the worker's peak memory) one at a time, each as soon as the
previous one returned.  It records exit code, latency and a SHA-256 of every
report, keeps the text of each distinct report, and writes everything to a
JSON result file for ``run.py`` to check.

Between two requests it times a fixed piece of interpreter work
(`calibrate`), so that ``run.py`` can scale each latency to a reference
machine speed: the shared host this benchmark runs on switches between a fast
and a slow state (about 1.7x apart for interpreted code) for seconds at a
time.  Requests marked ``"scale": "array"`` spend most of their time in numpy
on large arrays, which the slow state slows far less (about 1.15x); they are
bracketed by `array_kernel` instead.

Modes: ``--setup`` stops after the warm-up and prints the monotonic clock and
the calibration times before and after (set-up probes); otherwise it sends
every request of the file; ``--trace SPANS`` wraps the engines in the outside
tracer while it does, reports the per-layer metrics and writes the spans to
SPANS.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from workloads import WARMUP


def kernel() -> float:
    """Seconds taken by a fixed piece of interpreter work: float and complex
    arithmetic, calls into ``math``, dict updates."""
    t0 = time.perf_counter()
    acc = {}
    z = 0j
    for i in range(1500):
        z = z * 0.5 + complex(math.cos(i), 1.0)
        acc[i & 31] = acc.get(i & 31, 0) + i * i % 7
    return time.perf_counter() - t0


def calibrate() -> float:
    """The faster of two kernel runs (an interrupt can slow one)."""
    return min(kernel(), kernel())


def array_kernel() -> float:
    """Seconds taken by numpy work on fresh 2^20-element arrays (allocation,
    ufuncs, a reduction), the kind of work a library grid request does."""
    import numpy as np
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 1 << 20)
    y = np.sin(x * 3.0) * np.cos(x) + x * x
    int((y > 0.5).sum())
    return time.perf_counter() - t0


def load_package(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import contactbundles
    from contactbundles import cli
    if Path(contactbundles.__file__).resolve().parent.parent != src:
        raise ImportError(f"contactbundles was not imported from {src}")
    return cli


def _library_calls():
    """Library requests: build the inputs, call through module attributes."""
    from contactbundles import circle_dynamics as cd
    from contactbundles import formcalc as fc

    def lifts(maps):
        return [cd.PiecewiseLinearMap([(Fraction(t), Fraction(v)) for t, v in m]) for m in maps]

    def translation_number(maps, iterations):
        est = cd.translation_number(cd.evaluate_relator(lifts(maps)), iterations)
        return {"value": str(est.value), "error_bound": est.error_bound,
                "iterations": est.iterations}

    def wood_bound_check(maps):
        chk = cd.wood_bound_check(lifts(maps))
        return {"ok": chk.ok, "bound": chk.bound, "witness_t": chk.witness_t,
                "witness_displacement": chk.witness_displacement}

    def hopf_invariance_check(times, points):
        chk = fc.hopf_invariance_check(times=[Fraction(t) for t in times], points=points)
        return {"ok": chk.ok, "max_error": chk.max_error, "times": [str(t) for t in chk.times]}

    def characteristic_slope_on_torus(r):
        s = fc.characteristic_slope_on_torus(fc.solid_torus_universal_form(), r)
        return {"value": s.value, "spread": s.spread, "radius": s.radius}

    return {f.__name__: f for f in (translation_number, wood_bound_check,
                                    hopf_invariance_check, characteristic_slope_on_torus)}


def send(cli, calls, req) -> tuple:
    """Answer one request: (exit code, report text, uncaught exception)."""
    out = io.StringIO()
    err = None
    rc = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if "argv" in req:
                rc = cli.main(list(req["argv"]))
            else:
                result = calls[req["call"]](**req["params"])
                json.dump(result, out, sort_keys=True)
                rc = 0
    except SystemExit as e:  # argparse usage errors
        rc = e.code
    except Exception as e:  # the request failed; the client keeps going
        err = f"{type(e).__name__}: {e}"
    return rc, out.getvalue(), err


def run(cli, calls, requests, tracer=None) -> dict:
    """Send every request of the iterator `requests` in a closed loop.

    A record is [index, exit code, latency s, report digest, exception,
    calibration s, kernel name], the calibration being the mean of the
    kernel's times just before and just after the request.
    """
    records = []
    outputs = {}
    clock = time.perf_counter
    before = calibrate()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        array = req.get("scale") == "array"
        array_before = array_kernel() if array else None
        t0 = clock()
        rc, text, err = send(cli, calls, req)
        t1 = clock()
        if array:
            cal = [0.5 * (array_before + array_kernel()), "array"]
        after = calibrate()
        if not array:
            cal = [0.5 * (before + after), "interp"]
        digest = hashlib.sha256(text.encode()).hexdigest()
        records.append([i, rc, t1 - t0, digest, err, *cal])
        outputs.setdefault(req["id"], {}).setdefault(digest, text)
        before = after
    return {"records": records, "outputs": outputs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(WARMUP))
    ap.add_argument("--requests", type=Path)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--trace", type=Path, metavar="SPANS",
                    help="trace the requests and write their spans to this file")
    args = ap.parse_args(argv)

    cal_start = calibrate() if args.setup else None
    cli = load_package(args.root)
    calls = _library_calls()
    rc, _, err = send(cli, calls, {"argv": WARMUP[args.workload]})
    if rc != 0 or err:
        print(f"warm-up request failed: rc={rc} {err}", file=sys.stderr)
        return 1
    if args.setup:
        ready = time.monotonic()
        print(json.dumps({"ready": ready, "calibration": [cal_start, calibrate()]}))
        return 0

    request_file = args.requests.open(encoding="utf-8")
    requests = (json.loads(line) for line in request_file)
    tracer = None
    if args.trace:
        from contactbundles.formcalc import expr
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        before = expr.normalize.cache_info()
        tracer.install()
    try:
        result = run(cli, calls, requests, tracer=tracer)
    finally:
        request_file.close()
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        after = expr.normalize.cache_info()
        delta = {"hits": after.hits - before.hits, "misses": after.misses - before.misses}
        result["trace"] = {
            "metrics": layer_metrics(tracer.spans, tracer.counters,
                                     [r[2] for r in result["records"]], delta),
            "restored": restored(tracer)}
        args.trace.write_text(json.dumps(tracer.export()), encoding="utf-8")
    result["peak_rss_kb"] = peak_rss_kb()
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


def peak_rss_kb() -> int:
    """High-water resident set of this process image, from VmHWM.

    ``ru_maxrss`` would also count the parent that started the worker: Linux
    carries the larger of the two over exec, so it reported the memory of
    ``run.py`` and grew with the length of the request list.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def restored(tracer) -> bool:
    """True when no traced wrapper is left in any contactbundles namespace."""
    for name, mod in list(sys.modules.items()):
        if name == "contactbundles" or name.startswith("contactbundles."):
            for value in list(vars(mod).values()):
                if getattr(value, "__module__", None) == "tracer":
                    return False
                if isinstance(value, type) and any(
                        getattr(v, "__module__", None) == "tracer" for v in vars(value).values()):
                    return False
    return not tracer.installed()


if __name__ == "__main__":
    sys.exit(main())
