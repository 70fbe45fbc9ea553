"""contactbundles benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` it measures set-up time
(median of fresh-interpreter probes), then one closed-loop client in a fresh
worker process sends as many whole cycles of the workload as take about
``--seconds`` seconds of request time on the seed commit; it checks every
report against the oracles and prints the end-to-end metrics.  Times are
scaled to the reference speed (see `speed_factor`).  With ``--trace 1`` it
runs one cycle of each workload (at least ``workloads.MIN_REQUESTS``
requests) twice in fresh workers, untraced and traced, and prints the
per-layer metrics, each measured on the workload it is mapped to
(so the output does not depend on ``--workload``).  The last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from oracles import Oracle
from tracer import LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
GOLDEN = ROOT / "tests" / "data" / "classification_table.json"
#: set-up probes before and after the client loop, so they see the machine twice
SETUP_PROBES = (5, 4)
#: requests hashed into the recorded digest (every run sends at least these)
DIGEST_REQUESTS = workloads.MIN_REQUESTS
#: seconds each calibration kernel of `worker` takes at the reference speed:
#: the fast state of a 2-vCPU Intel Xeon VM with Python 3.11 and numpy 2.4
#: (its slow state takes about 1.1 ms and 40 ms)
REFERENCE_KERNEL_S = {"interp": 6.0e-4, "array": 3.5e-2}
WORKER_TIMEOUT_S = 150
#: one client thread: keep numpy's BLAS from starting a thread pool
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, worker crash)."""


def _worker(workload: str, *extra: str, timeout: float = WORKER_TIMEOUT_S) -> str:
    cmd = [sys.executable, str(WORKER), "--root", str(ROOT), "--workload", workload, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker timed out after {timeout} s") from e
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def speed_factor(calibration_s: float, kernel: str = "interp") -> float:
    """Multiplier taking a time measured while calibration `kernel` took
    `calibration_s` to the reference speed.

    The host switches between a fast and a slow state, about 1.7x apart for
    interpreted code, for seconds at a time, and how long a run spends in
    each decides its raw timings more than the program does.  A kernel is
    timed around every request, so each request is scaled by the speed of
    the moment it ran, measured on work of its own kind.
    """
    return REFERENCE_KERNEL_S[kernel] / calibration_s


def setup_probes(workload: str, count: int) -> list:
    """Times from interpreter start to the warm-up request answered, each
    scaled by the mean of the calibrations at the start and end of its probe."""
    samples = []
    for _ in range(count):
        t0 = time.monotonic()
        probe = json.loads(_worker(workload, "--setup").strip().splitlines()[-1])
        samples.append((probe["ready"] - t0) * speed_factor(statistics.mean(probe["calibration"])))
    return samples


def run_worker(workload: str, requests: list, work: Path, mode: list = ()) -> dict:
    """Send `requests` from a fresh worker; latencies come back scaled."""
    req_file = work / "requests.jsonl"
    out_file = work / "result.json"
    req_file.write_text("".join(json.dumps(r) + "\n" for r in requests), encoding="utf-8")
    _worker(workload, "--requests", str(req_file), "--out", str(out_file), *mode)
    result = json.loads(out_file.read_text(encoding="utf-8"))
    for rec in result["records"]:
        rec[2] *= speed_factor(rec[5], rec[6])
    return result


def verify(requests: list, result: dict, oracle: Oracle) -> dict:
    """Check every response; a repeat whose bytes differ from the first fails."""
    first_digest = {}
    verdicts = {}
    reasons = Counter()
    ok_flags = []
    wrong = 0
    for index, rc, _, digest, err, *_ in result["records"]:
        req = requests[index]
        key = (req["id"], digest)
        if key not in verdicts:
            text = result["outputs"][req["id"]][digest]
            verdicts[key] = oracle.check(req, rc, text, err)
        verdict = verdicts[key]
        if verdict is None and first_digest.setdefault(req["id"], digest) != digest:
            verdict = ("report bytes differ from an earlier identical request", True)
        ok_flags.append(verdict is None)
        if verdict is not None:
            wrong += verdict[1]
            reasons[f"{req['kind']}: {verdict[0][:80]}"] += 1
    return {"failed": sum(reasons.values()), "wrong": wrong, "reasons": reasons,
            "ok": ok_flags}


def digest_of(requests: list, result: dict, count: int) -> str:
    h = hashlib.sha256()
    for index, _, _, digest, *_ in result["records"][:count]:
        h.update(f"{requests[index]['id']}\0{digest}\n".encode())
    return h.hexdigest()


def end_to_end(workload: str, seed: int, seconds: float, work: Path, oracle: Oracle) -> dict:
    requests, _ = workloads.generate(workload, seed, work / "inputs", ROOT,
                                     workloads.cycles_for(workload, seconds))
    setup = setup_probes(workload, SETUP_PROBES[0])
    result = run_worker(workload, requests, work)
    setup += setup_probes(workload, SETUP_PROBES[1])
    checked = verify(requests, result, oracle)
    records = result["records"]
    lat_ms = [r[2] * 1e3 for r in records]
    attempted = len(records)
    good = sum(checked["ok"])
    print(f"perfbench digest workload={workload} seed={seed} first={DIGEST_REQUESTS} "
          f"sha256={digest_of(requests, result, DIGEST_REQUESTS)}")
    by_kind = {}
    for (index, *_), lat, ok in zip(records, lat_ms, checked["ok"]):
        by_kind.setdefault(requests[index]["kind"], []).append((lat, ok))
    for kind, rows in sorted(by_kind.items()):
        lats = [lat for lat, _ in rows]
        print(f"perfbench kind={kind} n={len(rows)} failed={sum(not ok for _, ok in rows)} "
              f"p50_ms={statistics.median(lats):.3f} max_ms={max(lats):.3f}")
    for reason, count in sorted(checked["reasons"].items()):
        print(f"perfbench failed {count}x {reason}")
    metrics = {
        "reports_per_s": (good / (sum(lat_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
        "failed_frac": (checked["failed"] / attempted, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    return {"correct": checked["wrong"] == 0, "attempted": attempted,
            "failed": checked["failed"], "metrics": metrics}


def traced(seed: int, work: Path, oracle: Oracle) -> dict:
    """One cycle of every workload, untraced then traced, in fresh workers."""
    metrics = {}
    attempted = failed = 0
    correct = True
    time_plain = time_traced = 0.0
    unattributed = 0.0
    span_count = 0
    for workload in workloads.WORKLOADS:
        wdir = work / workload
        requests, _ = workloads.generate(workload, seed, wdir / "inputs", ROOT)
        plain = run_worker(workload, requests, wdir)
        spans = ROOT / ".perfbench_work" / f"spans-{workload}.json"
        result = run_worker(workload, requests, wdir, ["--trace", str(spans)])
        checked = verify(requests, result, oracle)
        same = digest_of(requests, plain, len(plain["records"])) == \
            digest_of(requests, result, len(result["records"]))
        tr = result["trace"]
        correct = correct and checked["wrong"] == 0 and same and tr["restored"]
        if not same:
            print(f"perfbench trace changed the reports of {workload}")
        attempted += len(result["records"])
        failed += checked["failed"]
        time_plain += sum(r[2] for r in plain["records"])
        time_traced += sum(r[2] for r in result["records"])
        layer = tr["metrics"]
        unattributed += layer.pop("trace.unattributed_ms")
        span_count += layer.pop("trace.spans")
        for name, (unit, _, _, on) in LAYER_METRICS.items():
            if on == workload:
                metrics[name] = (layer[name], unit)
    metrics["trace.overhead_frac"] = (time_traced / time_plain - 1.0, "ratio")
    metrics["trace.unattributed_ms"] = (unattributed, "ms")
    metrics["trace.spans"] = (span_count, "count")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "contactbundles" / "cli.py").is_file() or not GOLDEN.is_file():
        print(f"perfbench: no contactbundles sources under {ROOT}", file=sys.stderr)
        return 1
    oracle = Oracle(json.loads(GOLDEN.read_text(encoding="utf-8")))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            out = traced(args.seed, work, oracle)
        else:
            out = end_to_end(args.workload, args.seed, args.seconds, work, oracle)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
