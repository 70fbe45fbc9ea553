"""Tests of the benchmark itself: generator, oracles and outside trace.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as runner  # noqa: E402
import workloads  # noqa: E402
from oracles import Oracle, classify_expectation  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from worker import restored, run, send, _library_calls  # noqa: E402

from contactbundles import cli  # noqa: E402

GOLDEN = json.loads((ROOT / "tests" / "data" / "classification_table.json").read_text())


@pytest.fixture
def workdir():
    path = ROOT / ".perfbench_work" / "tests"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _generate(workload, seed, where, cycles=1):
    requests, cycle = workloads.generate(workload, seed, where, ROOT, cycles)
    files = {p.name: p.read_text() for p in sorted(where.iterdir())}
    return requests, cycle, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload, workdir):
    a = _generate(workload, 7, workdir / "a")
    shutil.rmtree(workdir / "a")
    b = _generate(workload, 7, workdir / "a")
    assert a == b
    c = _generate(workload, 8, workdir / "a")
    assert c[0] != a[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_prefix_of_a_cycle_keeps_the_mix(workload, workdir):
    requests, cycle, _ = _generate(workload, 3, workdir / "a", cycles=2)
    assert len(requests) % cycle == 0
    assert len(requests) >= max(2 * cycle, workloads.MIN_REQUESTS)
    first, second = requests[:cycle], requests[cycle:2 * cycle]
    kinds = sorted(r["kind"] for r in first)
    assert kinds == sorted(r["kind"] for r in second)


def test_fresh_form_files_never_repeat(workdir):
    requests, _, files = _generate("forms", 4, workdir / "f", cycles=100)
    fresh = [name for name in files if name.split("-")[0] in ("torus", "connection", "family")]
    assert len(fresh) > 2000
    assert len({files[name] for name in fresh}) == len(fresh)


def test_run_length_does_not_depend_on_the_machine():
    for workload in workloads.WORKLOADS:
        assert workloads.cycles_for(workload, 20) == round(20 / workloads.CYCLE_SECONDS[workload])
        assert workloads.cycles_for(workload, 0.1) == 1


def test_top_of_the_area_domain_is_the_same_for_every_seed(workdir):
    def areas(seed):
        requests, _, _ = _generate("geometry", seed, workdir / str(seed))
        shares = [(r["kind"], r["expect"]["genus"],
                   r["expect"]["area_coef"] / (4 * r["expect"]["genus"] - 2))
                  for r in requests if "expect" in r]
        top = sorted(x for x in shares if x[2] >= workloads.SEEDED_TOP)
        return top, len(shares) - len(top)
    assert areas(1) == areas(2)
    assert len(areas(1)[0]) == 8 * (len(workloads.TOP_SHARES) + 1)


def test_worker_sends_every_request_and_brackets_it_with_a_kernel(workdir):
    requests = [{"id": "c", "kind": "classify",
                 "argv": ["classify", "--chi-s", "-2", "--euler", "1"]},
                {"id": "l", "kind": "library", "argv": ["forms", "--library", "--grid", "8"],
                 "scale": "array"}]
    records = run(cli, _library_calls(), iter(requests))["records"]
    assert [(r[0], r[1], r[6]) for r in records] == [(0, 0, "interp"), (1, 0, "array")]
    assert all(r[5] > 0 for r in records)
    assert runner.speed_factor(2 * runner.REFERENCE_KERNEL_S["array"], "array") == 0.5


def test_benchmark_json_lists_the_layer_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == [(name, unit, better)
                      for name, (unit, better, _, _) in LAYER_METRICS.items()]


def test_restated_formulas_match_the_golden_table():
    for key, row in GOLDEN.items():
        chi, e = map(int, key.split(","))
        want = classify_expectation(chi, e)
        for field, value in row.items():
            assert want[field] == value, (key, field)


def _answer(req):
    rc, text, err = send(cli, _library_calls(), req)
    return rc, text, err


def _first(requests, kind):
    return next(r for r in requests if r["kind"] == kind)


def _corrupt(text, change):
    report = json.loads(text)
    change(report["outputs"])
    return json.dumps(report)


def test_oracle_accepts_and_rejects(workdir):
    oracle = Oracle(GOLDEN)
    counting, _, _ = _generate("counting", 1, workdir / "c")
    forms, _, _ = _generate("forms", 1, workdir / "f")
    geometry, _, _ = _generate("geometry", 1, workdir / "g")

    covers = next(r for r in counting if r["argv"][:1] == ["covers"] and r["expect"]["n"] > 1)
    rc, text, err = _answer(covers)
    assert oracle.check(covers, rc, text, err) is None
    bad = _corrupt(text, lambda o: o.update(orbit_count=o["orbit_count"] + 1))
    assert oracle.check(covers, rc, bad, None)[1] is True

    torus = _first(forms, "torus")
    rc, text, err = _answer(torus)
    assert oracle.check(torus, rc, text, err) is None
    bad = _corrupt(text, lambda o: o.update(sign="Negative"))
    assert oracle.check(torus, rc, bad, None)[1] is True

    holonomy = next(r for r in geometry if r["kind"] == "holonomy10000"
                    and r["expect"]["area_coef"] < 0.5 * (4 * r["expect"]["genus"] - 2))
    rc, text, err = _answer(holonomy)
    assert oracle.check(holonomy, rc, text, err) is None
    bad = _corrupt(text, lambda o: o.update(abs_rho=o["abs_rho"] + 2 * o["error_bound"]))
    assert oracle.check(holonomy, rc, bad, None)[1] is True

    tn = _first(geometry, "translation_number")
    rc, text, err = _answer(tn)
    assert oracle.check(tn, rc, text, err) is None
    report = json.loads(text)
    report["value"] = report["value"] + "1"
    assert oracle.check(tn, rc, json.dumps(report), None)[1] is True


def test_oracle_counts_crashes_and_usage_errors_as_failures(workdir):
    oracle = Oracle(GOLDEN)
    counting, _, _ = _generate("counting", 1, workdir / "c")
    malformed = [r for r in counting if r["kind"] == "malformed"]
    assert {r["expect"]["invalid"] for r in malformed} == set(workloads.MALFORMED)
    assert oracle.check(malformed[0], None, "", "KeyError: 'chi'") == ("uncaught KeyError: 'chi'",
                                                                       False)
    assert oracle.check(malformed[0], 2, "", None)[1] is False
    invalid = _first(counting, "invalid")
    rc, text, err = _answer(invalid)
    assert rc == 1 and oracle.check(invalid, rc, text, err) is None


def _stdout_of(argvs):
    out = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        out.append((rc, buf.getvalue()))
    return out


def test_trace_keeps_stdout_and_is_removed(workdir):
    forms, _, _ = _generate("forms", 2, workdir / "f")
    argvs = [["polygon", "--genus", "3", "--area", "5pi"],
             ["holonomy", "--genus", "2", "--area", "4pi", "--iters", "2000"],
             ["covers", "--genus", "2", "--n", "4"],
             ["classify", "--chi-s", "-4", "--euler", "2"],
             _first(forms, "torus")["argv"], _first(forms, "connection")["argv"]]
    from contactbundles.formcalc import expr, forms as fmod
    originals = (cli.main, expr.normalize, fmod.normalize, fmod.Chart.sample_mask)
    plain = _stdout_of(argvs)
    tracer = Tracer()
    tracer.install()
    try:
        assert fmod.normalize is not originals[2]
        traced = _stdout_of(argvs)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (cli.main, expr.normalize, fmod.normalize, fmod.Chart.sample_mask) == originals
    assert restored(tracer)
    names = {span[1] for span in tracer.spans}
    assert {"cli.main", "hyperbolic.radius_for_area", "formcalc.normalize",
            "formcalc.compile_expr", "formcalc.sample_mask",
            "classify.cohomology_orbit_count"} <= names
    assert tracer.counters["classify.orbit_vectors"] == 4 ** 4
    assert tracer.counters["circle_dynamics.lift_evals"] >= 2000


def test_layer_metrics_self_time_and_groups():
    # cli.main [0, 10] > parse_form [1, 4] > parse_expr [2, 3]; eval_expr [5, 6]
    spans = [
        [-1, "cli.main", 0.0, 10.0, True, 0, True],
        [0, "formcalc.parse_form", 1.0, 4.0, True, 0, True],
        [1, "formcalc.parse_expr", 2.0, 3.0, True, 0, False],
        [0, "formcalc.eval_expr", 5.0, 6.0, True, 0, True],
        [-1, "hyperbolic.radius_for_area", 11.0, 12.0, False, 1, True],
    ]
    m = layer_metrics(spans, {}, [10.5, 1.5], {"hits": 3, "misses": 1})
    assert m["cli.self_ms"] == pytest.approx(6e3)
    assert m["formcalc.parse.ms"] == pytest.approx(3e3)
    assert m["formcalc.self_ms"] == pytest.approx(4e3)
    assert m["formcalc.eval_expr.calls"] == 1
    assert m["trace.unattributed_ms"] == pytest.approx(1e3)
    assert m["hyperbolic.failed"] == 1
    assert m["formcalc.normalize.hit_ratio"] == 0.75
    produced = set(m) | {"trace.overhead_frac"}
    assert set(LAYER_METRICS) <= produced
