"""What the benchmark harness in `perfbench/` reads from `src/`, checked in
tier 1.

A traced benchmark run reads `expr.normalize.cache_info()`, patches every
public function of the modules in `tracer.MODULES`, `Chart.sample_mask` and
the `eval` of three circle-map classes, answers requests through `cli.main`
and through the library calls of `worker._library_calls`, and then checks
that no wrapper is left.  A worker that fails outside a
request exits 1, so a change that breaks one of these reads breaks the
traced run; this test breaks with it.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer as bench_tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from contactbundles import cli  # noqa: E402
from contactbundles.formcalc import expr  # noqa: E402

FORM = Path(__file__).parent / "data" / "torus_pullback.form"


def test_traced_requests_answer_and_leave_no_wrapper():
    """The library is built once per process, so the form file is what
    reaches `normalize` here."""
    before = expr.normalize.cache_info()
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        for argv in (["polygon", "--genus", "2", "--area", "3pi"],
                     ["forms", "--library", "--grid", "16"],
                     ["forms", "--form-file", str(FORM), "--grid", "16"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(argv) == 0
            assert "error" not in json.loads(out.getvalue())
    finally:
        tracer.uninstall()
    after = expr.normalize.cache_info()
    assert after.hits + after.misses > before.hits + before.misses
    assert {"cli.main", "formcalc.contact_sign", "formcalc.sample_mask"} <= {
        span[1] for span in tracer.spans}
    assert worker.restored(tracer)


def test_traced_library_calls_answer_on_pl_maps():
    """One `translation_number` and one `wood_bound_check` request, drawn as
    the geometry workload draws them, answered under the tracer."""
    rng = random.Random(101)
    requests = [workloads._pl_request("translation_number", rng, 2, 1000),
                workloads._pl_request("wood_bound_check", rng, 2, 0)]
    calls = worker._library_calls()
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        for req in requests:
            rc, text, err = worker.send(cli, calls, req)
            assert (rc, err) == (0, None)
            assert json.loads(text)
    finally:
        tracer.uninstall()
    assert {"circle_dynamics.translation_number", "circle_dynamics.evaluate_relator"} <= {
        span[1] for span in tracer.spans}
    assert worker.restored(tracer)


def test_traced_diff_and_validate_spans_follow_the_calls():
    """`formcalc.diff.ms` times the calculus's derivatives, and
    `multicurve.validate.ms` the one check a `multicurve` request asks for:
    the verdict is kept on each decomposition, and the commands that need it
    read it there."""
    data = Path(__file__).parent / "data"
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        reports = []
        for argv in (["forms", "--form-file", str(FORM), "--grid", "16"],
                     ["multicurve", "--file", str(data / "regular12_a.dec"),
                      "--compare", str(data / "regular12_b.dec")]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(argv) == 0
            reports.append(json.loads(out.getvalue()))
    finally:
        tracer.uninstall()
    assert reports[1]["outputs"]["isotopy_equal"] is True
    names = [span[1] for span in tracer.spans]
    assert names.count("formcalc.diff") >= 1
    assert names.count("multicurve.validate") == 1
    assert worker.restored(tracer)
