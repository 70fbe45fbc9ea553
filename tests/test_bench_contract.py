"""What the benchmark harness in `perfbench/` reads from `src/`, checked in
tier 1.

A traced benchmark run reads `expr.normalize.cache_info()`, patches every
public function of the modules in `tracer.MODULES`, `Chart.sample_mask` and
the `eval` of three circle-map classes, answers requests through `cli.main`,
and then checks that no wrapper is left.  A worker that fails outside a
request exits 1, so a change that breaks one of these reads breaks the
traced run; this test breaks with it.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer as bench_tracer  # noqa: E402
import worker  # noqa: E402

from contactbundles import cli  # noqa: E402
from contactbundles.formcalc import expr  # noqa: E402


def test_traced_requests_answer_and_leave_no_wrapper():
    before = expr.normalize.cache_info()
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        for argv in (["polygon", "--genus", "2", "--area", "3pi"],
                     ["forms", "--library", "--grid", "16"]):
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
