"""The benchmark trajectory: each `BENCH_<pr>.json` at the repository root,
read as data (README, "Benchmark trajectory").  No benchmark is run here."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def test_the_trajectory_has_a_file():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_schema(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{bench['pr']}.json"
    assert "commit" in bench and isinstance(bench["parent"], str)
    assert set(bench["host"]) >= {"vcpus", "python", "numpy"}
    assert set(bench["workloads"]) == set(WORKLOADS)
    for name in WORKLOADS:
        entry = bench["workloads"][name]
        assert (entry["seed"], entry["seconds"]) == (101, 20)
        runs = entry["runs"]
        assert entry["pairs"] == len(runs) >= 3
        assert [r["first"] for r in runs].count("change") >= 1
        for side in SIDES:
            values = {m: [r[side]["metrics"][m] for r in runs] for m in END_TO_END}
            for m, vs in values.items():
                q = statistics.quantiles(vs, n=4)
                assert entry["median"][side][m] == statistics.median(vs), (name, side, m)
                assert entry["iqr"][side][m] == q[2] - q[0], (name, side, m)
            assert entry["failed"][side] == [r[side]["failed"] for r in runs]
            assert entry["digest"][side] == sorted({r[side]["digest"] for r in runs})
