"""Each BENCH_*.json at the repo root records a parent-versus-change measurement.

A BENCH file (written by tools/bench_pairs.py) names the measured and
the parent revision, the Python version and nproc.  It covers every
workload that BENCHMARK.json declares at two or more seeds, each run at
the declared run length, and for each run it holds every declared
end-to-end metric with a median and quartiles per side over ten or more
paired runs.  Every workload and metric it names must be one that
BENCHMARK.json declares; that file is only read here.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
METRICS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_repo_has_a_bench_file():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_fields(path):
    bench = json.loads(path.read_text())
    for key in ("rev", "parent"):
        assert re.fullmatch(r"[0-9a-f]{40}", bench[key]), key
    assert isinstance(bench["python"], str) and bench["python"]
    assert type(bench["nproc"]) is int and bench["nproc"] >= 1
    assert bench["seconds"] == BENCHMARK["run_seconds"]
    assert type(bench["pairs"]) is int and bench["pairs"] >= 10
    seeds = {}
    for run in bench["runs"]:
        assert run["workload"] in WORKLOADS
        assert type(run["seed"]) is int
        seeds.setdefault(run["workload"], set()).add(run["seed"])
        assert END_TO_END <= run["metrics"].keys()
        for name, metric in run["metrics"].items():
            assert METRICS.get(name) == metric["unit"], name
            for side in ("parent", "change"):
                summary = metric[side]
                values = summary["values"]
                assert len(values) == bench["pairs"], (run["workload"], name, side)
                expected = statistics.quantiles(values, n=4, method="inclusive")
                assert [summary["q1"], summary["median"], summary["q3"]] == pytest.approx(expected)
    assert seeds.keys() == WORKLOADS
    assert all(len(s) >= 2 for s in seeds.values()), seeds
