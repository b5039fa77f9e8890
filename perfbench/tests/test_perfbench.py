"""Tests of the benchmark's own parts: tracer, checker, generator, metric names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import types
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


# -- tracer ------------------------------------------------------------------


def spans(rows, names):
    """Span arrays from (name index, parent, start, end) rows."""
    return {
        "names": names,
        "kind": array("i", [r[0] for r in rows]),
        "parent": array("i", [r[1] for r in rows]),
        "job": array("i", [0] * len(rows)),
        "start": array("q", [r[2] for r in rows]),
        "end": array("q", [r[3] for r in rows]),
        "size": array("q", [0] * len(rows)),
    }


def test_self_time_of_nested_spans():
    # a [0,100] holds b [10,40] and c [50,70]; c holds d [55,60]
    s = spans([(0, -1, 0, 100), (1, 0, 10, 40), (2, 0, 50, 70), (3, 2, 55, 60)], ["a", "b", "c", "d"])
    assert tracer.self_times(s["parent"], s["start"], s["end"]) == [50, 30, 15, 5]
    stats = tracer.analyse(s)["by_name"]
    assert {n: st["self_ns"] for n, st in stats.items()} == {"a": 50, "b": 30, "c": 15, "d": 5}


def test_self_time_of_recursive_spans():
    # r calls itself twice; each level keeps only its own time
    s = spans([(0, -1, 0, 100), (0, 0, 10, 90), (0, 1, 20, 30)], ["r"])
    assert tracer.self_times(s["parent"], s["start"], s["end"]) == [20, 70, 10]
    st = tracer.analyse(s)["by_name"]["r"]
    assert st["calls"] == 3 and st["self_ns"] == 100


def fake_package(monkeypatch):
    """A package whose ``rank`` is bound in two modules, like raaghom's."""
    exact = types.ModuleType("fakepkg.exact")

    def rank(m, depth=0):
        return depth if depth == 3 else exact.rank(m, depth + 1)

    exact.rank = rank
    cli = types.ModuleType("fakepkg.cli")
    cli.rank = rank

    def main():
        return cli.rank(None)

    cli.main = main
    pkg = types.ModuleType("fakepkg")
    for name, mod in (("fakepkg", pkg), ("fakepkg.exact", exact), ("fakepkg.cli", cli)):
        monkeypatch.setitem(sys.modules, name, mod)
    return exact, cli


def test_install_rebinds_every_namespace_and_reports_absent(monkeypatch):
    exact, cli = fake_package(monkeypatch)
    rec = tracer.Recorder()
    absent = tracer.install(rec, package="fakepkg")
    assert exact.rank is cli.rank and exact.rank.__wrapped__.__name__ == "rank"
    assert "exact.smith_normal_form" in absent and "complexes.link" in absent
    assert "exact.rank" not in absent and "cli.main" not in absent
    assert cli.main() == 3
    names = [rec.names[k] for k in rec.kind]
    # main, then rank recursing through the rebound module global: 1 + 4 spans
    assert names == ["cli.main"] + ["exact.rank"] * 4
    assert list(rec.parent) == [-1, 0, 1, 2, 3]
    own = tracer.self_times(rec.parent, rec.start, rec.end)
    assert sum(own) == rec.end[0] - rec.start[0]


def test_spans_round_trip(tmp_path, monkeypatch):
    fake_package(monkeypatch)
    rec = tracer.Recorder()
    tracer.install(rec, package="fakepkg")
    sys.modules["fakepkg.cli"].main()
    rec.save(tmp_path / "t.spans")
    loaded = tracer.load(tmp_path / "t.spans")
    assert list(loaded["parent"]) == list(rec.parent) and list(loaded["end"]) == list(rec.end)


# -- checker -----------------------------------------------------------------


def exact_job(value) -> dict:
    return {"argv": ["x"], "check": {"exact": gen.canonical_digest(value)}}


def outcome(stdout: str, code: int = 0) -> dict:
    return {"code": code, "stdout": stdout, "stderr": "", "cpu_s": 0.0}


def test_checker_flags_a_one_byte_change_and_a_wrong_exit_code(tmp_path):
    plan = {"jobs": [exact_job({"betti": [1, 2]})]}
    good = '{\n  "betti": [\n    1,\n    2\n  ]\n}\n'
    assert check.check_run(plan, [outcome(good)], tmp_path) == [None]
    assert check.check_run(plan, [outcome(good.replace("2", "3"))], tmp_path)[0]
    assert check.check_run(plan, [outcome(good, code=1)], tmp_path)[0].startswith("exit code 1")
    golden = check.golden_record("inputs", [outcome(good)])
    assert check.check_run(plan, [outcome(good)], tmp_path, golden) == [None]
    # same JSON value, one byte of whitespace different: only the golden record sees it
    respaced = good.replace("  1", " 1")
    assert check.check_run(plan, [outcome(respaced)], tmp_path) == [None]
    assert check.check_run(plan, [outcome(respaced)], tmp_path, golden)[0]
    wrong_code = check.golden_record("inputs", [outcome(good, code=1)])
    assert check.check_run(plan, [outcome(good)], tmp_path, wrong_code)[0]


def test_checker_lower_bound(tmp_path):
    spec = {"field": "F2", "degree": 1, "orders": [4, 8], "min_betti": [4, 8]}
    plan = {"jobs": [{"argv": ["x"], "check": {"lower": spec}}]}
    report = {"field": "F2", "degree": 1, "orders": [4, 8], "betti": [5, 8], "normalized": ["5/4", "1/1"]}
    assert check.check_run(plan, [outcome(json.dumps(report))], tmp_path) == [None]
    report["betti"][1] = 7
    report["normalized"][1] = "7/8"
    assert "below" in check.check_run(plan, [outcome(json.dumps(report))], tmp_path)[0]


def test_push_identities():
    # v and d dead, a living; z = [d] - [a] is a 0-cycle in lk(v) and
    # z - 0 = d(-[d, a]), so z' = 0 with w = -[d, a] is a valid push
    inp = {
        "complex": {"vertices": ["v", "d", "a"], "edges": [["v", "d"], ["v", "a"], ["d", "a"]]},
        "phi": {"v": 0, "d": 0, "a": 1}, "v": "v", "n": 1, "field": "Q",
        "z": [[["d"], "1"], [["a"], "-1"]],
    }
    assert check.verify_push(inp, {"cycle": [], "witness": [[["d", "a"], "-1"]]}) is None
    assert check.verify_push(inp, {"cycle": [], "witness": [[["d", "a"], "1"]]}) == "z - z' != dw"
    assert "outside the living link" in check.verify_push(
        inp, {"cycle": [[["d"], "1"]], "witness": []})


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    plan, files = gen.generate(workload, 7)
    again, again_files = gen.generate(workload, 7)
    assert plan == again and files == again_files
    other, other_files = gen.generate(workload, 8)
    assert gen.inputs_digest(plan, files) != gen.inputs_digest(other, other_files)
    assert len(plan["jobs"]) >= 100  # so at least ten samples lie beyond the p90


def test_golden_records_match_the_generator():
    for workload in gen.WORKLOADS:
        golden = json.loads(check.golden_path(workload).read_text())
        plan, files = gen.generate(workload, check.CANONICAL_SEED)
        assert golden["inputs"] == gen.inputs_digest(plan, files)
        assert len(golden["jobs"]) == len(plan["jobs"])


def test_surface_homology_matches_the_oracle():
    from oracle import FlagComplex

    for name in gen.SURFACES:
        n, tris = gen.surface(name, 1)
        edges = {tuple(sorted(e)) for a, b, c in tris for e in ((a, b), (a, c), (b, c))}
        fc = FlagComplex(n, edges)
        for p in (0, 2, 3):
            assert [fc.betti(fc.all_vertices, p, d) for d in (0, 1, 2)] == [
                gen.field_betti(name, p, d) for d in (0, 1, 2)]


# -- scaled times ------------------------------------------------------------


def test_scaled_times_follow_the_local_kernel_speed():
    # the kernel takes 2 ms for the first jobs and 4 ms (a machine half as
    # fast) for the last ones; the same work reads the same scaled time
    cals = [[i, 0.002] for i in range(6)] + [[i, 0.004] for i in range(6, 12)]
    assert run.local_speed(cals, 0.5) == 0.002 and run.local_speed(cals, 10.5) == 0.004
    fast = run.scaled(0.010, run.local_speed(cals, 0.5))
    slow = run.scaled(0.020, run.local_speed(cals, 10.5))
    assert fast == pytest.approx(slow) == pytest.approx(0.010 * run.calib.NOMINAL_S / 0.002)


def test_end_to_end_takes_each_jobs_median_over_runs():
    runs = [{"jobs": [{"scaled_s": float(t)} for t in times], "jobs_s": float(sum(times)), "maxrss_kib": 1024}
            for times in ([1, 2, 3] * 40, [3, 2, 1] * 40, [2, 2, 2] * 40)]
    m = run.end_to_end(runs, [0.1, 0.2, 0.3])
    assert m["jobs_s"] == 240 and m["job_p50_s"] == 2 and m["job_p90_s"] == 2
    assert m["setup_s"] == 0.2 and m["peak_rss_mb"] == 1


# -- metric names ------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    stats = {"calls": 1, "self_ns": 1, "size": 1}
    analysis = {
        "by_name": {tracer.span_name(layer, n): stats for layer, ns in tracer.TRACED.items() for n in ns},
        "ranks_under_reduced_betti": 1,
        "support_checks": 1,
    }
    plan = {"needed_supports": 1, "cache_lookups": 2}
    runs = [{"jobs_s": 1.0, "cache_writes": 1, "calibrations": [[0, 0.002]]}]
    layers, repeat = run.per_layer(plan, runs, runs, [analysis])
    assert repeat
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
