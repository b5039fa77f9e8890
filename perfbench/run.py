"""The raaghom benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the raaghom sources in ``src/`` next
to this directory.  The seed makes the workload's inputs (``gen``); the
program sees only those files.  A run is one fresh interpreter that
imports raaghom and runs the whole job list (``child``), because the
library keeps in-process memo caches that a second pass would mostly
hit, and because a user's CLI call starts cold too.  After one untimed
warm-up process, runs repeat until S seconds have passed (at least
three), together with set-up-only processes, and every figure is the
median over runs.  Every job's output of every run is checked
(``check``).

Times are CPU seconds scaled to a fixed machine speed: each job's CPU
time is multiplied by ``calib.NOMINAL_S`` over the calibration kernel's
time around that job (``scaled``).  On a shared VM the raw times of the
same code swing by up to 1.6 times within seconds; the kernel swings
with them, so the scaled times move only when raaghom does.  The raw wall
and CPU times are printed and kept in the result file as well.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1
untraced and traced runs alternate: the traced ones wrap raaghom's
public functions from outside (``tracer``) and give the per-layer
metrics, and the difference of the two kinds is the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full result, with the run's metadata, is also written under
``.perfbench/results/``.  Exit status is 0 when the benchmark ran, even
if some outputs were wrong, and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import check
import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
CAL_WINDOW = 5  # calibrations nearest to a job that give its speed
SETUPS_PER_RUN = 2  # set-up-only processes after each untraced run

END_TO_END_UNITS = {
    "jobs_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark itself could not run (exit 2, no result line)."""


def local_speed(calibrations: list, position: float) -> float:
    """Median kernel time of the CAL_WINDOW calibrations nearest ``position``."""
    nearest = sorted(calibrations, key=lambda c: abs(c[0] - position))[:CAL_WINDOW]
    return statistics.median(seconds for _, seconds in nearest)


def scaled(seconds: float, speed: float) -> float:
    return seconds * calib.NOMINAL_S / speed


def spawn(plan_path: Path, result_path: Path, *flags: str) -> dict:
    """Run child.py once; return its result with the scaled times filled in.

    Job i runs between the calibrations at positions i and i + 1, so its
    speed is the one around i + 0.5.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, str(HERE / "child.py"), str(ROOT), str(plan_path), str(result_path), *flags]
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"a run took more than {CHILD_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"run failed with exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    cals = result["calibrations"]
    result["setup_s"] = scaled(result["setup_cpu_s"], local_speed(cals, 0))
    if "jobs" in result:
        for i, job in enumerate(result["jobs"]):
            job["scaled_s"] = scaled(job["cpu_s"], local_speed(cals, i + 0.5))
        result["jobs_s"] = sum(job["scaled_s"] for job in result["jobs"])
    return result


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(runs: list[dict], setups: list[float]) -> dict:
    """The end-to-end metrics; a job's time is its median over the runs."""
    per_job = [statistics.median(r["jobs"][i]["scaled_s"] for r in runs)
               for i in range(len(runs[0]["jobs"]))]
    return {
        "jobs_s": statistics.median(r["jobs_s"] for r in runs),
        "job_p50_s": statistics.median(per_job),
        "job_p90_s": percentile_90(per_job),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["maxrss_kib"] for r in runs) / 1024,
    }


def per_layer(plan: dict, untraced: list[dict], traced: list[dict], analyses: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics (name -> (value, unit)) and whether all counts repeated."""
    counts = [
        {name: (st["calls"], st["size"]) for name, st in a["by_name"].items()}
        | {"support_checks": a["support_checks"], "ranks": a["ranks_under_reduced_betti"]}
        for a in analyses
    ]
    repeat = all(c == counts[0] for c in counts) and len({r["cache_writes"] for r in traced}) == 1
    first = analyses[0]

    def stat(name: str, key: str) -> int:
        return first["by_name"].get(name, {}).get(key, 0)

    # span times are wall clock; scale each run's by its median kernel time
    speeds = [statistics.median(c[1] for c in r["calibrations"]) for r in traced]

    def self_s(names) -> float:
        return statistics.median(
            scaled(sum(a["by_name"].get(n, {}).get("self_ns", 0) for n in names) / 1e9, speed)
            for a, speed in zip(analyses, speeds)
        )

    out: dict[str, tuple[float, str]] = {}
    for layer, traced_names in tracer.TRACED.items():
        names = [tracer.span_name(layer, n) for n in traced_names]
        out[f"{layer}.self_s"] = (self_s(names), "s")
        for name in names:
            out[f"{name}.calls"] = (stat(name, "calls"), "count")
            out[f"{name}.self_s"] = (self_s([name]), "s")
    out["exact.rank.nnz_in"] = (stat("exact.rank", "size"), "count")
    out["exact.smith_normal_form.nnz_in"] = (stat("exact.smith_normal_form", "size"), "count")
    out["raags.specialize.nnz_out"] = (stat("raags.specialize", "size"), "count")
    out["fibring.find_characters.out"] = (stat("fibring.find_characters", "size"), "count")
    betti_calls = stat("complexes.reduced_betti", "calls")
    out["complexes.reduced_betti.ranks_per_call"] = (
        first["ranks_under_reduced_betti"] / betti_calls if betti_calls else 0.0, "ratio")
    out["fibring.support_checks"] = (first["support_checks"], "count")
    needed = plan["needed_supports"]
    out["fibring.support_checks_per_support"] = (
        first["support_checks"] / needed if needed else 0.0, "ratio")
    lookups, writes = plan["cache_lookups"], traced[0]["cache_writes"]
    out["cli.cache.lookups"] = (lookups, "count")
    out["cli.cache.writes"] = (writes, "count")
    out["cli.cache.hit_ratio"] = ((lookups - writes) / lookups if lookups else 0.0, "ratio")
    out["trace.overhead_s"] = (
        statistics.median(r["jobs_s"] for r in traced) - statistics.median(r["jobs_s"] for r in untraced),
        "s",
    )
    return out, repeat


def metadata(workload: str, seed: int, trace: bool) -> dict:
    rev = "unknown"  # a checkout without .git, such as an exported tree
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "raaghom").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
    }


def write_inputs(workload: str, seed: int, work: Path) -> tuple[dict, Path, str]:
    """Generate a workload's inputs under ``work``: (plan, plan path, inputs digest)."""
    plan, files = gen.generate(workload, seed)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    for name, text in files.items():
        (inputs / name).write_text(text)
    plan_path = inputs / "plan.json"
    plan_path.write_text(json.dumps(plan))
    return plan, plan_path, gen.inputs_digest(plan, files)


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    plan, plan_path, digest = write_inputs(workload, seed, work)
    inputs = plan_path.parent

    golden = None
    if seed == check.CANONICAL_SEED:
        path = check.golden_path(workload)
        if not path.is_file():
            raise BenchError(f"no golden record {path.name} for the canonical seed")
        golden = json.loads(path.read_text())
        if golden["inputs"] != digest:
            raise BenchError("the golden record was made from other inputs; regenerate it")

    spawn(plan_path, work / "warmup.json", "--setup-only")
    untraced, traced, analyses, setups = [], [], [], []
    start = time.monotonic()
    while time.monotonic() - start < seconds or len(untraced) < MIN_RUNS:
        i = len(untraced)
        untraced.append(spawn(plan_path, work / f"run-{i}.json"))
        setups.append(untraced[-1]["setup_s"])
        if trace:
            traced.append(spawn(plan_path, work / f"traced-{i}.json", "--trace"))
            analyses.append(tracer.analyse(tracer.load(work / f"traced-{i}.spans")))
        else:
            for k in range(SETUPS_PER_RUN):
                setups.append(spawn(plan_path, work / f"setup-{i}-{k}.json", "--setup-only")["setup_s"])

    failures = []
    attempted = 0
    for run in untraced + traced:
        reasons = check.check_run(plan, run["jobs"], inputs, golden)
        attempted += len(reasons)
        failures += [(i, r) for i, r in enumerate(reasons) if r]

    result = {
        "meta": metadata(workload, seed, trace) | {"inputs_sha256": digest},
        "runs": len(untraced) + len(traced),
        "jobs_per_run": len(plan["jobs"]),
        "attempted": attempted,
        "failed": len(failures),
        "failures": [f"job {i}: {r}" for i, r in failures[:20]],
        "raw": {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "cpu_s": statistics.median(sum(j["cpu_s"] for j in r["jobs"]) for r in untraced),
            "kernel_s": statistics.median(c[1] for r in untraced for c in r["calibrations"]),
        },
        "samples": {
            "jobs_s": [r["jobs_s"] for r in untraced],
            "wall_s": [r["wall_s"] for r in untraced],
            "setup_s": setups,
            "peak_rss_mb": [r["maxrss_kib"] / 1024 for r in untraced],
        },
    }
    if trace:
        layers, repeat = per_layer(plan, untraced, traced, analyses)
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["counts_repeat"] = repeat
        result["absent"] = traced[0].get("absent", [])
    else:
        values = end_to_end(untraced, setups)
        result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return result


def report(result: dict) -> None:
    meta = result["meta"]
    print(
        f"# {meta['workload']} seed={meta['seed']} trace={int(meta['trace'])} "
        f"runs={result['runs']} jobs/run={result['jobs_per_run']} "
        f"python={meta['python']} nproc={meta['nproc']} rev={meta['git_rev'][:12]}"
    )
    raw = result["raw"]
    print(f"# unscaled medians: job list {raw['wall_s']:.4g} s wall, {raw['cpu_s']:.4g} s CPU; "
          f"calibration kernel {raw['kernel_s'] * 1e3:.4g} ms (nominal {calib.NOMINAL_S * 1e3:g} ms)")
    for name, m in result["metrics"].items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':<44} {frac:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} jobs; p90 over {result['jobs_per_run']} jobs a run)")
    for line in result["failures"]:
        print(f"# failed {line}")
    if result.get("absent"):
        print(f"# absent from raaghom, reported as 0: {', '.join(result['absent'])}")
    if result.get("counts_repeat") is False:
        print("# warning: span counts differed between traced runs")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "raaghom" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no raaghom sources under {ROOT / 'src'}\n")
        return 2
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
