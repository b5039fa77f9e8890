"""Benchmark a change against its parent in interleaved pairs and write a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<name>.json --seeds 0 7

DIR is a checkout of each side, each with its own ``perfbench/``.  For
every workload that the change's ``BENCHMARK.json`` declares and every
seed, the two sides run ``perfbench/run.py ... --trace 0`` for that
file's ``run_seconds`` in ten pairs, the parent first in every other
pair.  After each run the result is read from that checkout's
``.perfbench/results/``.  Each end-to-end metric is summarised per side
by the median and quartiles of the runs' values, and the per-run values
are kept beside them.  The file also names the two revisions, the
Python version and nproc.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def git_rev(root: Path) -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                          check=True)
    rev = done.stdout.strip()
    if not rev:
        raise RuntimeError(f"git rev-parse HEAD printed nothing in {root}")
    return rev


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(argv, cwd=root, check=True, stdout=subprocess.DEVNULL)
    path = root / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def measure(roots: dict, workload: str, seed: int, seconds: int) -> dict:
    results = {side: [] for side in SIDES}
    for i in range(PAIRS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            results[side].append(run_once(roots[side], workload, seed, seconds))
    first = results["change"][0]
    return {
        "workload": workload,
        "seed": seed,
        "jobs_per_run": first["jobs_per_run"],
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "correct": {side: all(r["failed"] == 0 for r in results[side]) for side in SIDES},
        "metrics": {
            name: {"unit": m["unit"]} | {
                side: summary([r["metrics"][name]["value"] for r in results[side]]) for side in SIDES
            }
            for name, m in first["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    revs = {side: git_rev(roots[side]) for side in SIDES}
    runs = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for seed in args.seeds:
            runs.append(measure(roots, workload, seed, seconds))
            print(json.dumps({k: runs[-1][k] for k in ("workload", "seed", "failed")}), flush=True)
    bench = {
        "rev": revs["change"],
        "parent": revs["parent"],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "seconds": seconds,
        "pairs": PAIRS,
        "runs": runs,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
