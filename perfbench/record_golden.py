"""Record the golden exit codes and stdout digests at the canonical seed.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Run it only on a commit whose reports are known to be right: it runs
each workload once, refuses to record if any output fails the seed-
independent checks, and writes ``golden/<workload>.json``.  Later runs
at the canonical seed then fail any job whose bytes differ.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import check
import gen
from run import ROOT, BenchError, spawn, write_inputs


def record(workload: str) -> None:
    work = ROOT / ".perfbench" / f"golden-{os.getpid()}"
    try:
        plan, plan_path, digest = write_inputs(workload, check.CANONICAL_SEED, work)
        outcomes = spawn(plan_path, work / "run.json")["jobs"]
        reasons = check.check_run(plan, outcomes, plan_path.parent)
        bad = [f"job {i}: {r}" for i, r in enumerate(reasons) if r]
        if bad:
            raise BenchError(f"{workload}: {len(bad)} wrong outputs, not recording: {bad[:3]}")
        path = check.golden_path(workload)
        path.parent.mkdir(exist_ok=True)
        golden = check.golden_record(digest, outcomes)
        jobs = ",\n".join(json.dumps(j) for j in golden.pop("jobs"))
        path.write_text(json.dumps(golden)[:-1] + ', "jobs": [\n' + jobs + "\n]}\n")
        print(f"{workload}: {len(outcomes)} jobs recorded in {path.name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str]) -> int:
    try:
        for workload in argv or gen.WORKLOADS:
            if workload not in gen.WORKLOADS:
                raise BenchError(f"unknown workload {workload!r}")
            record(workload)
    except BenchError as e:
        sys.stderr.write(f"record_golden: {e}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
