"""Check that two checkouts give every benchmark job the same exit code and stdout.

    python3 tools/same_outputs.py --parent DIR --change DIR --seeds 0 53

For every workload that the change's ``BENCHMARK.json`` declares and every
seed, the change's ``perfbench/gen.py`` writes the job list and its input
files once.  Each checkout then runs every job through the change's
``perfbench/jobs.py`` (``jobs.run``) in a fresh interpreter that imports
that checkout's ``src/raaghom``, so the two sides differ only in raaghom.
Each side gets its own directory for the jobs' ``{cache}`` argument.  A
job's outcome is its (exit code, stdout); stderr is not compared.

Prints one line per workload and seed whose outcomes all agree.  At the
first job whose outcome differs it prints that job's workload, seed,
index and argv or library call, with both outcomes, and exits 1.  Exits
0 when every job agrees.  Nothing is written under either checkout, not
even bytecode caches.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

# Runs in a fresh interpreter: argv is SRC PERFBENCH INPUTS CACHE OUT.
_WORKER = """
import json, os, sys
src, perfbench, inputs, cache, out = sys.argv[1:]
sys.path[:0] = [src, perfbench]
import jobs
with open(os.path.join(inputs, "plan.json")) as fh:
    plan = json.load(fh)
os.chdir(inputs)
outcomes = [list(jobs.run(job, cache)[:2]) for job in plan["jobs"]]
with open(out, "w") as fh:
    json.dump(outcomes, fh)
"""


def first_difference(parent: list, change: list) -> Optional[int]:
    """The index of the first job whose outcome differs, or None when all agree.

    An outcome is an (exit code, stdout) pair.  When one list is shorter
    and agrees as far as it goes, they differ at its length.
    """
    for i, (a, b) in enumerate(zip(parent, change)):
        if list(a) != list(b):
            return i
    return None if len(parent) == len(change) else min(len(parent), len(change))


def job_name(job: dict) -> list:
    """A job's argv, or its library call and input file."""
    return job.get("argv") or [job["call"], job["input"]]


def _outcome(outcomes: list, i: int) -> str:
    if i >= len(outcomes):
        return "no such job"
    code, stdout = outcomes[i]
    return f"exit {code}, stdout {stdout[:200]!r}"


def run_side(root: Path, perfbench: Path, inputs: Path, out: Path) -> list:
    """Every job's (exit code, stdout) with the raaghom of one checkout, kept in ``out``."""
    cache = out.with_suffix(".cache")
    argv = [sys.executable, "-B", "-c", _WORKER]
    argv += [str(root / "src"), str(perfbench), str(inputs), str(cache), str(out)]
    subprocess.run(argv, check=True)
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    perfbench = args.change.resolve() / "perfbench"
    sys.path.insert(0, str(perfbench))
    sys.dont_write_bytecode = True  # so that no bytecode cache appears under perfbench/
    import gen

    workloads = [w["name"] for w in json.loads((args.change / "BENCHMARK.json").read_text())["workloads"]]
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            for seed in args.seeds:
                work = Path(tempfile.mkdtemp(dir=tmp))
                inputs = work / "inputs"
                inputs.mkdir()
                plan, files = gen.generate(workload, seed)
                for name, text in files.items():
                    (inputs / name).write_text(text)
                (inputs / "plan.json").write_text(json.dumps(plan))
                sides = [run_side(root.resolve(), perfbench, inputs, work / f"{side}.json")
                         for side, root in (("parent", args.parent), ("change", args.change))]
                i = first_difference(*sides)
                if i is not None:
                    job = job_name(plan["jobs"][i]) if i < len(plan["jobs"]) else "past the job list"
                    print(f"{workload} seed {seed} job {i} differs: {job}")
                    print(f"  parent: {_outcome(sides[0], i)}")
                    print(f"  change: {_outcome(sides[1], i)}")
                    return 1
                print(f"{workload} seed {seed}: {len(plan['jobs'])} jobs, every (exit code, stdout) the same")
    return 0


if __name__ == "__main__":
    sys.exit(main())
