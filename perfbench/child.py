"""One measured run: a fresh interpreter that imports raaghom and runs the jobs.

Usage: child.py ROOT PLAN RESULT [--trace] [--setup-only]

The first thing recorded is the process's CPU time once ``import
raaghom, raaghom.cli`` has returned: the set-up every CLI call pays.
With --setup-only the run then only times the calibration kernel a few
times.  Otherwise it runs the jobs, timing each by CPU time and the
whole list by wall clock, and runs the calibration kernel (``calib``)
before the first job, after the last and whenever the jobs since the
last one took CAL_EVERY_S of CPU time.
"""

import sys
import time

ROOT = sys.argv[1]
sys.path.insert(0, ROOT + "/src")

import raaghom  # noqa: E402
import raaghom.cli  # noqa: E402

READY_CPU = time.process_time()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402

CAL_EVERY_S = 0.05
SETUP_CALIBRATIONS = 5


def peak_rss_kib() -> int:
    """This process's own peak resident set.

    ru_maxrss also counts the parent's pages the process had between fork
    and exec, so it reads the parent's size when that is larger; VmHWM
    belongs to the address space made by exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    plan_path, result_path = Path(sys.argv[2]), Path(sys.argv[3])
    flags = set(sys.argv[4:])
    if not Path(raaghom.__file__).resolve().is_relative_to(Path(ROOT, "src").resolve()):
        sys.stderr.write(f"imported raaghom from {raaghom.__file__}, not from {ROOT}/src\n")
        return 3
    result = {"setup_cpu_s": READY_CPU}
    calib.kernel()  # the first call runs unspecialised bytecode; time the later ones
    if "--setup-only" in flags:
        result["calibrations"] = [[0, calib.timed()] for _ in range(SETUP_CALIBRATIONS)]
    else:
        import jobs
        import tracer

        plan = json.loads(plan_path.read_text())
        recorder = None
        if "--trace" in flags:
            recorder = tracer.Recorder()
            result["absent"] = tracer.install(recorder)
        cache_dir = str(result_path.with_suffix(".cache"))
        os.chdir(plan_path.parent)
        outcomes, calibrations = [], [[0, calib.timed()]]
        since = 0.0
        start = time.perf_counter()
        for i, job in enumerate(plan["jobs"]):
            if since >= CAL_EVERY_S:
                calibrations.append([i, calib.timed()])
                since = 0.0
            if recorder is not None:
                recorder.current_job = i
            c0 = time.process_time()
            code, out, err = jobs.run(job, cache_dir)
            cpu_s = time.process_time() - c0
            since += cpu_s
            outcomes.append({"cpu_s": cpu_s, "code": code, "stdout": out, "stderr": err})
        result["wall_s"] = time.perf_counter() - start
        calibrations.append([len(outcomes), calib.timed()])
        result["jobs"] = outcomes
        result["calibrations"] = calibrations
        result["cache_writes"] = (
            sum(1 for p in Path(cache_dir).glob("rank-*.json")) if os.path.isdir(cache_dir) else 0
        )
        if recorder is not None:
            recorder.save(result_path.with_suffix(".spans"))
    result["maxrss_kib"] = peak_rss_kib()
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
