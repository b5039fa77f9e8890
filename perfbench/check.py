"""The output checker behind ``failed``: every job of every run is checked.

At any seed each job's output is checked against what ``gen`` derived
without raaghom: an exact report (by digest), a lower bound on cover
Betti numbers, or, for a pushed cycle, the defining identities.  At the
canonical seed each job's exit code and stdout digest must also match
the golden record taken from the reference commit, so any change to the
bytes of a report counts as a failure.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Optional

from gen import FIELD_CHAR, canonical_digest, frac

CANONICAL_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def golden_record(inputs: str, outcomes: list[dict]) -> dict:
    return {
        "seed": CANONICAL_SEED,
        "inputs": inputs,
        "jobs": [[o["code"], stdout_digest(o["stdout"])] for o in outcomes],
    }


def _parse(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def _lower(spec: dict, report) -> Optional[str]:
    if not isinstance(report, dict):
        return "report is not a JSON object"
    for key in ("field", "degree", "orders"):
        if report.get(key) != spec[key]:
            return f"{key} is {report.get(key)!r}, expected {spec[key]!r}"
    betti, normalized = report.get("betti"), report.get("normalized")
    if not isinstance(betti, list) or len(betti) != len(spec["orders"]):
        return "betti list has the wrong length"
    for b, n, low, q in zip(betti, spec["orders"], spec["min_betti"], normalized or []):
        if not isinstance(b, int) or b < low:
            return f"b_{spec['degree']} = {b!r} is below N * b~_(k-1)(L) = {low}"
        if q != frac(b, n):
            return f"normalised value {q!r} is not {b}/{n}"
    if len(normalized or []) != len(betti):
        return "normalised list has the wrong length"
    return None


def _chain(terms, p: int) -> dict:
    out = {}
    for face, coef in terms:
        out[tuple(face)] = Fraction(coef) if not p else int(coef) % p
    return out


def _boundary(chain: dict, p: int) -> dict:
    out: dict = {}
    for face, c in chain.items():
        for i in range(len(face)):
            sub = face[:i] + face[i + 1:]
            out[sub] = out.get(sub, 0) + (c if i % 2 == 0 else -c)
    return _clean(out, p)


def _clean(chain: dict, p: int) -> dict:
    return {f: (c % p if p else c) for f, c in chain.items() if (c % p if p else c)}


def verify_push(inp: dict, report) -> Optional[str]:
    """z' lies in the living link of v, dz' = 0 and z - z' = dw exactly."""
    if not isinstance(report, dict) or set(report) != {"cycle", "witness"}:
        return "push report must have exactly 'cycle' and 'witness'"
    p = FIELD_CHAR[inp["field"]]
    labels = inp["complex"]["vertices"]
    index = {x: i for i, x in enumerate(labels)}
    adjacent = {frozenset(e) for e in inp["complex"]["edges"]}
    living = {x for x, val in inp["phi"].items() if val != 0}
    v = inp["v"]

    def is_face(face) -> bool:
        return (
            all(x in index for x in face)
            and [index[x] for x in face] == sorted({index[x] for x in face})
            and all(frozenset((a, b)) in adjacent for i, a in enumerate(face) for b in face[i + 1:])
        )

    try:
        z = _chain(inp["z"], p)
        cycle = _chain(report["cycle"], p)
        witness = _chain(report["witness"], p)
    except (TypeError, ValueError, ZeroDivisionError):
        return "unparseable chain"
    n = inp["n"]
    for face in cycle:
        if len(face) != n or not is_face(face) or not all(
            x in living and frozenset((x, v)) in adjacent for x in face
        ):
            return f"z' has {list(face)} outside the living link of {v}"
    for face in witness:
        if len(face) != n + 1 or not is_face(face):
            return f"w has {list(face)}, not an {n}-face of the complex"
    if _boundary(cycle, p):
        return "dz' != 0"
    diff = dict(z)
    for face, c in cycle.items():
        diff[face] = diff.get(face, 0) - c
    for face, c in _boundary(witness, p).items():
        if face:
            diff[face] = diff.get(face, 0) - c
    if _clean(diff, p):
        return "z - z' != dw"
    return None


def check_job(job: dict, outcome: dict, inputs_dir: Path) -> Optional[str]:
    """Why this job's outcome is wrong, or None."""
    if outcome["code"] != 0:
        return f"exit code {outcome['code']}, expected 0: {outcome['stderr'].strip()[:200]}"
    report = _parse(outcome["stdout"])
    if report is None:
        return "stdout is not JSON"
    check = job["check"]
    if "exact" in check:
        if canonical_digest(report) != check["exact"]:
            return "report differs from the expected one"
        return None
    if "lower" in check:
        return _lower(check["lower"], report)
    if "push" in check:
        inp = json.loads((inputs_dir / job["input"]).read_text())
        return verify_push(inp, report)
    return "job has no check"


def check_run(
    plan: dict, outcomes: list[dict], inputs_dir: Path, golden: Optional[dict] = None
) -> list[Optional[str]]:
    """One reason per job (None when the job is right) for one run."""
    if len(outcomes) != len(plan["jobs"]):
        return ["run did not report every job"] * len(plan["jobs"])
    reasons = [check_job(job, o, inputs_dir) for job, o in zip(plan["jobs"], outcomes)]
    for i, job in enumerate(plan["jobs"]):
        z_job = job["check"].get("z_implies")
        if z_job is not None and reasons[i] is None and reasons[z_job] is None:
            if _parse(outcomes[z_job]["stdout"])["verdict"] and not _parse(outcomes[i]["stdout"])["verdict"]:
                reasons[i] = f"verdict over Z (job {z_job}) is true but false here"
    if golden is not None:
        for i, (o, (code, digest)) in enumerate(zip(outcomes, golden["jobs"])):
            if reasons[i] is None and (o["code"] != code or stdout_digest(o["stdout"]) != digest):
                reasons[i] = "exit code or stdout differs from the golden record"
    return reasons
