"""Out-of-process tracing: wrap raaghom's public functions from outside.

``install`` replaces each traced function with a wrapper in every
``raaghom.*`` module namespace that binds the same function object, and
wraps constructors and methods on their classes.  A wrapper records one
span (name, start, end, parent span, job id, and an argument or result
size) in flat integer arrays; ``analyse`` turns the spans into per-layer
self times, call counts and ratios.  The library's source is untouched.
A traced function the library no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# layer -> traced names; a dotted name is a method on a class, and a name
# that is a class wraps its constructor.
TRACED = {
    "exact": ["rank", "smith_normal_form", "solve", "nullspace"],
    "complexes": ["SimplicialComplex", "flag_completion", "SimplicialComplex.link",
                  "SimplicialComplex.full_subcomplex", "reduced_betti", "integral_homology"],
    "raags": ["salvetti_boundary", "specialize", "cover_betti", "FiniteQuotient",
              "abelian_quotient"],
    "kernels": ["fpn_violation", "is_fpn", "kernel_betti", "push_cycle_to_living",
                "torsion_term"],
    "fibring": ["find_characters", "fibres_fibre_check", "virtually_fpn_fibred",
                "kaz_inequality_check"],
    "cli": ["main"],
}

# span name -> how to size the call: ("in", argument index) reads .nnz of an
# argument, ("out", "nnz") reads .nnz of the result, ("out", "len") its length.
SIZES = {
    "exact.rank": ("in", 0),
    "exact.smith_normal_form": ("in", 0),
    "raags.specialize": ("out", "nnz"),
    "fibring.find_characters": ("out", "len"),
}


def span_name(layer: str, name: str) -> str:
    """``complexes.SimplicialComplex.link`` is reported as ``complexes.link``."""
    return f"{layer}.{name.rsplit('.', 1)[-1]}"


class Recorder:
    """Spans in memory, one row per call, in parallel integer arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self.stack: list[int] = []
        self.current_job = -1

    def intern(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, fn, name: str):
        kind = self.intern(name)
        sizing = SIZES.get(name)
        rec = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(rec.kind)
            rec.kind.append(kind)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.job.append(rec.current_job)
            rec.size.append(0)
            rec.end.append(0)
            rec.stack.append(idx)
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                rec.stack.pop()
            if sizing is not None:
                where, what = sizing
                if where == "in":
                    obj = args[what] if len(args) > what else None
                    rec.size[idx] = getattr(obj, "nnz", 0)
                elif what == "len":
                    rec.size[idx] = len(result)
                else:
                    rec.size[idx] = getattr(result, "nnz", 0)
            return result

        return functools.wraps(fn)(traced)

    def save(self, path: Path) -> None:
        with open(path, "wb") as fh:
            for arr in (self.kind, self.parent, self.job, self.start, self.end, self.size):
                arr.tofile(fh)
        path.with_suffix(".names.json").write_text(json.dumps(self.names))


def _rebind(original, wrapper, package: str) -> None:
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(recorder: Recorder, package: str = "raaghom") -> list[str]:
    """Wrap every traced name found in ``package``; return the absent ones."""
    absent = []
    for layer, names in TRACED.items():
        module = sys.modules.get(f"{package}.{layer}")
        for name in names:
            sname = span_name(layer, name)
            owner_name, _, method = name.partition(".")
            target = getattr(module, owner_name, None) if module else None
            if target is None or (method and not hasattr(target, method)):
                absent.append(sname)
                continue
            if method:
                setattr(target, method, recorder.wrap(getattr(target, method), sname))
            elif isinstance(target, type):
                target.__init__ = recorder.wrap(target.__init__, sname)
            else:
                _rebind(target, recorder.wrap(target, sname), package)
    return absent


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def load(path: Path) -> dict:
    names = json.loads(path.with_suffix(".names.json").read_text())
    raw = path.read_bytes()
    n = len(raw) // (3 * 4 + 3 * 8)
    arrays = {}
    offset = 0
    for key, code in (("kind", "i"), ("parent", "i"), ("job", "i"),
                      ("start", "q"), ("end", "q"), ("size", "q")):
        arr = array(code)
        arr.frombytes(raw[offset:offset + n * arr.itemsize])
        offset += n * arr.itemsize
        arrays[key] = arr
    arrays["names"] = names
    return arrays


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the part covered by its direct child spans.

    Spans come from one thread, so children of a span are disjoint and
    nested inside it; a recursive call is simply a child of the same name.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def analyse(spans: dict) -> dict:
    """Per-name totals: calls, self_ns, size; plus the derived fibring counts."""
    names = spans["names"]
    kind, parent = spans["kind"], spans["parent"]
    own = self_times(parent, spans["start"], spans["end"])
    stats = {name: {"calls": 0, "self_ns": 0, "size": 0} for name in names}
    for k, s, size in zip(kind, own, spans["size"]):
        st = stats[names[k]]
        st["calls"] += 1
        st["self_ns"] += s
        st["size"] += size

    def ids(*wanted: str) -> set:
        return {i for i, name in enumerate(names) if name in wanted}

    rank_ids, betti_ids = ids("exact.rank"), ids("complexes.reduced_betti")
    ranks_under_betti = sum(
        1 for k, p in zip(kind, parent) if k in rank_ids and p >= 0 and kind[p] in betti_ids
    )
    search_ids = ids("fibring.find_characters", "fibring.fibres_fibre_check")
    fpn_ids = ids("kernels.is_fpn")
    support_checks = 0
    for i, k in enumerate(kind):
        if k in fpn_ids:
            p = parent[i]
            while p >= 0 and kind[p] not in search_ids:
                p = parent[p]
            support_checks += p >= 0
    return {
        "by_name": stats,
        "ranks_under_reduced_betti": ranks_under_betti,
        "support_checks": support_checks,
    }
