"""Run one benchmark job in-process and capture what a user would see.

A CLI job calls ``raaghom.cli.main(argv)`` with stdout and stderr
captured.  A library job reads its JSON input, builds the library
objects, calls one public function and prints the result as JSON, all
inside the timed job, just as the CLI parses its files.  Library names
are looked up on their modules at call time, so a tracer that rebinds
them sees the calls.
"""

from __future__ import annotations

import io
import json
import traceback
from contextlib import redirect_stderr, redirect_stdout

import raaghom.cli
from raaghom import complexes, exact, fibring, kernels


def _complex(obj: dict):
    return complexes.SimplicialComplex.from_json_dict(obj)


def _character(K, values: dict):
    lookup = {str(v): v for v in K.vertices}
    return kernels.Character(K, {lookup[k]: int(x) for k, x in values.items()})


def _fibres_fibre_check(obj: dict) -> str:
    K = _complex(obj["complex"])
    field = exact.FieldSpec.from_token(obj["field"])
    return json.dumps(fibring.fibres_fibre_check(K, obj["n"], field, obj["bound"]))


def _torsion_term(obj: dict) -> str:
    K = _complex(obj["complex"])
    return json.dumps(kernels.torsion_term(K, _character(K, obj["phi"]), obj["p"]))


def _chain_json(chain, field) -> list:
    return [[[str(v) for v in face], field.to_string(c)] for face, c in sorted(
        chain.coefficients.items(), key=lambda item: [str(v) for v in item[0]])]


def _push_cycle_to_living(obj: dict) -> str:
    K = _complex(obj["complex"])
    field = exact.FieldSpec.from_token(obj["field"])
    lookup = {str(v): v for v in K.vertices}
    n = obj["n"]
    terms = {}
    for face, coef in obj["z"]:
        verts = tuple(lookup[x] for x in face)
        if K.sort_face(verts) != verts:
            raise ValueError(f"face {face} is not in the complex's vertex order")
        terms[verts] = field.of(coef)
    z = complexes.ChainVector(n - 1, field, terms)
    result = kernels.push_cycle_to_living(K, _character(K, obj["phi"]), lookup[obj["v"]], z, n)
    return json.dumps({
        "cycle": _chain_json(result.cycle, field),
        "witness": _chain_json(result.witness, field),
    }, sort_keys=True)


LIBRARY_CALLS = {
    "fibres_fibre_check": _fibres_fibre_check,
    "torsion_term": _torsion_term,
    "push_cycle_to_living": _push_cycle_to_living,
}


def run(job: dict, cache_dir: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one job; -1 when the job raised."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if "argv" in job:
                argv = [cache_dir if a == "{cache}" else a for a in job["argv"]]
                code = raaghom.cli.main(argv)
            else:
                with open(job["input"], encoding="utf-8") as fh:
                    obj = json.load(fh)
                print(LIBRARY_CALLS[job["call"]](obj))
                code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a job that raises is a failed job, not a crashed run
            err.write(traceback.format_exc())
            code = -1
    return code, out.getvalue(), err.getvalue()
