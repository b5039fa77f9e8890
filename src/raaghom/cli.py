"""Command-line front end: parse inputs, run one job, emit one report.

Input files are read by the library, each by the reader next to its
writer: `SimplicialComplex.from_json_dict`, `Character.from_json_dict`
and `FiniteQuotient.from_json_dict`.  `_read` loads a file, calls its
reader and turns the reader's ValueError into malformed input; field and
ring tokens go through it too.  This module keeps no file schema.

Reports are byte-deterministic for identical inputs: JSON is emitted with
sorted keys, rationals as "p/q" strings, and no timestamps.  Every report
is ``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline.  The one
list not passed through that encoder, whose indented form runs in pure
Python, is the ``characters`` list, often tens of thousands of rows:
`_characters_json` writes it straight from `find_characters`'s value
tuples with one format string per report, in the encoder's bytes.  Exit status
is 0 on success, 1 on a precondition failure, 2 on malformed input; the
diagnostic goes to stderr as a one-line JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

from .complexes import SimplicialComplex
from .exact import FieldSpec
from .fibring import (
    CoefficientRing,
    find_characters,
    kaz_inequality_check,
    virtually_fpn_fibred,
)
from .kernels import Character, InconsistencyError, PreconditionError, fpn_violation, kernel_betti
from .raags import (
    FiniteQuotient,
    Raag,
    abelian_quotient,
    check_gradient_chain,
    dfg_betti_raag,
    gradient_sequence,
)

CACHE_ENV = "AGRARIAN_CACHE"
CACHE_SCHEMA = 1
T = TypeVar("T")


class InputError(Exception):
    """Malformed input: missing file, bad JSON, unknown token (exit 2)."""


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def _reject_constant(token: str) -> None:
    raise ValueError(f"{token} is not a JSON value")


# built once, like json.load's default decoder: one per file slowed short commands by ~3%
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _read(reader: Callable[..., T], *args: object, path: Optional[str] = None) -> T:
    """``reader(*args)``, given the JSON value in the UTF-8 file at ``path`` as a last argument.

    The reader's ValueError is malformed input, and so are a file that is
    not UTF-8 JSON and the NaN/Infinity tokens, which JSON does not have.
    """
    try:
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                args += (_DECODER.decode(fh.read()),)
        return reader(*args)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}") from e
    except ValueError as e:
        raise InputError(str(e) if path is None else f"{path}: {e}") from e


def _parse_degrees(spec: str) -> list[int]:
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            lo_i, hi_i = int(lo), int(hi)
        else:
            lo_i = hi_i = int(spec)
    except ValueError as e:
        raise InputError(f"bad degree range {spec!r}") from e
    if lo_i < 0 or hi_i < lo_i:
        raise InputError(f"bad degree range {spec!r}")
    return list(range(lo_i, hi_i + 1))


def _parse_chain(spec: str, A: Raag) -> list[FiniteQuotient]:
    """Either ``abelian:2,3,4`` (all-vertex moduli) or a comma list of quotient files."""
    if spec.startswith("abelian:"):
        try:
            ns = [int(x) for x in spec[len("abelian:") :].split(",")]
        except ValueError as e:
            raise InputError(f"bad chain spec {spec!r}") from e
        if any(n < 1 for n in ns):
            raise InputError(f"bad chain spec {spec!r}")
        return [abelian_quotient(A, {v: n for v in A.complex.vertices}) for n in ns]
    return [_read(FiniteQuotient.from_json_dict, A, path=path) for path in spec.split(",")]


# ---------------------------------------------------------------------------
# rank cache
# ---------------------------------------------------------------------------


def _cache_dir(args) -> Optional[Path]:
    if getattr(args, "cache", None):
        return Path(args.cache)
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else None


def _cached_rank_hook(cache: Path, K: SimplicialComplex, field: FieldSpec):
    """Memoise (complex, quotient, field, degree) -> rank as small JSON files on disk.

    The hook takes the quotient first, as `gradient_sequence` passes it,
    and keys its entry by the quotient's explicit JSON form.  An entry is
    ``{"schema": 1, "shape": [rows, cols], "rank": r}``.  It is trusted
    only when its schema and matrix shape match and the rank fits the
    shape; anything else is recomputed and overwritten, so a stale or
    foreign file cannot change a report.
    """
    try:
        cache.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InputError(f"cannot use cache directory {cache}: {e}") from e
    complex_json = json.dumps(K.to_json_dict(), sort_keys=True, default=str)

    def hook(
        q: FiniteQuotient, degree: int, shape: tuple[int, int], compute: Callable[[], int]
    ) -> int:
        job_key = _job_key(complex_json, json.dumps(q.to_json_dict(), sort_keys=True), field.token())
        digest = hashlib.sha256(f"{job_key}:{degree}".encode()).hexdigest()
        path = cache / f"rank-{digest}.json"
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            entry = None
        if (
            isinstance(entry, dict)
            and entry.get("schema") == CACHE_SCHEMA
            and entry.get("shape") == list(shape)
            and type(entry.get("rank")) is int
            and 0 <= entry["rank"] <= min(shape)
        ):
            return entry["rank"]
        r = compute()
        entry = {"schema": CACHE_SCHEMA, "shape": list(shape), "rank": r}
        _atomic_write(path, json.dumps(entry) + "\n")
        return r

    return hook


def _job_key(*parts: str) -> str:
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            _atomic_write(Path(out), text)
        except OSError as e:
            raise InputError(f"cannot write {out}: {e}") from e
    else:
        sys.stdout.write(text)


def _json_report(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _characters_json(labels: Sequence[str], rows: Sequence[tuple[int, ...]]) -> str:
    """The list of ``{labels[i]: row[i]}`` objects as `_json_report` lays it out one level in.

    One format string serves every row.  Its ``%d`` fields stand under the
    labels in ``sort_keys`` order, each label escaped once by the stdlib's
    own string encoder, and an index permutation picks a row's values into
    that order.  Labels must be distinct.
    """
    if not rows:
        return "[]"
    order = sorted(range(len(labels)), key=labels.__getitem__)
    keys = [encode_basestring_ascii(labels[i]).replace("%", "%%") for i in order]
    row = "    {\n" + ",\n".join(f"      {k}: %d" for k in keys) + "\n    }"
    # with one index itemgetter yields a bare int, which % takes as well
    picked = map(itemgetter(*order), rows)
    return "[\n" + ",\n".join(map(row.__mod__, picked)) + "\n  ]"


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_betti(args) -> str:
    K = _read(SimplicialComplex.from_json_dict, path=args.complex)
    field = _read(FieldSpec.from_token, args.field)
    degrees = _parse_degrees(args.degrees)
    if not K.is_flag():
        raise PreconditionError("complex is not flag; Betti numbers of the group need a flag complex")
    A = Raag(K)
    values = [dfg_betti_raag(A, field, k) for k in degrees]
    if args.format == "csv":
        lines = ["degree,dfg_betti"] + [f"{k},{v}" for k, v in zip(degrees, values)]
        return "\n".join(lines) + "\n"
    return _json_report({"field": field.token(), "degrees": degrees, "dfg_betti": values})


def _cmd_kernel_betti(args) -> str:
    K = _read(SimplicialComplex.from_json_dict, path=args.complex)
    field = _read(FieldSpec.from_token, args.field)
    degrees = _parse_degrees(args.degrees)
    phi = _read(Character.from_json_dict, K, path=args.phi)
    if not K.is_flag():
        raise PreconditionError("complex is not flag")
    values = [
        kernel_betti(K, phi, m, field, enforce=not args.force) for m in degrees
    ]
    if args.format == "csv":
        lines = ["degree,kernel_betti"] + [f"{k},{v}" for k, v in zip(degrees, values)]
        return "\n".join(lines) + "\n"
    return _json_report(
        {
            "field": field.token(),
            "degrees": degrees,
            "kernel_betti": values,
            "phi": phi.to_json_dict()["phi"],
        }
    )


def _cmd_fpn_check(args) -> str:
    K = _read(SimplicialComplex.from_json_dict, path=args.complex)
    field = _read(FieldSpec.from_token, args.field)
    phi = _read(Character.from_json_dict, K, path=args.phi)
    if not K.is_flag():
        raise PreconditionError("complex is not flag")
    bad = fpn_violation(K, phi, args.n, field)
    return _json_report(
        {
            "field": field.token(),
            "n": args.n,
            "fpn": bad is None,
            "violating_dead_simplex": None if bad is None else [str(v) for v in bad],
        }
    )


def _cmd_fibring(args) -> str:
    K = _read(SimplicialComplex.from_json_dict, path=args.complex)
    ring = _read(CoefficientRing.from_token, args.ring)
    if not K.is_flag():
        raise PreconditionError("complex is not flag")
    report = virtually_fpn_fibred(K, args.n, ring)
    return _json_report(report.to_json_dict())


def _cmd_gradient(args) -> str:
    K = _read(SimplicialComplex.from_json_dict, path=args.complex)
    field = _read(FieldSpec.from_token, args.field)
    if not K.is_flag():
        raise PreconditionError("complex is not flag")
    A = Raag(K)
    chain = _parse_chain(args.chain, A)
    _read(check_gradient_chain, chain, args.degree)
    cache = _cache_dir(args)
    hook = None if cache is None else _cached_rank_hook(cache, K, field)
    values = gradient_sequence(A, chain, field, args.degree, rank_hook=hook)
    rows = [(q.order, int(v * q.order), v) for q, v in zip(chain, values)]
    if args.format == "csv":
        lines = [f"N,b_{args.degree},b_{args.degree}/N"]
        lines += [f"{n},{b},{_frac(v)}" for n, b, v in rows]
        return "\n".join(lines) + "\n"
    return _json_report(
        {
            "field": field.token(),
            "degree": args.degree,
            "orders": [n for n, _, _ in rows],
            "betti": [b for _, b, _ in rows],
            "normalized": [_frac(v) for _, _, v in rows],
        }
    )


def _cmd_characters(args) -> str:
    K = _read(SimplicialComplex.from_json_dict, path=args.complex)
    field = _read(FieldSpec.from_token, args.field)
    if not K.is_flag():
        raise PreconditionError("complex is not flag")
    rows = find_characters(K, args.n, field, args.bound)
    characters = _characters_json([str(v) for v in K.vertices], rows)
    return (
        f'{{\n  "bound": {args.bound},\n  "characters": {characters},\n'
        f'  "field": {encode_basestring_ascii(field.token())},\n  "n": {args.n}\n}}\n'
    )


def _cmd_kaz_check(args) -> str:
    K = _read(SimplicialComplex.from_json_dict, path=args.complex)
    field = _read(FieldSpec.from_token, args.field)
    if not K.is_flag():
        raise PreconditionError("complex is not flag")
    A = Raag(K)
    chain = _parse_chain(args.quotients, A)
    holds = kaz_inequality_check(A, chain, field, args.max_degree)
    return _json_report(
        {
            "field": field.token(),
            "max_degree": args.max_degree,
            "orders": [q.order for q in chain],
            "holds": holds,
        }
    )


def _cmd_report(args) -> tuple[int, str]:
    from . import acceptance

    numbers = None
    if args.criteria:
        try:
            numbers = [int(x) for x in args.criteria.split(",")]
        except ValueError as e:
            raise InputError(f"bad criteria list {args.criteria!r}") from e
    results = acceptance.run(numbers=numbers, seed=args.seed)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"criterion {r.number:02d} {r.name}: {status}  {r.detail}")
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return (1 if n_fail else 0), "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raaghom",
        description="Homological invariants of right-angled Artin groups and their kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, fmt=True):
        p.add_argument("--out", help="write the report to this path (default: stdout)")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("betti", help="closed-form Betti numbers of the RAAG on a flag complex")
    p.add_argument("--complex", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--degrees", required=True, help="e.g. 0..3")
    common(p)
    p.set_defaults(run=_cmd_betti)

    p = sub.add_parser("kernel-betti", help="closed-form Betti numbers of an Artin kernel")
    p.add_argument("--complex", required=True)
    p.add_argument("--phi", required=True, help="character JSON file")
    p.add_argument("--field", required=True)
    p.add_argument("--degrees", required=True)
    p.add_argument("--force", action="store_true", help="skip the FP_n/surjectivity preconditions")
    common(p)
    p.set_defaults(run=_cmd_kernel_betti)

    p = sub.add_parser("fpn-check", help="decide FP_n of an Artin kernel")
    p.add_argument("--complex", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p, fmt=False)
    p.set_defaults(run=_cmd_fpn_check, minimums={"n": 0})

    p = sub.add_parser("fibring", help="virtual FP_n fibring verdict over a ring")
    p.add_argument("--complex", required=True)
    p.add_argument("--ring", required=True, help="Q, F2, ..., Z, or Z/6")
    p.add_argument("--n", type=int, required=True)
    common(p, fmt=False)
    p.set_defaults(run=_cmd_fibring, minimums={"n": 0})

    p = sub.add_parser("gradient", help="normalised cover Betti numbers along a quotient chain")
    p.add_argument("--complex", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--chain", required=True, help="abelian:2,3,4 or quotient JSON files")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cache", help=f"rank cache directory (default: ${CACHE_ENV})")
    common(p)
    p.set_defaults(run=_cmd_gradient)

    p = sub.add_parser("characters", help="surjective characters passing FP_n, up to a bound")
    p.add_argument("--complex", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    common(p, fmt=False)
    p.set_defaults(run=_cmd_characters, minimums={"n": 0, "bound": 1})

    p = sub.add_parser("kaz-check", help="closed form <= normalised cover Betti, per quotient")
    p.add_argument("--complex", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--quotients", required=True, help="abelian:... or quotient JSON files")
    p.add_argument("--max-degree", type=int, required=True)
    common(p, fmt=False)
    p.set_defaults(run=_cmd_kaz_check, minimums={"max_degree": 0})

    p = sub.add_parser("report", help="run the acceptance suite and print a pass/fail table")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--criteria", help="comma list of criterion numbers (default: all)")
    common(p, fmt=False)
    p.set_defaults(run=_cmd_report)

    return parser


def _check_minimums(args) -> None:
    """Reject integer arguments below the least value their command accepts."""
    for name, least in getattr(args, "minimums", {}).items():
        value = getattr(args, name)
        if value < least:
            raise InputError(f"--{name.replace('_', '-')} must be >= {least}, got {value}")


_parser: Optional[argparse.ArgumentParser] = None  # built by the first main() call


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        _check_minimums(args)
        result = args.run(args)
        code, text = result if isinstance(result, tuple) else (0, result)
        _emit(text, args.out)
    except InputError as e:
        sys.stderr.write(json.dumps({"error": {"kind": "input", "message": str(e)}}) + "\n")
        return 2
    except (PreconditionError, InconsistencyError, ValueError) as e:
        sys.stderr.write(json.dumps({"error": {"kind": "precondition", "message": str(e)}}) + "\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
