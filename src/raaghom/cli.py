"""Command-line front end: parse inputs, run one job, emit one report.

Input files are read by the library, each by the reader next to its
writer: `SimplicialComplex.from_json_dict`, `Character.from_json_dict`
and `FiniteQuotient.from_json_dict`.  `_read` loads a file, calls its
reader and turns the reader's ValueError into malformed input.  This
module keeps no file schema.

Arguments are read where they are declared, each by its argparse
``type``.  Every integer, in ``--n`` or ``--degrees 0..3`` or
``--chain abelian:2,3`` alike, goes through `_integer`: a token is read
only when ``str(int(token)) == token``, and each option names its least
value.  Field and ring tokens are read only as reports write them.  The
parser's own errors (a missing, unknown or malformed argument) are
malformed input like any other.

Reports are byte-deterministic for identical inputs: JSON is emitted with
sorted keys, rationals as "p/q" strings, and no timestamps.  Every report
is ``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline.  The one
list not passed through that encoder, whose indented form runs in pure
Python, is the ``characters`` list, often tens of thousands of rows:
`_characters_json` writes it straight from `find_characters`'s value
tuples with one format string per report, in the encoder's bytes.  Exit status
is 0 on success, 1 on a precondition failure, 2 on malformed input; the
diagnostic goes to stderr as a one-line JSON object, the only thing a
failed command writes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from functools import partial
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

CACHE_SCHEMA = 1
T = TypeVar("T")


# an ArgumentTypeError, so that argparse names the option whose type function raised it
class InputError(argparse.ArgumentTypeError):
    """Malformed input: missing file, bad JSON, unknown token, bad argument (exit 2)."""


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


def _integer(token: str, least: Optional[int] = None) -> int:
    """The one reading of an integer argument: plain decimal, at least ``least``.

    A token is read only when ``str(int(token)) == token``, so ``+1``,
    ``01``, ``1_0``, `` 2`` and ``٣`` are malformed input.
    """
    try:
        value = int(token)
        if str(value) != token:
            raise ValueError
    except ValueError:
        raise InputError(f"{token!r} is not an integer in plain decimal") from None
    if least is not None and value < least:
        raise InputError(f"must be >= {least}, got {value}")
    return value


def _path(token: str) -> str:
    """A file or directory argument: any token but the empty one."""
    if not token:
        raise InputError("a path must not be empty")
    return token


def _degrees(spec: str) -> list[int]:
    """``k`` or ``lo..hi``, both ends included."""
    lo, dots, hi = spec.partition("..")
    lo_i = _integer(lo, 0)
    return list(range(lo_i, _integer(hi if dots else lo, lo_i) + 1))


def _chain(spec: str) -> list:
    """Either ``abelian:2,3,4``, read as all-vertex moduli, or a comma list of quotient files."""
    if spec.startswith("abelian:"):
        return [_integer(n, 1) for n in spec[len("abelian:") :].split(",")]
    return spec.split(",")


def _quotients(chain: list, A: Raag) -> list[FiniteQuotient]:
    """The quotients a `_chain` names: an int is an all-vertex modulus, a string a file."""
    return [
        abelian_quotient(A, dict.fromkeys(A.complex.vertices, q))
        if type(q) is int
        else _read(FiniteQuotient.from_json_dict, A, path=q)
        for q in chain
    ]


def _criteria(spec: str) -> list[int]:
    """A comma list of numbers, each naming a criterion in `acceptance.CRITERIA`."""
    from .acceptance import CRITERIA

    numbers = [_integer(n) for n in spec.split(",")]
    known = {number for number, *_ in CRITERIA}
    for n in numbers:
        if n not in known:
            raise InputError(f"no criterion is numbered {n}")
    return numbers


def _flag_complex(path: str) -> SimplicialComplex:
    """The complex in the file at ``path``, which must be flag (a precondition)."""
    K = _read(SimplicialComplex.from_json_dict, path=path)
    if not K.is_flag():
        raise PreconditionError("complex is not flag")
    return K


# ---------------------------------------------------------------------------
# rank cache
# ---------------------------------------------------------------------------


def _cached_rank_hook(cache: Path, K: SimplicialComplex, field: FieldSpec):
    """Memoise (complex, quotient, field, degree) -> rank as small JSON files on disk.

    The hook is `cover_betti`'s ``rank_hook(q, degree, shape, compute)``.
    An entry is keyed by one sha256 over the complex JSON, the quotient's
    explicit JSON form, the field token and the degree.  It is
    ``{"schema": 1, "shape": [rows, cols], "rank": r}``, trusted only
    when its schema and matrix shape match and the rank fits the shape;
    anything else is recomputed and overwritten, so a stale or foreign
    file cannot change a report.
    """
    try:
        cache.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InputError(f"cannot use cache directory {cache}: {e}") from e
    complex_json = json.dumps(K.to_json_dict(), sort_keys=True, default=str)

    def hook(
        q: FiniteQuotient, degree: int, shape: tuple[int, int], compute: Callable[[], int]
    ) -> int:
        parts = (complex_json, json.dumps(q.to_json_dict(), sort_keys=True), field.token(), str(degree))
        digest = hashlib.sha256("\x1f".join(parts).encode()).hexdigest()
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
    if out is not None:
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
    A = Raag(_flag_complex(args.complex))
    values = [dfg_betti_raag(A, args.field, k) for k in args.degrees]
    if args.format == "csv":
        lines = ["degree,dfg_betti"] + [f"{k},{v}" for k, v in zip(args.degrees, values)]
        return "\n".join(lines) + "\n"
    return _json_report({"field": args.field.token(), "degrees": args.degrees, "dfg_betti": values})


def _cmd_kernel_betti(args) -> str:
    K = _flag_complex(args.complex)
    phi = _read(Character.from_json_dict, K, path=args.phi)
    values = [
        kernel_betti(K, phi, m, args.field, enforce=not args.force) for m in args.degrees
    ]
    if args.format == "csv":
        lines = ["degree,kernel_betti"] + [f"{k},{v}" for k, v in zip(args.degrees, values)]
        return "\n".join(lines) + "\n"
    return _json_report(
        {
            "field": args.field.token(),
            "degrees": args.degrees,
            "kernel_betti": values,
            "phi": phi.to_json_dict()["phi"],
        }
    )


def _cmd_fpn_check(args) -> str:
    K = _flag_complex(args.complex)
    phi = _read(Character.from_json_dict, K, path=args.phi)
    bad = fpn_violation(K, phi, args.n, args.field)
    return _json_report(
        {
            "field": args.field.token(),
            "n": args.n,
            "fpn": bad is None,
            "violating_dead_simplex": None if bad is None else [str(v) for v in bad],
        }
    )


def _cmd_fibring(args) -> str:
    report = virtually_fpn_fibred(_flag_complex(args.complex), args.n, args.ring)
    return _json_report(report.to_json_dict())


def _cmd_gradient(args) -> str:
    K = _flag_complex(args.complex)
    A = Raag(K)
    chain = _quotients(args.chain, A)
    _read(check_gradient_chain, chain, args.degree)
    hook = None if args.cache is None else _cached_rank_hook(Path(args.cache), K, args.field)
    values = gradient_sequence(A, chain, args.field, args.degree, rank_hook=hook)
    rows = [(q.order, int(v * q.order), v) for q, v in zip(chain, values)]
    if args.format == "csv":
        lines = [f"N,b_{args.degree},b_{args.degree}/N"]
        lines += [f"{n},{b},{_frac(v)}" for n, b, v in rows]
        return "\n".join(lines) + "\n"
    return _json_report(
        {
            "field": args.field.token(),
            "degree": args.degree,
            "orders": [n for n, _, _ in rows],
            "betti": [b for _, b, _ in rows],
            "normalized": [_frac(v) for _, _, v in rows],
        }
    )


def _cmd_characters(args) -> str:
    K = _flag_complex(args.complex)
    rows = find_characters(K, args.n, args.field, args.bound)
    characters = _characters_json([str(v) for v in K.vertices], rows)
    return (
        f'{{\n  "bound": {args.bound},\n  "characters": {characters},\n'
        f'  "field": {encode_basestring_ascii(args.field.token())},\n  "n": {args.n}\n}}\n'
    )


def _cmd_kaz_check(args) -> str:
    A = Raag(_flag_complex(args.complex))
    chain = _quotients(args.quotients, A)
    holds = kaz_inequality_check(A, chain, args.field, args.max_degree)
    return _json_report(
        {
            "field": args.field.token(),
            "max_degree": args.max_degree,
            "orders": [q.order for q in chain],
            "holds": holds,
        }
    )


def _cmd_report(args) -> tuple[int, str]:
    from . import acceptance

    results = acceptance.run(numbers=args.criteria, seed=args.seed)
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are malformed input, reported like any other."""

    def error(self, message: str):
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="raaghom",
        description="Homological invariants of right-angled Artin groups and their kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    field = partial(_read, FieldSpec.from_token)

    def at_least(least: int) -> Callable[[str], int]:
        return partial(_integer, least=least)

    def common(p, *, fmt=True):
        p.add_argument("--out", type=_path, help="write the report to this path (default: stdout)")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("betti", help="closed-form Betti numbers of the RAAG on a flag complex")
    p.add_argument("--complex", required=True)
    p.add_argument("--field", type=field, required=True)
    p.add_argument("--degrees", type=_degrees, required=True, help="e.g. 0..3")
    common(p)
    p.set_defaults(run=_cmd_betti)

    p = sub.add_parser("kernel-betti", help="closed-form Betti numbers of an Artin kernel")
    p.add_argument("--complex", required=True)
    p.add_argument("--phi", required=True, help="character JSON file")
    p.add_argument("--field", type=field, required=True)
    p.add_argument("--degrees", type=_degrees, required=True)
    p.add_argument("--force", action="store_true", help="skip the FP_n/surjectivity preconditions")
    common(p)
    p.set_defaults(run=_cmd_kernel_betti)

    p = sub.add_parser("fpn-check", help="decide FP_n of an Artin kernel")
    p.add_argument("--complex", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--field", type=field, required=True)
    p.add_argument("--n", type=at_least(0), required=True)
    common(p, fmt=False)
    p.set_defaults(run=_cmd_fpn_check)

    p = sub.add_parser("fibring", help="virtual FP_n fibring verdict over a ring")
    p.add_argument("--complex", required=True)
    p.add_argument(
        "--ring", type=partial(_read, CoefficientRing.from_token), required=True,
        help="Q, F2, ..., Z, or Z/6",
    )
    p.add_argument("--n", type=at_least(0), required=True)
    common(p, fmt=False)
    p.set_defaults(run=_cmd_fibring)

    p = sub.add_parser("gradient", help="normalised cover Betti numbers along a quotient chain")
    p.add_argument("--complex", required=True)
    p.add_argument("--field", type=field, required=True)
    p.add_argument("--chain", type=_chain, required=True, help="abelian:2,3,4 or quotient JSON files")
    p.add_argument("--degree", type=at_least(0), required=True)
    p.add_argument("--cache", type=_path, help="rank cache directory")
    common(p)
    p.set_defaults(run=_cmd_gradient)

    p = sub.add_parser("characters", help="surjective characters passing FP_n, up to a bound")
    p.add_argument("--complex", required=True)
    p.add_argument("--field", type=field, required=True)
    p.add_argument("--n", type=at_least(0), required=True)
    p.add_argument("--bound", type=at_least(1), required=True)
    common(p, fmt=False)
    p.set_defaults(run=_cmd_characters)

    p = sub.add_parser("kaz-check", help="closed form <= normalised cover Betti, per quotient")
    p.add_argument("--complex", required=True)
    p.add_argument("--field", type=field, required=True)
    p.add_argument("--quotients", type=_chain, required=True, help="abelian:... or quotient JSON files")
    p.add_argument("--max-degree", type=at_least(0), required=True)
    common(p, fmt=False)
    p.set_defaults(run=_cmd_kaz_check)

    p = sub.add_parser("report", help="run the acceptance suite and print a pass/fail table")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--criteria", type=_criteria, help="comma list of criterion numbers (default: all)")
    common(p, fmt=False)
    p.set_defaults(run=_cmd_report)

    return parser


_parser: Optional[argparse.ArgumentParser] = None  # built by the first main() call


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
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
