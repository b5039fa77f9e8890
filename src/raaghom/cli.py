"""Command-line front end: parse inputs, run one job, emit one report.

Input files are read by the library, each by the reader next to its
writer: `SimplicialComplex.from_json_dict`, `Character.from_json_dict`
and `FiniteQuotient.from_json_dict`.  `_read` loads a file, calls its
reader and turns the reader's ValueError into malformed input.  This
module keeps no file schema.

Arguments are read against two tables: `_COMMANDS` gives each command
its runner, help line and options, and `_OPTIONS` gives each option its
reader and default, or marks it required.  `_parse` reads ``argv``
against them, each value by its option's reader in argv order.  Every
integer, in ``--n`` or ``--degrees 0..3`` or ``--chain abelian:2,3``
alike, goes through `_integer`: a token is read only when
``str(int(token)) == token``, and each option names its least value.
Field and ring tokens are read only as reports write them.  A missing,
unknown, ambiguous or malformed argument is malformed input like any
other, and ``-h`` or ``--help`` prints the usage text the tables give.

Reports are byte-deterministic for identical inputs: JSON is emitted with
sorted keys, rationals as "p/q" strings, and no timestamps.  Every report
is ``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline.  The one
list not passed through that encoder, whose indented form runs in pure
Python, is the ``characters`` list, often tens of thousands of rows:
`_characters_json` writes it straight from `find_characters`'s value
tuples with one format call per report, in the encoder's bytes.  Exit status
is 0 on success, 1 on a precondition failure, 2 on malformed input; the
diagnostic goes to stderr as a one-line JSON object, the only thing a
failed command writes.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace
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

T = TypeVar("T")


# not a ValueError, which `_read` would wrap in a second InputError
class InputError(Exception):
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
    return [_path(name) for name in spec.split(",")]


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

    One format string serves the whole list: a row template, repeated once
    per row, whose ``%d`` fields stand under the labels in ``sort_keys``
    order, each label escaped once by the stdlib's own string encoder.  It
    takes every row's values at once, each row's picked into that order by
    index, so one vertex is read like any other.  Labels must be distinct.
    """
    if not rows:
        return "[]"
    order = sorted(range(len(labels)), key=labels.__getitem__)
    keys = [encode_basestring_ascii(labels[i]).replace("%", "%%") for i in order]
    row = "    {\n" + ",\n".join(f"      {k}: %d" for k in keys) + "\n    }"
    values = tuple([r[i] for r in rows for i in order])
    return "[\n" + ",\n".join([row] * len(rows)) % values + "\n  ]"


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
    A = Raag(_flag_complex(args.complex))
    chain = _quotients(args.chain, A)
    _read(check_gradient_chain, chain, args.degree)
    values = gradient_sequence(A, chain, args.field, args.degree)
    rows = [(q.order, v.numerator * (q.order // v.denominator), v) for q, v in zip(chain, values)]
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
# argument reading
# ---------------------------------------------------------------------------


def _format(token: str) -> str:
    if token not in ("json", "csv"):
        raise InputError(f"invalid choice: {token!r} (choose from 'json', 'csv')")
    return token


_AT_LEAST_0 = partial(_integer, least=0)

# option -> (reader, default).  A default of ... makes the option required;
# a reader of None makes it a flag, which takes no value.  gradient's cache
# path is read and otherwise ignored, until perfbench's job lists stop passing it.
_OPTIONS = {
    "--complex": (str, ...), "--phi": (str, ...),
    "--field": (partial(_read, FieldSpec.from_token), ...),
    "--ring": (partial(_read, CoefficientRing.from_token), ...),
    "--degrees": (_degrees, ...), "--chain": (_chain, ...), "--quotients": (_chain, ...),
    "--degree": (_AT_LEAST_0, ...), "--max-degree": (_AT_LEAST_0, ...),
    "--n": (_AT_LEAST_0, ...), "--bound": (partial(_integer, least=1), ...),
    "--seed": (_integer, 0), "--criteria": (_criteria, None), "--cache": (_path, None),
    "--out": (_path, None), "--format": (_format, "json"), "--force": (None, False),
}

# command -> (runner, help line, its options)
_COMMANDS = {
    "betti": (_cmd_betti, "closed-form Betti numbers of the RAAG on a flag complex",
              "--complex --field --degrees --out --format"),
    "kernel-betti": (_cmd_kernel_betti, "closed-form Betti numbers of an Artin kernel",
                     "--complex --phi --field --degrees --force --out --format"),
    "fpn-check": (_cmd_fpn_check, "decide FP_n of an Artin kernel", "--complex --phi --field --n --out"),
    "fibring": (_cmd_fibring, "virtual FP_n fibring verdict over a ring (Q, F2, ..., Z, Z/6)",
                "--complex --ring --n --out"),
    "gradient": (_cmd_gradient, "normalised cover Betti numbers along a chain (abelian:2,3 or files)",
                 "--complex --field --chain --degree --cache --out --format"),
    "characters": (_cmd_characters, "surjective characters passing FP_n, up to a bound",
                   "--complex --field --n --bound --out"),
    "kaz-check": (_cmd_kaz_check, "closed form <= normalised cover Betti, per quotient",
                  "--complex --field --quotients --max-degree --out"),
    "report": (_cmd_report, "run the acceptance suite and print a pass/fail table", "--seed --criteria --out"),
}


def _usage(args: SimpleNamespace) -> str:
    """The help text: every command with its help line, or the options of ``args.command``."""
    if args.command is None:
        lines = ["usage: raaghom COMMAND [OPTIONS]", "", "commands:"]
        lines += [f"  {name:<14}{text}" for name, (_, text, _) in _COMMANDS.items()]
    else:
        _, text, names = _COMMANDS[args.command]
        lines = [f"usage: raaghom {args.command} [OPTIONS]", "", text, "", "options:"]
        for name in names.split():
            reader, default = _OPTIONS[name]
            value = "" if reader is None else f" {name[2:].upper()}"
            lines.append(f"  {name}{value}" + (" (required)" if default is ... else ""))
    return "\n".join(lines) + "\n"


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """The arguments ``argv`` gives its command, read against `_COMMANDS` and `_OPTIONS`.

    An option is named in full or by a unique prefix, with its value in
    the next token or after ``=``.  Each value is read by the option's
    reader as it is met, so the last occurrence of an option wins.  The
    arguments hold the ``run`` function, which is `_usage` when ``argv``
    asks for help, and the ``command``, None when no command is named.
    """
    command, *tokens = argv or [""]
    if command in ("-h", "--help"):
        return SimpleNamespace(run=_usage, command=None, out=None)
    if command not in _COMMANDS:
        raise InputError(f"expected a command, one of {', '.join(_COMMANDS)}")
    run, _, names = _COMMANDS[command]
    values = {name: _OPTIONS[name][1] for name in names.split()}
    tokens = iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            return SimpleNamespace(run=_usage, command=command, out=None)
        given, eq, value = token.partition("=")
        matches = [given] if given in values else [n for n in values if len(given) > 2 and n.startswith(given)]
        if len(matches) != 1:
            problem = f"is ambiguous: {', '.join(matches)}" if matches else f"is not an option of {command}"
            raise InputError(f"{given!r} {problem}")
        name = matches[0]
        reader = _OPTIONS[name][0]
        if eq and reader is None:
            raise InputError(f"argument {name}: takes no value, got {value!r}")
        if not eq and reader is not None:
            value = next(tokens, None)
            # a token starting with "-" is the next option unless it is "-" or a negative number
            if value is None or value.startswith("-") and not re.fullmatch(r"-|-\d+|-\d*\.\d+", value):
                raise InputError(f"argument {name}: expected one argument")
        try:
            values[name] = True if reader is None else reader(value)
        except InputError as e:
            raise InputError(f"argument {name}: {e}") from None
    missing = [name for name, value in values.items() if value is ...]
    if missing:
        raise InputError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(run=run, command=command, **{n[2:].replace("-", "_"): v for n, v in values.items()})


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
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
