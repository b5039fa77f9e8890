"""Count code lines in Python files: non-blank, comments and docstrings excluded.

A line counts when it holds a token other than a comment, a newline or
an indent, outside every docstring.  Docstrings are the string
statements `ast` reads as module, class and function docstrings; every
line of any other string counts, and so does every line of an
expression that spans several lines.

    python tools/code_lines.py src/raaghom
    python tools/code_lines.py src/raaghom/exact.py src/raaghom/kernels.py

Prints one line per file, ``<count> <path>``, then ``<total> total``.
Directories are searched for ``*.py`` files.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of the module, its classes and functions begins."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr):
                value = body[0].value
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    starts.add((value.lineno, value.col_offset))
    return starts


def count_code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _python_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for p in map(Path, paths):
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return files


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    total = 0
    for path in _python_files(argv):
        n = count_code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
