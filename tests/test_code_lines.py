"""tools/code_lines.py counts non-blank lines outside comments and docstrings."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SNIPPET = '''"""Module docstring
over two lines."""

import os  # a trailing comment leaves the line a code line


# a comment on its own line
class Box:
    """Class docstring."""


def f(x):
    """Function docstring,

    with a blank line inside.
    """
    total = (
        x
        + 1
    )

    text = """a string
that is not a docstring"""
    return total, text, os.sep
'''


def test_counts_code_lines_of_each_file_and_the_total(tmp_path):
    (tmp_path / "snippet.py").write_text(SNIPPET)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    # import, class, def, the four lines of the sum, the two of the string, return
    assert proc.stdout.splitlines() == [
        f"0 {tmp_path / 'empty.py'}",
        f"10 {tmp_path / 'snippet.py'}",
        "10 total",
    ]
