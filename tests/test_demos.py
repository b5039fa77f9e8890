"""Each demo script runs to completion against the package in this tree."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    inherited = os.environ.get("PYTHONPATH")
    package_root = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
