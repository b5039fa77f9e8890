"""tools/cover_scale.py prints the cost of one explicit-cover cover_betti of the 12-vertex RP^2."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from raaghom.exact import F2
from raaghom.raags import Raag, abelian_quotient, cover_betti

from fixtures import rp2_twelve

ROOT = Path(__file__).resolve().parents[1]


def test_prints_the_betti_numbers_time_and_peak_at_n_16():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cover_scale.py"), "--modulus", "2", "--k", "4", "--field", "F2"],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    report = json.loads(proc.stdout)
    assert set(report) == {"modulus", "k", "N", "field", "betti", "cpu_s", "peak_rss_mib"}
    assert (report["modulus"], report["k"], report["N"], report["field"]) == (2, 4, 16, "F2")
    # the explicit permutations give the abelian quotient's cover, which the character sum reads
    L = rp2_twelve()
    A = Raag(L)
    assert report["betti"] == list(cover_betti(A, abelian_quotient(A, dict.fromkeys(L.vertices[:4], 2)), F2).betti)
    assert report["cpu_s"] >= 0 and report["peak_rss_mib"] > 0
