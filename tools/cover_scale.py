"""Time one explicit-cover `cover_betti` of the 12-vertex flag RP^2 and print its cost.

    python tools/cover_scale.py --modulus 2 --k 10 --field F2
    python tools/cover_scale.py --modulus 3 --k 5 --field F3

The quotient is the regular action of (Z/modulus)^k, through the first k
vertices of `tests/fixtures.rp2_twelve`, entered as explicit permutations,
so `cover_betti` specialises and eliminates each boundary (N = modulus^k).
Prints one JSON line: the modulus, k, N, the field, the cover's Betti
numbers, the CPU seconds of the `cover_betti` call and the process's peak
resident set in MiB (``ru_maxrss``, which covers the imports and the
quotient's construction too).  Run it from a shell, so the peak is this
process's own; the raaghom it measures is the one in this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from fixtures import rp2_twelve  # noqa: E402
from raaghom.exact import FieldSpec  # noqa: E402
from raaghom.raags import FiniteQuotient, Raag, abelian_quotient, cover_betti  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modulus", type=int, choices=(2, 3), required=True)
    parser.add_argument("--k", type=int, choices=range(13), required=True, metavar="0..12")
    parser.add_argument("--field", type=FieldSpec.from_token, required=True)
    args = parser.parse_args(argv)
    L = rp2_twelve()
    A = Raag(L)
    regular = abelian_quotient(A, dict.fromkeys(L.vertices[: args.k], args.modulus))
    q = FiniteQuotient(A, regular.order, regular.action)
    start = time.process_time()
    betti = cover_betti(A, q, args.field).betti
    cpu_s = time.process_time() - start
    print(json.dumps({
        "modulus": args.modulus,
        "k": args.k,
        "N": q.order,
        "field": args.field.token(),
        "betti": list(betti),
        "cpu_s": round(cpu_s, 3),
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
