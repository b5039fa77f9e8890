"""A fixed unit of interpreter work that measures how fast the machine runs now.

On a shared VM the same code runs up to 1.6 times faster or slower from
one second to the next, and process CPU time moves with it, because the
other tenants slow the core and its caches rather than take it away.
``child`` therefore runs this kernel between jobs and ``run`` scales each
job's CPU time by how long the kernel took around it (``run.scaled``).  The
kernel uses none of raaghom, so a change to raaghom cannot move it, and
it does the kind of work raaghom's hot loops do: sparse elimination over
dict rows mod p, big-integer products and gcds (as in the Smith form),
and hashing of tuples and frozensets.  Kinds of work speed up by
different factors (1.3 to 1.75) when the machine does; these three sit
in the middle of that range, so the scaled times keep a few per cent of
the swing.
"""

from __future__ import annotations

import time
from itertools import combinations
from math import gcd

# CPU seconds of one kernel on the 2-vCPU Xeon VM the benchmark was
# tuned on, in its slower state (about 1.8 ms in its faster one).  Scaled
# times are seconds at that speed; the constant only sets the unit.
NOMINAL_S = 0.0027

_P = 10007


def _elimination() -> int:
    rows = [{(i * 7 + k * 13) % 48: (i * k + 3) % _P for k in range(5)} for i in range(48)]
    rank = 0
    for col in range(48):
        pivot = next((r for r in rows if r.get(col)), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rank += 1
        inv = pow(pivot[col], _P - 2, _P)
        for r in rows:
            c = r.get(col)
            if c:
                f = c * inv % _P
                for k, v in pivot.items():
                    x = (r.get(k, 0) - f * v) % _P
                    if x:
                        r[k] = x
                    else:
                        r.pop(k, None)
    return rank


def _big_integers() -> int:
    x, total = 3**40 + 7, 0
    for i in range(1, 400):
        x = x * (i + 12345678901) % (10**60 + 7)
        total += gcd(x, 2**61 - 1 + i)
    return total


def _faces() -> int:
    faces = {frozenset(t) for t in combinations(range(11), 3)}
    links = 0
    for v in range(11):
        link = {f - {v} for f in faces if v in f}
        links += sum(1 for e in link if tuple(sorted(e)) > (v, v))
    return links


def kernel() -> None:
    _elimination()
    _big_integers()
    _faces()


def timed() -> float:
    """CPU seconds of one kernel."""
    start = time.process_time()
    kernel()
    return time.process_time() - start
