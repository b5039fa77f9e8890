"""Independent exact homology of small flag complexes, for the output checks.

This module does not import raaghom.  A flag complex is given by its
vertex count and one adjacency bitmask per vertex; a face is the bitmask
of a clique.  Reduced Betti numbers of full subcomplexes are computed by
plain Gaussian elimination over Q (``p == 0``) or F_p, memoised by vertex
mask, which is all the FP_n and fibring decisions need.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional


def bits(mask: int) -> list[int]:
    """Vertex indices of a mask, ascending."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def matrix_rank(rows: list[dict[int, int]], p: int) -> int:
    """Rank of a sparse integer matrix over Q (p == 0) or F_p."""
    work = []
    for row in rows:
        if p:
            r = {c: v % p for c, v in row.items() if v % p}
        else:
            r = {c: Fraction(v) for c, v in row.items() if v}
        if r:
            work.append(r)
    rank = 0
    while work:
        pivot_row = work.pop()
        col = min(pivot_row)
        inv = pow(pivot_row[col], -1, p) if p else 1 / pivot_row[col]
        rank += 1
        rest = []
        for row in work:
            if col in row:
                f = row[col] * inv
                for c, v in pivot_row.items():
                    nv = row.get(c, 0) - f * v
                    if p:
                        nv %= p
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
            if row:
                rest.append(row)
        work = rest
    return rank


class FlagComplex:
    """The clique complex of a graph on vertices 0..n-1."""

    def __init__(self, n: int, edges) -> None:
        self.n = n
        self.adj = [0] * n
        for u, v in edges:
            self.adj[u] |= 1 << v
            self.adj[v] |= 1 << u
        self._betti: dict[tuple[int, int], tuple[int, ...]] = {}

    @property
    def all_vertices(self) -> int:
        return (1 << self.n) - 1

    def cliques(self, mask: int) -> list[int]:
        """All cliques inside a vertex mask (the empty one first), as masks."""
        out = [0]

        def grow(face: int, candidates: int) -> None:
            while candidates:
                low = candidates & -candidates
                v = low.bit_length() - 1
                candidates ^= low
                new = face | low
                out.append(new)
                grow(new, candidates & self.adj[v])

        grow(0, mask)
        return out

    def dim(self) -> int:
        return max(bin(f).count("1") for f in self.cliques(self.all_vertices)) - 1

    def common_neighbours(self, face: int) -> int:
        out = self.all_vertices & ~face
        for v in bits(face):
            out &= self.adj[v]
        return out

    def reduced_betti(self, mask: int, p: int) -> tuple[int, ...]:
        """b~_{-1}, b~_0, ..., b~_dim of the full subcomplex on ``mask``."""
        key = (mask, p)
        if key not in self._betti:
            by_size: dict[int, list[int]] = {}
            for f in self.cliques(mask):
                by_size.setdefault(bin(f).count("1"), []).append(f)
            top = max(by_size)
            ranks = [0] * (top + 2)  # ranks[k]: boundary from size k to size k-1
            for k in range(1, top + 1):
                pos = {f: i for i, f in enumerate(by_size[k - 1])}
                rows = []
                for f in by_size[k]:
                    row = {}
                    for i, v in enumerate(bits(f)):
                        row[pos[f & ~(1 << v)]] = -1 if i % 2 else 1
                    rows.append(row)
                ranks[k] = matrix_rank(rows, p)
            self._betti[key] = tuple(
                len(by_size[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1)
            )
        return self._betti[key]

    def betti(self, mask: int, p: int, degree: int) -> int:
        values = self.reduced_betti(mask, p)
        i = degree + 1
        return values[i] if 0 <= i < len(values) else 0

    def acyclic_through(self, mask: int, p: int, n: int) -> bool:
        """b~_i = 0 for -1 <= i <= n (vacuous for n < -1)."""
        return all(self.betti(mask, p, i) == 0 for i in range(-1, n + 1))

    def fpn_violation(self, living: int, n: int, p: int) -> Optional[list[int]]:
        """First dead simplex (vertex indices) witnessing failure of FP_n, or None.

        Dead simplices are scanned by dimension, then lexicographically,
        and the empty simplex stands for the living part itself.
        """
        if not self.acyclic_through(living, p, n - 1):
            return []
        dead = self.all_vertices & ~living
        by_dim: dict[int, list[list[int]]] = {}
        for f in self.cliques(dead):
            if f:
                by_dim.setdefault(bin(f).count("1") - 1, []).append(bits(f))
        for k in sorted(by_dim):
            if n - k - 1 < -1:
                break
            for s in sorted(by_dim[k]):
                face = sum(1 << v for v in s)
                if not self.acyclic_through(self.common_neighbours(face) & living, p, n - k - 1):
                    return s
        return None

    def link_betti(self, v: int, p: int, degree: int) -> int:
        return self.betti(self.adj[v], p, degree)


def surjective(values) -> bool:
    g = 0
    for x in values:
        g = gcd(g, abs(x))
    return g == 1


def prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def orbit_count(order: int, perms) -> int:
    """Orbits of the group generated by some permutations of 0..order-1."""
    parent = list(range(order))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in perms:
        for x, y in enumerate(perm):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
    return sum(1 for x in range(order) if find(x) == x)
