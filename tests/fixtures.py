"""Shared small complexes used across the suite."""

from __future__ import annotations

import random

from raaghom.complexes import SimplicialComplex, flag_completion

# Faces over the vertices "a", "b" that no complex takes, with the ValueError
# each raises; the labels of ["a", "a", "b"] sum to the bit of a third vertex.
BAD_FACES = [
    (["a", "c"], "unknown vertex 'c'"),
    (["a", "a", "c"], "unknown vertex 'c'"),
    (["a", "a"], "repeated vertex in face ('a', 'a')"),
    (["a", "a", "b"], "repeated vertex in face ('a', 'a', 'b')"),
]
BAD_FACE_IDS = ["unknown", "repeated-and-unknown", "repeated", "repeated-with-carry"]

# The 6-vertex triangulation of the real projective plane (antipodal
# quotient of the icosahedron): every pair of vertices spans an edge,
# every vertex link is a 5-cycle, 10 triangles in total.
RP2_6_TRIANGLES = [
    (1, 2, 3),
    (1, 3, 4),
    (1, 4, 5),
    (1, 5, 6),
    (1, 2, 6),
    (2, 3, 5),
    (2, 4, 5),
    (2, 4, 6),
    (3, 5, 6),
    (3, 4, 6),
]


def rp2_six() -> SimplicialComplex:
    return SimplicialComplex(range(1, 7), RP2_6_TRIANGLES)


# A 12-vertex flag RP^2, from the 6-vertex one by subdividing edges of
# empty triangles until none is left; vertex a is 10 and b is 11.
RP2_12_TRIANGLES = [
    tuple(int(c, 16) for c in t)
    for t in "015 019 056 067 078 089 134 135 14a 19a 235 238 256 26b 289 29a 2ab 347 378 467 46b 4ab".split()
]


def rp2_twelve() -> SimplicialComplex:
    return SimplicialComplex(range(12), RP2_12_TRIANGLES)


def grid_surface(n: int, klein: bool) -> SimplicialComplex:
    """The n x n grid on Z/n x Z/n, each square cut by its diagonal: a torus, flag at n = 4.

    With ``klein`` the rows wrap with a flip, (n, j) ~ (0, -j), which makes
    it a Klein bottle, flag at n = 4 too (see test_grid_torus_and_klein_bottle).
    """

    def vertex(i: int, j: int) -> int:
        if klein and i == n:
            j = -j
        return i % n * n + j % n

    triangles = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1), vertex(i, j + 1)
            triangles += [(a, b, c), (a, c, d)]
    return SimplicialComplex(range(n * n), triangles)


def c4() -> SimplicialComplex:
    return flag_completion([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)])


def cycle_complex(n: int) -> SimplicialComplex:
    """Hollow n-cycle (not flag-completed, so n = 3 stays a circle)."""
    return SimplicialComplex(range(n), [(i, (i + 1) % n) for i in range(n)])


def full_simplex(n: int) -> SimplicialComplex:
    verts = list(range(n))
    return flag_completion(verts, [(i, j) for i in range(n) for j in range(i + 1, n)])


def two_points() -> SimplicialComplex:
    return SimplicialComplex(["a", "b"], [("a",), ("b",)])


def octahedron() -> SimplicialComplex:
    # join of three pairs of non-adjacent vertices
    verts = ["a0", "a1", "b0", "b1", "c0", "c1"]
    pairs = {"a": ("a0", "a1"), "b": ("b0", "b1"), "c": ("c0", "c1")}
    edges = []
    for x in verts:
        for y in verts:
            if x < y and x[0] != y[0]:
                edges.append((x, y))
    return flag_completion(verts, edges)


def random_flag_complex(rng: random.Random, max_vertices: int, p: float | None = None) -> SimplicialComplex:
    n = rng.randint(0, max_vertices)
    prob = rng.uniform(0.2, 0.8) if p is None else p
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < prob]
    return flag_completion(range(n), edges)
