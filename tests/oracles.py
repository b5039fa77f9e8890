"""Independent test oracles: dense elimination, brute force, Bareiss, slow sums.

These deliberately avoid the sparse code paths in raaghom.exact, and the
fast summations in raaghom, so the two sides of every check stay
independent.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd

from raaghom.complexes import boundary_matrix, reduced_betti
from raaghom.exact import solve
from raaghom.kernels import InconsistencyError, living_link


def dense_rank_rationals(rows: list[list[Fraction]]) -> int:
    """Rank over Q by textbook dense Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, n_rows):
            if m[r][col] != 0:
                f = m[r][col] / pv
                for c in range(col, n_cols):
                    m[r][c] -= f * m[rank][c]
        rank += 1
    return rank


def dense_rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p by textbook dense Gaussian elimination."""
    m = [[v % p for v in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m[r][col] % p != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        for r in range(rank + 1, n_rows):
            if m[r][col] % p != 0:
                f = m[r][col] * inv % p
                for c in range(col, n_cols):
                    m[r][c] = (m[r][c] - f * m[rank][c]) % p
        rank += 1
    return rank


def bareiss_determinant(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [[int(v) for v in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def determinantal_divisors(rows: list[list[int]]) -> list[int]:
    """D_1, D_2, ..., D_r: D_k is the gcd of all k x k minors (Bareiss).

    The list stops at the rank r, the largest k with a nonzero minor.  The
    elementary divisors of the Smith form are D_k / D_{k-1}, with D_0 = 1.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    out: list[int] = []
    for k in range(1, min(n_rows, n_cols) + 1):
        g = 0
        for rs in combinations(range(n_rows), k):
            for cs in combinations(range(n_cols), k):
                g = gcd(g, bareiss_determinant([[rows[r][c] for c in cs] for r in rs]))
        if g == 0:
            break
        out.append(g)
    return out


def brute_force_has_solution(rows: list[list[int]], b: list[int], p: int, n_cols: int) -> bool:
    """Search all of F_p^n_cols for a solution of m x = b (tiny systems only)."""
    for x in product(range(p), repeat=n_cols):
        ok = True
        for r, row in enumerate(rows):
            acc = sum(row[c] * x[c] for c in range(n_cols)) % p
            if acc != b[r] % p:
                ok = False
                break
        if ok:
            return True
    return False


def dense_rref(rows: list[list[int]], n_cols: int, p: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over Q (p = 0) or F_p, and its pivot columns.

    Textbook Gauss-Jordan on a dense copy: every pivot is scaled to 1 and
    cleared from every other row, so the form is unique.
    """
    if p:
        m = [[v % p for v in row] for row in rows]
    else:
        m = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    for col in range(n_cols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[top], m[pivot] = m[pivot], m[top]
        inv = pow(m[top][col], -1, p) if p else 1 / m[top][col]
        m[top] = [v * inv % p if p else v * inv for v in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col] != 0:
                f = m[r][col]
                m[r] = [(a - f * b) % p if p else a - f * b for a, b in zip(m[r], m[top])]
        pivots.append(col)
    return m, pivots


def rref_solution(rows: list[list[int]], b: list[int], n_cols: int, p: int):
    """The solution of m x = b with every free variable 0, or None if there is none."""
    reduced, pivots = dense_rref([row + [v] for row, v in zip(rows, b)], n_cols + 1, p)
    if n_cols in pivots:
        return None
    x = [0] * n_cols
    for i, col in enumerate(pivots):
        x[col] = reduced[i][n_cols]
    return x


def rref_kernel_basis(rows: list[list[int]], n_cols: int, p: int) -> list[list]:
    """One kernel vector per free column f, in column order: x_f = 1, other free variables 0."""
    reduced, pivots = dense_rref(rows, n_cols, p)
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        x = [0] * n_cols
        x[f] = 1
        for i, col in enumerate(pivots):
            x[col] = -reduced[i][f] % p if p else -reduced[i][f]
        basis.append(x)
    return basis


def living_set_character_sum(L, moduli, field) -> list[int]:
    """Betti numbers of the abelian cover with moduli n_v, summed over living sets.

        b_k = sum_W prod_{v in W} (n_v - 1) * sum_{s, s & W empty} b~_{k-1-|s|}(L[W & CN(s)])

    over every living set W of vertices with n_v > 1 and every face s that
    misses it: |faces| * 2^|living| links, before any summing by links.
    """
    living_sets = [(0, 1)]  # (mask of W, number of characters with living set W)
    for i, v in enumerate(L.vertices):
        if moduli[v] > 1:
            living_sets += [(w | 1 << i, c * (moduli[v] - 1)) for w, c in living_sets]
    betti = [0] * (L.dim + 2)
    for w, count in living_sets:
        for s in L.faces:
            if L.mask(s) & w:
                continue
            for i, b in enumerate(reduced_betti(L.subcomplex(L.common_neighbours(s) & w), field).reduced_betti):
                betti[len(s) + i] += count * b  # b is b~_{i-1}
    return betti


class TupleComplex:
    """A simplicial complex kept as tuples of labels, the reference for the mask representation.

    Faces are closed under subsets by `combinations`, each sorted by the
    vertex order, and each dimension is listed in the order of the faces'
    index tuples.  The boundary deletes one vertex at a time, with sign
    (-1)^position; links and full subcomplexes are read off the face set.
    """

    def __init__(self, vertices, faces) -> None:
        self.vertices = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        closed = {()} | {(v,) for v in self.vertices}
        for f in faces:
            f = tuple(sorted(f, key=self.index.__getitem__))
            for size in range(1, len(f) + 1):
                closed.update(combinations(f, size))
        self.faces = frozenset(closed)

    @classmethod
    def clique_complex(cls, vertices, edges) -> "TupleComplex":
        """Every vertex set whose pairs are all edges is a face.

        The cliques of each size are the smaller ones extended by a later
        vertex adjacent to all of their vertices, so the search stops at
        the first size with no clique.
        """
        adjacent = {frozenset(e) for e in edges}
        vertices = tuple(vertices)
        cliques, grown = [], [()]
        while grown:
            grown = [
                sub + (v,)
                for sub in grown
                for v in vertices[vertices.index(sub[-1]) + 1 if sub else 0 :]
                if all(frozenset((u, v)) in adjacent for u in sub)
            ]
            cliques += grown
        return cls(vertices, cliques)

    def faces_of_dim(self, k: int) -> list[tuple]:
        key = lambda f: [self.index[v] for v in f]  # noqa: E731
        return sorted((f for f in self.faces if len(f) == k + 1), key=key)

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.faces) - 1

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "faces": [list(f) for k in range(self.dim + 1) for f in self.faces_of_dim(k)],
        }

    def boundary_entries(self, k: int, augmented: bool = True) -> dict:
        rows = ([()] if augmented else []) if k == 0 else self.faces_of_dim(k - 1)
        row_pos = {f: i for i, f in enumerate(rows)}
        entries = {}
        for j, f in enumerate(self.faces_of_dim(k)):
            for i in range(len(f)):
                sub = f[:i] + f[i + 1 :]
                if sub in row_pos:
                    entries[(row_pos[sub], j)] = (-1) ** i
        return entries

    def _sorted(self, verts) -> tuple:
        return tuple(sorted(verts, key=self.index.__getitem__))

    def link(self, s: tuple) -> "TupleComplex":
        faces = [t for t in self.faces if not set(t) & set(s) and self._sorted(t + s) in self.faces]
        return TupleComplex(self._sorted({v for t in faces for v in t}), faces)

    def full_subcomplex(self, keep) -> "TupleComplex":
        keep = set(keep)
        faces = [f for f in self.faces if keep.issuperset(f)]
        return TupleComplex([v for v in self.vertices if v in keep], faces)

    def is_flag(self) -> bool:
        edges = {frozenset(f) for f in self.faces if len(f) == 2}
        return self.faces == TupleComplex.clique_complex(self.vertices, edges).faces

    def euler_characteristic_reduced(self) -> int:
        return sum((-1) ** (len(f) + 1) for f in self.faces)


def oriented_face(verts, K) -> tuple[tuple, int]:
    """Canonical face and orientation sign of an ordered vertex sequence.

    Returns (face, sign) where sign is the parity of the permutation that
    sorts the sequence into K's vertex order, or (face, 0) when a vertex
    repeats.
    """
    keys = [K.index(v) for v in verts]
    if len(set(keys)) != len(keys):
        return tuple(verts), 0
    inversions = sum(a > b for a, b in combinations(keys, 2))
    return tuple(v for _, v in sorted(zip(keys, verts))), (-1) ** inversions


def tuple_push(L, phi, v, z, n) -> tuple[dict, dict]:
    """The coefficients of z' and w of `push_cycle_to_living`, computed on label tuples.

    The reference for the mask push: the same stages and the same `solve`,
    with every face a tuple of labels, every living link built as a
    complex (`living_link`) with its own boundary matrix, and every sign
    read from the permutation that sorts lam followed by a living face
    (`oriented_face`).  No precondition is checked.  Raises
    InconsistencyError where a filling does not exist.
    """
    field = z.field
    of = field.of

    def add_term(acc: dict, face: tuple, coef) -> None:
        new = of(acc.get(face, 0) + coef)
        if new == 0:
            acc.pop(face, None)
        else:
            acc[face] = new

    current = dict(z.coefficients)
    witness: dict = {}
    for m in range(0, n):
        groups: dict[tuple, list[tuple]] = {}  # by the dead part
        for face in current:
            if sum(phi(u) != 0 for u in face) == m:
                groups.setdefault(tuple(u for u in face if phi(u) == 0), []).append(face)
        for lam, faces in groups.items():
            cone = living_link(L, phi, (v,) + lam)
            row_pos = {f: i for i, f in enumerate(cone.faces_of_dim(m - 1))}
            rhs = [0] * len(row_pos)
            for s in faces:
                tau = tuple(u for u in s if phi(u) != 0)
                rhs[row_pos[tau]] += current[s] * oriented_face(lam + tau, L)[1]
            psi = solve(boundary_matrix(cone, m).over_field(field), rhs)
            if psi is None:
                raise InconsistencyError(f"no filling of the living cycle in the link of {(v,) + lam!r}")
            for sigma, c in zip(cone.faces_of_dim(m), psi):
                if c == 0:
                    continue
                face, sign = oriented_face(lam + sigma, L)
                coef = (-1) ** (n - m) * c * sign
                add_term(witness, face, coef)
                for i in range(len(face)):
                    sub = face[:i] + face[i + 1 :]
                    if sub:
                        add_term(current, sub, -(-1) ** i * coef)
    return current, witness
