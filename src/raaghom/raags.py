"""Right-angled Artin groups, Salvetti boundaries, and finite covers.

A RAAG is determined by a finite flag complex: one generator per vertex,
two generators commuting exactly when their vertices are adjacent.  The
cellular chain complex of the universal cover of its Salvetti complex has
one k-cell per (k-1)-simplex (the empty simplex giving the unique 0-cell)
and boundary matrices over the group ring,

    d(e_s) = sum_i (-1)^(i-1) (v_i - 1) e_{s minus v_i},   s = [v_1 < ... < v_k],

so every nonzero entry is +-(v - 1) for a single vertex v; a
`SalvettiBoundary` stores just that vertex and sign.  Specialising along a
finite permutation quotient of the generators turns each entry into the
N x N block +-(P_v - I), P_v the permutation matrix of v, and computes
the homology of the corresponding finite cover; normalised by the cover
degree these Betti numbers are the gradient approximants that the
closed-form values `dfg_betti_raag` / `graph_product_betti` bound and,
along suitable chains, match in the limit.  `cover_betti` eliminates
these blocks only for explicit quotients: for an abelian quotient it gets
the same numbers, over every field, from a character sum over living
links, summed face by face, and the quotient never builds its
permutations.  Nothing is kept between calls: each cover is computed
from its complex, quotient and field alone.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Mapping, Optional, Sequence

from .complexes import (
    SimplicialComplex, json_int, json_object, json_vertex_map, mask_bits, reduced_betti, reduced_betti_on,
)
from .exact import ExactMatrix, FieldSpec, Record, rank


class Raag:
    """The right-angled Artin group of a finite flag complex."""

    __slots__ = ("complex",)

    def __init__(self, defining_complex: SimplicialComplex) -> None:
        if not defining_complex.is_flag():
            raise ValueError("defining complex of a RAAG must be flag")
        self.complex = defining_complex

    @property
    def generators(self) -> tuple:
        return self.complex.vertices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Raag):
            return NotImplemented
        return self.complex == other.complex

    def __hash__(self) -> int:
        return hash(self.complex)

    def __repr__(self) -> str:
        return f"Raag(on {len(self.generators)} generators)"


class SalvettiBoundary:
    """A Salvetti boundary map: ``entries[(row, col)] = (v, sign)`` is sign * (v - 1)."""

    __slots__ = ("rows", "cols", "over", "field", "entries")

    def __init__(
        self,
        rows: int,
        cols: int,
        over: Raag,
        field: FieldSpec,
        entries: Mapping[tuple[int, int], tuple[object, int]],
    ) -> None:
        self.rows = rows
        self.cols = cols
        self.over = over
        self.field = field
        self.entries = dict(entries)

    def composes_to_zero(self, other: "SalvettiBoundary") -> bool:
        """True when the group-ring product self * other is zero.

        Each product entry is a sum of sign * sign' * (u - 1)(v - 1) over
        ordered vertex pairs (u, v).  Modulo the relations uv = vu for u = v
        or u, v adjacent these products are linearly independent (the word
        uv is the only length-two term of each), so the product vanishes
        exactly when the signs cancel in the field within every pair class.
        """
        if self.cols != other.rows:
            raise ValueError("cannot compose Salvetti boundaries")
        L = self.over.complex
        by_row: dict[int, list[tuple[int, tuple[object, int]]]] = {}
        for (r, c), e in other.entries.items():
            by_row.setdefault(r, []).append((c, e))
        sums: dict[tuple, int] = {}
        for (r, k), (u, s) in self.entries.items():
            for c, (v, t) in by_row.get(k, ()):
                a, b = u, v
                if a != b and L.adjacent(a, b) and L.index(a) > L.index(b):
                    a, b = b, a
                key = (r, c, a, b)
                sums[key] = sums.get(key, 0) + s * t
        return all(self.field.of(total) == 0 for total in sums.values())

    def __repr__(self) -> str:
        return f"SalvettiBoundary({self.rows}x{self.cols}, nnz={len(self.entries)})"


def salvetti_boundary(A: Raag, k: int, field: FieldSpec) -> SalvettiBoundary:
    """Degree-k boundary of the Salvetti chain complex, over the group ring.

    Rows are indexed by the (k-2)-simplices of the defining complex and
    columns by its (k-1)-simplices, both in lexicographic order.
    """
    L = A.complex
    if not 0 <= k <= L.dim + 2:
        raise ValueError(f"degree {k} out of range")
    rows = L.masks_of_dim(k - 2) if k >= 1 else []
    cols = L.masks_of_dim(k - 1)
    row_pos = {f: i for i, f in enumerate(rows)}
    entries = {}
    for j, s in enumerate(cols):
        for i, bit in enumerate(mask_bits(s)):  # i is 0-based; the sign is (-1)^i
            entries[(row_pos[s ^ bit], j)] = (L.vertices[bit.bit_length() - 1], (-1) ** i)
    return SalvettiBoundary(len(rows), len(cols), A, field, entries)


class FiniteQuotient:
    """A finite permutation action of the RAAG generators on {0..N-1}.

    Each generator acts by a bijection; the actions of adjacent vertices
    must commute so the RAAG relators hold in the quotient.  An explicit
    quotient is given its permutations, which are validated here.  An
    abelian quotient (see `abelian_quotient`) is given ``moduli`` instead,
    n_v per vertex, and ``action`` builds its regular action on each read;
    ``moduli`` is None for explicit quotients.
    """

    __slots__ = ("over", "order", "moduli", "_perms")

    def __init__(
        self, over: Raag, order: int, action: Optional[Mapping[object, Sequence[int]]] = None,
        *, moduli: Optional[Mapping[object, int]] = None,
    ) -> None:
        if order < 1:
            raise ValueError("quotient order must be >= 1")
        self.over = over
        self.order = order
        self.moduli = None if moduli is None else dict(moduli)
        if moduli is not None:
            if prod(moduli.values()) != order:
                raise ValueError("the moduli of an abelian quotient must multiply to its order")
            self._perms = None
            return
        perms: dict[object, tuple[int, ...]] = {}
        for v in over.generators:
            if v not in action:
                raise ValueError(f"generator {v!r} missing from the action")
            p = tuple(action[v])
            if len(p) != order or sorted(p) != list(range(order)):
                raise ValueError(f"action of {v!r} is not a permutation of 0..{order - 1}")
            perms[v] = p
        for u, v in over.complex.faces_of_dim(1):
            pu, pv = perms[u], perms[v]
            if any(pu[pv[x]] != pv[pu[x]] for x in range(order)):
                raise ValueError(f"actions of adjacent generators {u!r}, {v!r} do not commute")
        self._perms = perms

    @property
    def action(self) -> dict[object, tuple[int, ...]]:
        """Generator -> permutation; for an abelian quotient, built anew on each read."""
        if self._perms is not None:
            return self._perms
        perms, stride = {}, 1
        for v in self.over.generators:
            nv = self.moduli[v]
            # x + stride steps digit v of x up by one, wrapping at n_v
            perms[v] = tuple(
                x + stride if (x // stride) % nv != nv - 1 else x - stride * (nv - 1)
                for x in range(self.order)
            )
            stride *= nv
        return perms

    @property
    def orbit_count(self) -> int:
        if self.moduli is not None:  # the regular action of a group is transitive
            return 1
        # each orbit's tree in the spanning forest has one 1-cell fewer than points
        return self.order - len(self._spanning_forest())

    def _spanning_forest(self) -> list[int]:
        """The 1-cells of a spanning forest of the Schreier graph, as rows of the specialised d_2.

        The Schreier graph joins each point x to P_v x by the 1-cell (v, x),
        which is row i * N + x of the specialised d_2 when v is vertex i.
        It walks the graph from each point not yet reached, by forward
        images only (each inverse is a power of its permutation), and adds
        (v, x) whenever it first reaches P_v x from x, so the forest has
        N - #orbits 1-cells.
        Generators with the most neighbours are tried first, since row i of
        d_2 has an entry for each edge at vertex i; ties go in vertex order.
        """
        L, N = self.over.complex, self.order
        action = self.action
        order = sorted(L.vertices, key=lambda v: L.common_neighbours((v,)).bit_count(), reverse=True)
        perms = [(L.index(v) * N, action[v]) for v in order]
        seen = [False] * N
        forest = []
        for start in range(N):
            if seen[start]:
                continue
            seen[start] = True
            stack = [start]
            while stack:
                x = stack.pop()
                for base, p in perms:
                    y = p[x]
                    if not seen[y]:
                        seen[y] = True
                        stack.append(y)
                        forest.append(base + x)
        return forest

    @property
    def transitive(self) -> bool:
        return self.orbit_count == 1

    def to_json_dict(self) -> dict:
        return {
            "type": "explicit",
            "order": self.order,
            "action": {str(v): list(p) for v, p in self.action.items()},
        }

    @classmethod
    def from_json_dict(cls, over: Raag, obj: object) -> "FiniteQuotient":
        """The quotient of ``over`` that an ``abelian`` or ``explicit`` object describes.

        ``{"type": "abelian", "moduli": {label: n}}`` is `abelian_quotient`,
        a vertex left out taking modulus 1.  ``{"type": "explicit", "order":
        N, "action": {label: [perm]}}`` is the form `to_json_dict` writes.
        Vertices are named by their labels' string forms and every number
        is a JSON integer.  Anything else raises ValueError.
        """
        kind = obj.get("type") if isinstance(obj, dict) else None
        K = over.complex
        if kind == "abelian":
            obj = json_object(obj, ("type", "moduli"), "an abelian quotient with only 'type' and 'moduli'")
            return abelian_quotient(over, json_vertex_map(K, obj.get("moduli", {}), "moduli", "modulus", json_int))
        if kind == "explicit":
            what = "an explicit quotient with only 'type', 'order' and 'action'"
            obj = json_object(obj, ("type", "order", "action"), what)
            order = json_int(obj.get("order"), "order")
            return cls(over, order, json_vertex_map(K, obj.get("action", {}), "action", "action", _json_ints))
        raise ValueError("expected a quotient object whose 'type' is 'abelian' or 'explicit'")

    def __repr__(self) -> str:
        return f"FiniteQuotient(order={self.order}, transitive={self.transitive})"


def _json_ints(value: object, where: str) -> list[int]:
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list")
    return [json_int(x, where) for x in value]


def abelian_quotient(A: Raag, moduli: Mapping[object, int]) -> FiniteQuotient:
    """The quotient onto the direct sum of Z/n_v, acting regularly on itself.

    Vertices absent from ``moduli`` get modulus 1.  The order is the
    product of the moduli and the action is transitive.  The quotient
    stores the moduli, which is what `cover_betti` reads, and builds its
    permutations only when its ``action`` is read.
    """
    n = {v: int(moduli.get(v, 1)) for v in A.generators}
    if any(nv < 1 for nv in n.values()):
        raise ValueError("moduli must be >= 1")
    for v in moduli:
        if v not in n:
            raise ValueError(f"modulus given for unknown vertex {v!r}")
    return FiniteQuotient(A, prod(n.values()), moduli=n)


def specialize(m: SalvettiBoundary, q: FiniteQuotient) -> ExactMatrix:
    """Replace each entry sign * (v - 1) by the N x N block sign * (P_v - I).

    This is a ring homomorphism on entries, so chain complexes stay chain
    complexes and the result computes the homology of the degree-N cover.
    Columns x fixed by P_v contribute nothing to the block.
    """
    if q.over != m.over:
        raise ValueError("quotient is for a different group")
    N = q.order
    action = q.action
    out = ExactMatrix(m.rows * N, m.cols * N, m.field)
    entries = out.entries  # every entry is in bounds and a unit, written already reduced
    unit = {s: m.field.of(s) for s in (1, -1)}
    for (i, j), (v, sign) in m.entries.items():
        perm = action[v]
        base_r, base_c = i * N, j * N
        plus, minus = unit[sign], unit[-sign]
        for x, y in enumerate(perm):
            if y != x:
                entries[(base_r + y, base_c + x)] = plus
                entries[(base_r + x, base_c + x)] = minus
    return out


class CoverHomologyReport(Record):
    """Betti numbers of one finite cover together with their N-normalisations; immutable."""

    __slots__ = ("order", "betti", "normalized")

    def __init__(self, order: int, betti: tuple[int, ...], normalized: tuple[Fraction, ...]) -> None:
        if any(b < 0 for b in betti):
            raise ValueError("negative Betti number")
        if any(Fraction(b, order) != q for b, q in zip(betti, normalized)):
            raise ValueError("normalised values must equal betti/order exactly")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "normalized", normalized)

    def to_json_dict(self) -> dict:
        return {
            "N": self.order,
            "betti": list(self.betti),
            "normalized": [f"{q.numerator}/{q.denominator}" for q in self.normalized],
        }


def _character_sum_betti(
    L: SimplicialComplex, moduli: Mapping[object, int], field: FieldSpec
) -> list[int]:
    """Betti numbers of the abelian cover with moduli n_v, by characters.

    Over a field F whose characteristic does not divide N = prod n_v,
    F[sum Z/n_v] splits (after extending F) into characters chi; the
    Salvetti complex twisted by chi only removes the living vertices
    W = {v : chi(v) != 1}, and after a rescaling it splits over the dead
    faces s (the empty face included) into augmented chains of the living
    links L[W & CN(s)], shifted by |s|, where CN(s) is the set of common
    neighbours of s (L is flag).  The prod_{v in W} (n_v - 1) characters
    with living set W all contribute the same, so

        b_k = sum_W prod_{v in W} (n_v - 1) * sum_s b~_{k-1-|s|}(L[W & CN(s)]).

    The same formula holds when char F = p divides N.  Write n_v = q_v m_v
    with q_v a power of p and p prime to m_v.  Over the algebraic closure,
    F[sum Z/n_v] is the sum over the characters chi of sum Z/m_v of copies
    of F[P], P = sum Z/q_v, F[P] = F[x_v]/(x_v^q_v), with t_v acting as
    chi(v)(1 + x_v).  Where chi(v) != 1 the entry chi(v)(1 + x_v) - 1 is a
    unit and rescales to 1; where chi(v) = 1 it is x_v.  Grading each
    dead v by deg x_v = e_v, with the cell s in degree sum_{v in s dead}
    e_v, makes the differential homogeneous.  In multidegree d, with
    T = {v : d_v = q_v} and I = {v : 0 < d_v < q_v}, only cells containing
    T survive, and the graded piece is the augmented chain complex of
    L[CN(T) & (W | I)] shifted by |T|, with multiplicity prod_{v in W} q_v.
    Per vertex, the living or interior choices number
    (m_v - 1) q_v + (q_v - 1) = n_v - 1, so the sum is the one above;
    extending F does not change the Betti numbers of a full subcomplex.

    Summed over the faces first: a vertex v outside s and CN(s) leaves the
    link L[W & CN(s)] as it is, and its n_v - 1 living choices and its dead
    one add up to n_v.  So with U = W & CN(s),

        b_k = sum_s prod_{v not in s | CN(s)} n_v
                  * sum_{U in CN(s), n_u > 1} prod_{u in U} (n_u - 1) * b~_{k-1-|s|}(L[U]),

    which reads sum_s 2^|CN(s)| links in place of |faces| * 2^|V|.  The
    inner sum depends on s only through the mask of CN(s) among the living
    vertices, so faces with one mask share it.  Each link is read from its
    mask's core, which has the same homology (`reduced_betti_on`): a core
    with no triangle from its vertex, edge and component counts, any other
    from its subcomplex, so links with one core share one elimination.
    """
    n = [moduli[v] for v in L.vertices]
    living = L.mask(v for v, nv in zip(L.vertices, n) if nv > 1)
    inner: dict[int, list[int]] = {}  # CN(s) & living -> index i holds the sum of the b~_{i-1}
    betti = [0] * (L.dim + 2)
    for s, cn in L.cn_masks().items():
        key = cn & living
        sums = inner.get(key)
        if sums is None:
            sums = inner[key] = [0] * (L.dim + 2)
            subsets = [(0, 1)]  # (mask of U, prod_{u in U} (n_u - 1)), over the submasks of key
            rest = key
            while rest:
                bit = rest & -rest
                rest ^= bit
                subsets += [(u | bit, c * (n[bit.bit_length() - 1] - 1)) for u, c in subsets]
            for u, count in subsets:
                for i, b in enumerate(reduced_betti_on(L, u, field).reduced_betti):
                    sums[i] += count * b
        outside = ~(cn | s)
        weight = prod(nv for i, nv in enumerate(n) if outside >> i & 1)
        for i, b in enumerate(sums):
            if b:  # b sums the b~_{i-1}
                betti[s.bit_count() + i] += weight * b
    return betti


def _check_betti(betti: Sequence[int], cells: Sequence[int], N: int) -> None:
    """Raise ArithmeticError unless the Betti numbers fit the boundary shapes.

    They fix the boundary ranks r_0 = 0, r_{k+1} = cells_k * N - b_k - r_k.
    Each rank must fit its matrix and the top equation must close with
    r_{top+1} = 0, which is chi(cover) = N * chi(Salvetti); a failure is a
    bug in the Betti numbers and raises rather than being corrected.
    """
    r = 0
    for k, b in enumerate(betti):
        r = cells[k] * N - b - r
        limit = min(cells[k], cells[k + 1]) * N if k + 1 < len(cells) else 0
        if not 0 <= r <= limit:
            raise ArithmeticError(f"rank of d_{k + 1} would be {r}, outside [0, {limit}]")


def cover_betti(A: Raag, q: FiniteQuotient, field: FieldSpec) -> CoverHomologyReport:
    """Betti numbers of the finite cover determined by a quotient.

    In degree k the answer is (#k-cells) * N - rank d_k - rank d_{k+1};
    degree 0 comes out as the number of orbits of the action.  There are
    two computations, chosen by the kind of quotient alone:

    * an abelian quotient from `abelian_quotient`, over every field: the
      Betti numbers are a character sum over living links, summed face
      by face (`_character_sum_betti`), checked against each boundary's
      shape and the Euler characteristic (ArithmeticError on a mismatch);
    * an explicit quotient: rank d_1 is N - #orbits over every field,
      since the image of d_1 is spanned by the Schreier-graph edges
      e_{v.x} - e_x and H_0 of a permutation module is free on its orbits
      (Shapiro's lemma).  Each boundary of degree 2 and up is specialised
      to an N-fold block matrix and eliminated, so a 0-dimensional
      complex (a free group) eliminates nothing.  The N - #orbits rows
      of d_2 that are 1-cells of a spanning forest of the Schreier graph
      are cleared first (`FiniteQuotient._spanning_forest`).  The graph
      is walked once, for the forest, which also gives rank d_1.

    Clearing keeps rank d_2 over every field.  The forest's fundamental
    cycles are a basis of ker d_1, so ker d_1 is a direct summand of C_1
    that dropping the forest coordinates maps isomorphically onto the
    coordinates left; im d_2 lies in ker d_1.
    """
    if q.over != A:
        raise ValueError("quotient is for a different group")
    L = A.complex
    N = q.order
    top = L.dim + 1
    cells = [L.n_faces(k - 1) for k in range(top + 1)]
    if q.moduli is not None:
        betti = _character_sum_betti(L, q.moduli, field)
        _check_betti(betti, cells, N)
    else:
        forest = set(q._spanning_forest())
        ranks = [0] * (top + 2)
        ranks[1] = len(forest)  # N - #orbits
        for k in range(2, top + 1):
            m = specialize(salvetti_boundary(A, k, field), q)
            if k == 2:  # clear the rows of a spanning forest, which keeps the rank
                m.entries = {rc: v for rc, v in m.entries.items() if rc[0] not in forest}
            ranks[k] = rank(m)
        betti = [cells[k] * N - ranks[k] - ranks[k + 1] for k in range(top + 1)]
    return CoverHomologyReport(
        order=N,
        betti=tuple(betti),
        normalized=tuple(Fraction(b, N) for b in betti),
    )


def check_gradient_chain(chain: Sequence[FiniteQuotient], degree: int) -> None:
    """Raise ValueError unless degree >= 0 and the orders never decrease."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    orders = [q.order for q in chain]
    if any(orders[i] > orders[i + 1] for i in range(len(orders) - 1)):
        raise ValueError("quotient orders must be nondecreasing")


def gradient_sequence(
    A: Raag, chain: Sequence[FiniteQuotient], field: FieldSpec, degree: int
) -> list[Fraction]:
    """Normalised Betti numbers b_k/N along a chain of quotients.

    The values are reported raw; no convergence judgement is made.  Each
    quotient's cover is computed afresh by `cover_betti`.
    """
    check_gradient_chain(chain, degree)
    out = []
    for q in chain:
        report = cover_betti(A, q, field)
        out.append(report.normalized[degree] if degree < len(report.betti) else Fraction(0))
    return out


def dfg_betti_raag(A: Raag, field: FieldSpec, degree: int) -> int:
    """Closed-form skew-field Betti number of a RAAG: b~_{k-1} of its complex.

    This is the common value of the normalised Betti numbers of finite
    covers in the limit, and a lower bound for every individual cover.
    """
    return reduced_betti(A.complex, field).betti(degree - 1)


def graph_product_betti(K: SimplicialComplex, field: FieldSpec, degree: int) -> int:
    """Closed-form skew-field Betti number of a graph product over K.

    Contract: the caller asserts that every factor group is acyclic over
    the coefficient skew field (true e.g. for infinite amenable factors);
    that hypothesis is not checkable here.  K must be flag (`Raag` raises
    ValueError otherwise), and the value is that of the RAAG on K.
    """
    return dfg_betti_raag(Raag(K), field, degree)
