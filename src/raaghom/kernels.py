"""Artin kernels: characters, finiteness checking, and kernel invariants.

An integer labelling of the vertices of a flag complex L induces a map
from the RAAG on L onto Z; its kernel is the corresponding Artin kernel
(the Bestvina-Brady group when every label is 1).  Vertices with nonzero
label are *living*, the others *dead*, and everything about the kernel
computed here is read off from the living/dead structure:

* ``is_fpn`` decides homological finiteness FP_n over a field by testing
  acyclicity of living links of dead simplices;
* ``kernel_betti`` evaluates the closed-form kernel Betti numbers
  sum_v |phi(v)| * b~_{m-1}(lk(v));
* ``push_cycle_to_living`` constructively rewrites a cycle in the link of
  a dead vertex into a homologous cycle supported on living vertices,
  returning the bounding witness chain; it works on L's face masks and
  reads labels only at its two ends;
* ``torsion_term`` and ``mve_positive_criterion`` evaluate the integral
  link homology expressions used for torsion growth and minimal volume
  entropy positivity.

``living_link`` is the definition, the full subcomplex of lk(s) on the
living vertices; the computations above read the links they need from
L's masks instead of building it.

A `Character` exists only on a flag complex, and every function here that
takes a complex L with a character phi first checks that phi is a
character of L, so L is flag wherever a link is read.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .complexes import (
    ChainVector,
    Face,
    SimplicialComplex,
    _boundary,
    chain_boundary,
    integral_homology,
    is_n_acyclic_on,
    json_int,
    json_object,
    json_vertex_map,
    link_core,
    mask_bits,
    reduced_betti_on,
)
from .exact import FieldSpec, Record, Scalar, solve


class PreconditionError(ValueError):
    """A documented hypothesis of an operation does not hold."""


class InconsistencyError(RuntimeError):
    """An internal solve failed that the finiteness hypothesis guarantees.

    Raised instead of silently patching the computation: it means the
    claimed FP level and the complex disagree (or there is a bug).
    """


class Character:
    """An integer vertex labelling of a flag complex, i.e. a homomorphism from the RAAG to Z."""

    __slots__ = ("complex", "values")

    def __init__(self, complex: SimplicialComplex, values: Mapping[object, int]) -> None:
        if not complex.is_flag():
            raise ValueError("a character needs a flag complex")
        vals = {}
        for v in complex.vertices:
            if v not in values:
                raise ValueError(f"character undefined on vertex {v!r}")
            vals[v] = int(values[v])
        for v in values:
            if v not in vals:
                raise ValueError(f"character value for unknown vertex {v!r}")
        if all(x == 0 for x in vals.values()):
            raise ValueError("character must be nonzero somewhere")
        self.complex = complex
        self.values = vals

    def __call__(self, v) -> int:
        return self.values[v]

    @property
    def is_surjective(self) -> bool:
        """True when the nonzero values have gcd 1, i.e. the image is all of Z."""
        g = 0
        for x in self.values.values():
            g = gcd(g, abs(x))
        return g == 1

    def living_vertices(self) -> list:
        return [v for v in self.complex.vertices if self.values[v] != 0]

    def dead_vertices(self) -> list:
        return [v for v in self.complex.vertices if self.values[v] == 0]

    def negate(self) -> "Character":
        return Character(self.complex, {v: -x for v, x in self.values.items()})

    def scale(self, c: int) -> "Character":
        if c == 0:
            raise ValueError("scaling a character by 0")
        return Character(self.complex, {v: c * x for v, x in self.values.items()})

    def value_tuple(self) -> tuple[int, ...]:
        return tuple(self.values[v] for v in self.complex.vertices)

    def to_json_dict(self) -> dict:
        return {"phi": {str(v): self.values[v] for v in self.complex.vertices}}

    @classmethod
    def from_json_dict(cls, K: SimplicialComplex, obj: object) -> "Character":
        """The character on K that a ``{"phi": {label: int}}`` object gives, as `to_json_dict` writes it.

        Vertices are named by their labels' string forms and every vertex
        takes a JSON integer.  Anything else raises ValueError.
        """
        obj = json_object(obj, ("phi",), "an object with only a 'phi' mapping")
        return cls(K, json_vertex_map(K, obj.get("phi"), "phi", "phi", json_int))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        return self.complex == other.complex and self.values == other.values

    def __repr__(self) -> str:
        return f"Character({self.value_tuple()})"


class LivingDeadPartition(Record):
    """The full subcomplexes on the living and on the dead vertices; immutable."""

    __slots__ = ("living", "dead")

    def __init__(self, living: SimplicialComplex, dead: SimplicialComplex) -> None:
        object.__setattr__(self, "living", living)
        object.__setattr__(self, "dead", dead)


def _check_pair(L: SimplicialComplex, phi: Character) -> None:
    """Raise ValueError unless phi is a character of L, which makes L flag."""
    if phi.complex != L:
        raise ValueError("character is not defined on this complex")


def partition(L: SimplicialComplex, phi: Character) -> LivingDeadPartition:
    """Full subcomplexes spanned by the living and by the dead vertices."""
    _check_pair(L, phi)
    return LivingDeadPartition(
        living=L.full_subcomplex(phi.living_vertices()),
        dead=L.full_subcomplex(phi.dead_vertices()),
    )


def living_link(L: SimplicialComplex, phi: Character, simplex: Iterable) -> SimplicialComplex:
    """The full subcomplex of the link of a face spanned by its living vertices."""
    _check_pair(L, phi)
    return L.link(simplex).full_subcomplex(phi.living_vertices())


def is_fpn(L: SimplicialComplex, phi: Character, n: int, field: FieldSpec) -> bool:
    """Homological finiteness FP_n of the kernel, decided inside L.

    The kernel is FP_n over the field iff the living part of L is
    (n-1)-acyclic and for every nonempty dead simplex s the living part of
    lk(s) is (n - dim s - 1)-acyclic.
    """
    return fpn_violation(L, phi, n, field) is None


def fpn_violation(
    L: SimplicialComplex, phi: Character, n: int, field: FieldSpec
) -> Optional[Face]:
    """The first dead simplex witnessing failure of FP_n, or None.

    The empty simplex stands for the condition on the living part itself.
    Dead simplices are scanned by dimension, then lexicographically.
    """
    _check_pair(L, phi)
    return living_set_violation(L, L.mask(phi.living_vertices()), n, field)


def living_set_violation(
    L: SimplicialComplex, living: int, n: int, field: FieldSpec
) -> Optional[Face]:
    """``fpn_violation`` for every character whose living vertices form a mask.

    L being flag, the living link of a dead simplex s of dimension k is the
    full subcomplex on CN(s) & living, and it must be (n - k - 1)-acyclic;
    the living part itself, for the empty simplex, (n - 1)-acyclic.  Each
    test is `is_n_acyclic_on` that mask: degrees -1 and 0 are read from the
    mask alone (nonempty, connected), higher degrees from the mask's core,
    a triangle-free core from its vertex, edge and component counts and any
    other from its subcomplex.  Dead simplices of dimension above n impose
    vacuous conditions, and L has none above its dimension, so the scan
    stops at the smaller.  With every vertex living no simplex is dead but
    the empty one, so nothing is scanned; otherwise each face's CN mask is
    listed once per complex (`cn_masks`).  This tests one living set; the
    searches over all of them sweep `_passing_living_sets`, which runs the
    same scan and reads each verdict once per search.  L must be flag:
    `is_n_acyclic_on` refuses it otherwise.
    """
    return _first_violation(L, living, n, lambda mask, degree: is_n_acyclic_on(L, mask, degree, field))


def _first_violation(
    L: SimplicialComplex, living: int, n: int, acyclic: Callable[[int, int], bool]
) -> Optional[Face]:
    """`living_set_violation` with ``acyclic(mask, degree)`` answering each acyclicity test."""
    if not acyclic(living, n - 1):
        return ()
    if living == (1 << len(L.vertices)) - 1:  # no dead vertex, so no dead simplex but the empty one
        return None
    cn = L.cn_masks()
    for k in range(0, min(n, L.dim) + 1):
        for s in L.masks_of_dim(k):
            if not s & living and not acyclic(cn[s] & living, n - k - 1):
                return L.labels(s)
    return None


def _acyclicity_memo(L: SimplicialComplex, field: FieldSpec) -> Callable[[int, int], bool]:
    """``acyclic(mask, degree)``: `is_n_acyclic_on` over the field, each verdict read once.

    Each (mask, degree) verdict is kept in a dict that lives only as long
    as the returned function.
    """
    verdicts: dict[tuple[int, int], bool] = {}

    def acyclic(mask: int, degree: int) -> bool:
        verdict = verdicts.get((mask, degree))
        if verdict is None:
            verdict = verdicts[mask, degree] = is_n_acyclic_on(L, mask, degree, field)
        return verdict

    return acyclic


def _passing_living_sets(
    L: SimplicialComplex, n: int, acyclic: Callable[[int, int], bool]
) -> Iterator[int]:
    """The nonempty living masks with no FP_n violation, in increasing order.

    Living sets share their tests: the living link of a dead simplex is
    the same mask for every living set that agrees on its common
    neighbours.  So the searches pass ``acyclic`` from `_acyclicity_memo`,
    which reads each verdict once, and a search that makes tests of its
    own asks them of the same function.
    """
    for living in range(1, 1 << len(L.vertices)):
        if _first_violation(L, living, n, acyclic) is None:
            yield living


def kernel_betti(
    L: SimplicialComplex,
    phi: Character,
    m: int,
    field: FieldSpec,
    *,
    enforce: bool = True,
) -> int:
    """Kernel Betti number sum_v |phi(v)| * b~_{m-1}(lk(v); field).

    The closed form is valid when the kernel is FP_m over the field and
    the character is surjective; both are checked unless ``enforce`` is
    switched off (useful for formula-level experiments).  L is flag, so
    lk(v) is the full subcomplex on CN(v), read by `reduced_betti_on`.
    """
    _check_pair(L, phi)
    if enforce:
        if not phi.is_surjective:
            raise PreconditionError("character is not surjective (gcd of values != 1)")
        bad = fpn_violation(L, phi, m, field)
        if bad is not None:
            if bad == ():
                detail = f"the living part is not {m - 1}-acyclic"
            else:
                detail = (
                    f"living link of dead simplex {bad!r} is not "
                    f"{m - len(bad)}-acyclic"
                )
            raise PreconditionError(f"kernel is not FP_{m} over {field.token()}: {detail}")
    total = 0
    for v in L.vertices:
        w = abs(phi(v))
        if w:
            total += w * reduced_betti_on(L, L.common_neighbours((v,)), field).betti(m - 1)
    return total


# ---------------------------------------------------------------------------
# Constructive cycle pushing
# ---------------------------------------------------------------------------


class PushResult(Record):
    """Output of ``push_cycle_to_living``: z' and w with z - z' = dw; immutable."""

    __slots__ = ("cycle", "witness")

    def __init__(self, cycle: ChainVector, witness: ChainVector) -> None:
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "witness", witness)


def push_cycle_to_living(
    L: SimplicialComplex,
    phi: Character,
    v,
    z: ChainVector,
    n: int,
    *,
    enforce_fpn: bool = True,
) -> PushResult:
    """Rewrite an (n-1)-cycle in lk(v), v dead, into the living link.

    Follows the inductive rewriting that proves the statement: at stage m,
    every support simplex with exactly m living vertices shares its dead
    face lam with the other support simplices containing lam; their living
    parts assemble into an (m-1)-cycle in the living link of s = {v} u lam,
    which the FP hypothesis lets us fill.  Every stage fills by one
    `solve` on the augmented degree-m boundary of that living link; at
    m = 0 the cycle is a multiple of the empty face, and the solve cones
    it off the least living vertex.  Subtracting the boundary of lam
    joined with the filling raises the living count.  That changes only
    lam's own faces of stage m, which cancel, and faces of stage m + 1, so
    the dead parts of a stage are taken once each, and their order cannot
    change the answer; fillings are whatever `solve` returns.

    The working cycle and the witness are kept by L's face masks.  The
    faces of the living link of s are those t of L with t living (so
    disjoint from s, which is dead) and t u s a face of L, in L's order.
    Written as lam followed by t, the face lam u t has the sign (-1) to the
    number of pairs a in lam, b in t with a after b (`_join_sign`).
    Labels are read only from z and written only into the two chains
    returned.

    Returns (z', w) with z' supported in the living link of v, dz' = 0 and
    z - z' = dw exactly.  Raises InconsistencyError when a filling that
    the FP hypothesis promises does not exist.
    """
    field = z.field
    _check_pair(L, phi)
    if phi(v) != 0:
        raise PreconditionError(f"vertex {v!r} is living; pushing applies to dead vertices")
    if z.degree != n - 1:
        raise PreconditionError(f"expected a degree-{n - 1} chain, got degree {z.degree}")
    v_bit = L.mask((v,))
    current: dict[int, Scalar] = {}
    for f, c in z.coefficients.items():
        # f is a face of lk(v), with its labels in lk(v)'s vertex order, which is L's
        try:
            m = L._face_mask(f)
        except ValueError:
            m = v_bit  # an unknown or repeated label: no face of lk(v)
        if m & v_bit or not L._is_face(m | v_bit) or L.labels(m) != f:
            raise PreconditionError("cycle is not supported in the link of v")
        current[m] = c
    if not chain_boundary(z).is_zero():
        raise PreconditionError("input chain is not a cycle")
    if enforce_fpn:
        bad = fpn_violation(L, phi, n, field)
        if bad is not None:
            raise PreconditionError(
                f"kernel is not FP_{n} over {field.token()} (dead simplex {bad!r})"
            )

    of = field.of
    living = L.mask(phi.living_vertices())
    witness: dict[int, Scalar] = {}

    for m in range(0, n):
        groups: dict[int, list[int]] = {}  # by the dead part
        for f in current:
            if (f & living).bit_count() == m:
                groups.setdefault(f & ~living, []).append(f)
        for lam, faces in groups.items():
            # the support simplices containing lam; peel off lam and fill
            # the living (m-1)-cycle that remains, augmented when m = 0
            s = lam | v_bit
            rows, cols = (
                [t for t in L.masks_of_dim(k) if not t & ~living and L._is_face(t | s)] for k in (m - 1, m)
            )
            row_pos = {t: i for i, t in enumerate(rows)}
            rhs: list[Scalar] = [0] * len(rows)
            for f in faces:
                rhs[row_pos[f & living]] += current[f] * _join_sign(lam, f & living)
            psi = solve(_boundary(rows, cols).over_field(field), rhs)
            if psi is None:
                raise InconsistencyError(
                    f"no filling of the living cycle in the link of {(v,) + L.labels(lam)!r}; "
                    f"FP_{n} over {field.token()} must fail"
                )
            # each face lam u sigma is new to the witness: its dead part and stage are its own
            for sigma, c in zip(cols, psi):
                if c == 0:
                    continue
                face = lam | sigma
                coef = (-1) ** (n - m) * c * _join_sign(lam, sigma)
                witness[face] = of(coef)
                # current -= coef * d(face); face has n + 1 >= 2 vertices, so no facet is empty
                for i, bit in enumerate(mask_bits(face)):
                    new = of(current.get(face ^ bit, 0) - (-1) ** i * coef)
                    if new == 0:
                        current.pop(face ^ bit, None)
                    else:
                        current[face ^ bit] = new

    return PushResult(
        cycle=ChainVector(n - 1, field, {L.labels(f): c for f, c in current.items()}),
        witness=ChainVector(n, field, {L.labels(f): c for f, c in witness.items()}),
    )


def _join_sign(lam: int, sigma: int) -> int:
    """The sign of the face lam u sigma written as lam followed by sigma, two disjoint masks.

    It is (-1) to the number of pairs a in lam, b in sigma with a after b:
    for each bit b of sigma, the bits of lam above b.
    """
    return (-1) ** sum((lam >> bit.bit_length()).bit_count() for bit in mask_bits(sigma))


# ---------------------------------------------------------------------------
# Integral link invariants
# ---------------------------------------------------------------------------


def torsion_contributions(L: SimplicialComplex, phi: Character, p: int) -> dict:
    """Per-vertex terms |phi(v)| * |tors H_{p-1}(lk(v); Z)| (dead ones are 0)."""
    _check_pair(L, phi)
    out = {}
    for v in L.vertices:
        w = abs(phi(v))
        if w == 0:
            out[v] = 0
            continue
        _, torsion = integral_homology(link_core(L, v), p - 1)
        order = 1
        for d in torsion:
            order *= d
        out[v] = w * order
    return out


def torsion_term(L: SimplicialComplex, phi: Character, p: int) -> int:
    """sum_v |phi(v)| * |tors H_{p-1}(lk(v); Z)| over all vertices."""
    return sum(torsion_contributions(L, phi, p).values())


def mve_positive_criterion(L: SimplicialComplex, phi: Character, p: int) -> bool:
    """True when some living vertex has nonvanishing reduced H_{p-1}(lk(v); Z).

    Contract: the conclusion (positive minimal volume entropy of the
    kernel) also needs the kernel to be of homotopy-finite type, which the
    caller must assert; it is not checkable here.
    """
    _check_pair(L, phi)
    for v in L.vertices:
        if phi(v) == 0:
            continue
        betti, torsion = integral_homology(link_core(L, v), p - 1)
        if betti or torsion:
            return True
    return False
