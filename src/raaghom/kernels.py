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
  returning the bounding witness chain;
* ``torsion_term`` and ``mve_positive_criterion`` evaluate the integral
  link homology expressions used for torsion growth and minimal volume
  entropy positivity.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping, Optional

from .complexes import (
    ChainVector,
    Face,
    SimplicialComplex,
    boundary_matrix,
    chain_boundary,
    integral_homology,
    is_n_acyclic_on,
    json_int,
    json_object,
    json_vertex_map,
    lex_order,
    oriented_face,
    reduced_betti,
)
from .exact import FieldSpec, Scalar, solve


class PreconditionError(ValueError):
    """A documented hypothesis of an operation does not hold."""


class InconsistencyError(RuntimeError):
    """An internal solve failed that the finiteness hypothesis guarantees.

    Raised instead of silently patching the computation: it means the
    claimed FP level and the complex disagree (or there is a bug).
    """


class Character:
    """An integer vertex labelling, i.e. a homomorphism from the RAAG to Z."""

    __slots__ = ("complex", "values")

    def __init__(self, complex: SimplicialComplex, values: Mapping[object, int]) -> None:
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


class LivingDeadPartition:
    """The full subcomplexes on the living and on the dead vertices; immutable."""

    __slots__ = ("living", "dead")

    def __init__(self, living: SimplicialComplex, dead: SimplicialComplex) -> None:
        object.__setattr__(self, "living", living)
        object.__setattr__(self, "dead", dead)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


def partition(L: SimplicialComplex, phi: Character) -> LivingDeadPartition:
    """Full subcomplexes spanned by the living and by the dead vertices."""
    if phi.complex != L:
        raise ValueError("character is not defined on this complex")
    return LivingDeadPartition(
        living=L.full_subcomplex(phi.living_vertices()),
        dead=L.full_subcomplex(phi.dead_vertices()),
    )


def living_link(L: SimplicialComplex, phi: Character, simplex: Iterable) -> SimplicialComplex:
    """Full subcomplex of the link of a face spanned by living vertices."""
    lk = L.link(simplex)
    return lk.full_subcomplex([v for v in lk.vertices if phi(v) != 0])


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
    if phi.complex != L:
        raise ValueError("character is not defined on this complex")
    if not L.is_flag():
        raise ValueError("finiteness checking needs a flag complex")
    return living_set_violation(L, L.mask(phi.living_vertices()), n, field)


def living_set_violation(
    L: SimplicialComplex, living: int, n: int, field: FieldSpec
) -> Optional[Face]:
    """``fpn_violation`` for every character whose living vertices form a mask.

    L being flag, the living link of a dead simplex s of dimension k is the
    full subcomplex on CN(s) & living, and it must be (n - k - 1)-acyclic;
    the living part itself, for the empty simplex, (n - 1)-acyclic.  Each
    test is `is_n_acyclic_on` that mask: degrees -1 and 0 are read from the
    mask alone (nonempty, connected), higher degrees from the subcomplex on
    the mask's core.  Dead simplices of dimension above n impose vacuous
    conditions, and L has none above its dimension, so the scan stops at
    the smaller.  Each face's CN mask is listed once per complex
    (`cn_masks`).  L must be flag: the searches check that once, and
    `fpn_violation` on each call.
    """
    if not is_n_acyclic_on(L, living, n - 1, field):
        return ()
    cn = L.cn_masks()
    for k in range(0, min(n, L.dim) + 1):
        for s in L.masks_of_dim(k):
            if not s & living and not is_n_acyclic_on(L, cn[s] & living, n - k - 1, field):
                return L.labels(s)
    return None


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
    switched off (useful for formula-level experiments).
    """
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
            total += w * reduced_betti(L.link((v,)), field).betti(m - 1)
    return total


# ---------------------------------------------------------------------------
# Constructive cycle pushing
# ---------------------------------------------------------------------------


class PushResult:
    """Output of ``push_cycle_to_living``: z' and w with z - z' = dw; immutable."""

    __slots__ = ("cycle", "witness")

    def __init__(self, cycle: ChainVector, witness: ChainVector) -> None:
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "witness", witness)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


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
    parts assemble into an (m-1)-cycle in the living link of {v} u lam,
    which the FP hypothesis lets us fill.  Every stage fills by one
    `solve` on the augmented degree-m boundary of that living link; at
    m = 0 the cycle is a multiple of the empty face, and the solve cones
    it off the least living vertex.  Subtracting the boundary of lam
    joined with the filling raises the living count.  Dead faces are
    processed lexicographically; fillings are whatever `solve` returns.

    Returns (z', w) with z' supported in the living link of v, dz' = 0 and
    z - z' = dw exactly.  Raises InconsistencyError when a filling that
    the FP hypothesis promises does not exist.
    """
    field = z.field
    if phi.complex != L:
        raise ValueError("character is not defined on this complex")
    if phi(v) != 0:
        raise PreconditionError(f"vertex {v!r} is living; pushing applies to dead vertices")
    if z.degree != n - 1:
        raise PreconditionError(f"expected a degree-{n - 1} chain, got degree {z.degree}")
    lk = L.link((v,))
    if not z.supported_in(lk):
        raise PreconditionError("cycle is not supported in the link of v")
    if not chain_boundary(z).is_zero():
        raise PreconditionError("input chain is not a cycle")
    if enforce_fpn:
        bad = fpn_violation(L, phi, n, field)
        if bad is not None:
            raise PreconditionError(
                f"kernel is not FP_{n} over {field.token()} (dead simplex {bad!r})"
            )

    def add_term(acc: dict, face: Face, coef: Scalar) -> None:
        new = field.add(acc.get(face, field.zero), coef)
        if new == 0:
            acc.pop(face, None)
        else:
            acc[face] = new

    def subtract_boundary(acc: dict, n_face_seq: tuple, coef: Scalar) -> None:
        """acc -= coef * d(oriented n_face_seq), skipping the augmentation."""
        face, sign = oriented_face(n_face_seq, L)
        total = field.mul(coef, field.of(sign))
        for i in range(len(face)):
            sub = face[:i] + face[i + 1 :]
            if not sub:
                continue
            term = field.mul(total, field.of((-1) ** i))
            add_term(acc, sub, field.neg(term))

    current: dict[Face, Scalar] = dict(z.coefficients)
    witness: dict[Face, Scalar] = {}
    living = L.mask(phi.living_vertices())
    order = lex_order(len(L.vertices))

    for m in range(0, n):
        while True:
            groups: dict[int, list[Face]] = {}  # by the mask of the dead part
            for face in current:
                f = L.mask(face)
                if (f & living).bit_count() == m:
                    groups.setdefault(f & ~living, []).append(face)
            if not groups:
                break
            # every dead part has n - m vertices, so lex_order applies
            lam_mask = min(groups, key=order)
            lam = L.labels(lam_mask)
            # the support simplices containing lam; peel off lam and fill
            # the living (m-1)-cycle that remains, augmented when m = 0
            cone = living_link(L, phi, (v,) + lam)
            row_pos = {f: i for i, f in enumerate(cone.faces_of_dim(m - 1))}
            rhs = [field.zero] * len(row_pos)
            for s in groups[lam_mask]:
                tau = tuple(u for u in s if phi(u) != 0)
                _, eps = oriented_face(lam + tau, L)
                i = row_pos[tau]
                rhs[i] = field.add(rhs[i], field.mul(current[s], field.of(eps)))
            d_m = boundary_matrix(cone, m).over_field(field)
            psi = solve(d_m, rhs)
            if psi is None:
                raise InconsistencyError(
                    f"no filling of the living cycle in the link of {(v,) + lam!r}; "
                    f"FP_{n} over {field.token()} must fail"
                )
            sign_nm = field.of((-1) ** (n - m))
            for sigma, c in zip(cone.faces_of_dim(m), psi):
                if c == 0:
                    continue
                seq = lam + sigma
                face, sgn = oriented_face(seq, L)
                coef = field.mul(sign_nm, field.mul(c, field.of(sgn)))
                add_term(witness, face, coef)
                subtract_boundary(current, seq, field.mul(sign_nm, c))

    return PushResult(
        cycle=ChainVector(n - 1, field, current),
        witness=ChainVector(n, field, witness),
    )


# ---------------------------------------------------------------------------
# Integral link invariants
# ---------------------------------------------------------------------------


def torsion_contributions(L: SimplicialComplex, phi: Character, p: int) -> dict:
    """Per-vertex terms |phi(v)| * |tors H_{p-1}(lk(v); Z)| (dead ones are 0)."""
    out = {}
    for v in L.vertices:
        w = abs(phi(v))
        if w == 0:
            out[v] = 0
            continue
        _, torsion = integral_homology(L.link((v,)), p - 1)
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
    for v in L.vertices:
        if phi(v) == 0:
            continue
        betti, torsion = integral_homology(L.link((v,)), p - 1)
        if betti or torsion:
            return True
    return False
