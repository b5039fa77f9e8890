"""Fibring deciders for RAAGs over skew fields, Z, and Z/m.

A RAAG maps onto Z with kernel of type FP_n exactly when the defining
complex is suitably acyclic, so fibring questions reduce to homology of
the complex: over a field F the verdict is vanishing of b~_i(L; F) for
i <= n-1.  Over Z and Z/m, with Z read as modulus 0, it is decided from
reduced integral homology in those degrees: no free part, and no torsion
coefficient sharing a factor with the modulus.  Only gcds are taken, so
m is never factored and a modulus of any size is decided at once.
Virtual fibring and fibring agree for RAAGs, which is what makes these
verdicts complete.

The module also provides the character search behind the deciders, the
"all fibres or none" consistency check, and the per-cover lower-bound
inequality harness.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import Optional, Sequence

from .complexes import SimplicialComplex, integral_homology, reduced_betti
from .exact import FieldSpec, Record
from .kernels import Character, _acyclicity_memo, _passing_living_sets, is_fpn
from .raags import FiniteQuotient, Raag, cover_betti, dfg_betti_raag


class CoefficientRing(Record):
    """A skew field F, the integers (modulus 0), or Z/m for any m >= 2.

    Immutable, and equal and hashed by its kind, field and modulus.
    """

    __slots__ = ("kind", "field", "modulus")

    def __init__(self, kind: str, field: Optional[FieldSpec] = None, modulus: Optional[int] = None) -> None:
        if kind == "field":
            if field is None:
                raise ValueError("field ring needs a FieldSpec")
        elif kind == "Z":
            if modulus != 0:
                raise ValueError("the integers have modulus 0")
        elif kind == "Z/m":
            if modulus is None or modulus < 2:
                raise ValueError("modulus must be >= 2")
        else:
            raise ValueError(f"unknown ring kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "modulus", modulus)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoefficientRing):
            return NotImplemented
        return (self.kind, self.field, self.modulus) == (other.kind, other.field, other.modulus)

    def __hash__(self) -> int:
        return hash((self.kind, self.field, self.modulus))

    @classmethod
    def of_field(cls, field: FieldSpec) -> "CoefficientRing":
        return cls("field", field=field)

    @classmethod
    def integers(cls) -> "CoefficientRing":
        return cls("Z", modulus=0)

    @classmethod
    def integers_mod(cls, m: int) -> "CoefficientRing":
        return cls("Z/m", modulus=m)

    @classmethod
    def from_token(cls, token: str) -> "CoefficientRing":
        """Read "Z", "Z/6" or a field token: only a token that `token` writes back unchanged."""
        if token == "Z":
            return cls.integers()
        if token[:2] != "Z/":
            return cls.of_field(FieldSpec.from_token(token))
        if token[2:].isdecimal():
            ring = cls.integers_mod(int(token[2:]))
            if ring.token() == token:
                return ring
        raise ValueError(f"unknown ring token {token!r}")

    def token(self) -> str:
        if self.kind == "field":
            return self.field.token()
        if self.kind == "Z":
            return "Z"
        return f"Z/{self.modulus}"


class FibringReport(Record):
    """Verdict of a fibring decision, with witnesses or an obstruction; immutable."""

    __slots__ = ("complex", "ring", "level", "verdict", "witnesses", "obstruction_degree")

    def __init__(
        self,
        complex: SimplicialComplex,
        ring: CoefficientRing,
        level: int,
        verdict: bool,
        witnesses: tuple[Character, ...],
        obstruction_degree: Optional[int],
    ) -> None:
        if verdict and obstruction_degree is not None:
            raise ValueError("a positive verdict cannot carry an obstruction")
        if not verdict and obstruction_degree is None:
            raise ValueError("a negative verdict needs an obstruction degree")
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "obstruction_degree", obstruction_degree)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "ring": self.ring.token(),
            "n": self.level,
            "witnesses": [w.to_json_dict()["phi"] for w in self.witnesses],
            "obstruction_degree": self.obstruction_degree,
        }


def _obstruction(L: SimplicialComplex, n: int, ring: CoefficientRing) -> Optional[int]:
    """Least degree m <= n with H~_{m-1}(L; ring) nonzero, or None.

    Over a field F that is b~_{m-1}(L; F) != 0.  Over Z and Z/m it is one
    integral rule: H~_{m-1}(L; Z) has free rank, or a torsion coefficient t
    with gcd(t, modulus) > 1 (every t > 1 for Z, whose modulus is 0).  The
    Tor term of H~_{m-1}(L; Z/m), from the torsion of H~_{m-2}, never
    changes the least degree: a coefficient there sharing a prime p with m
    already makes b~_{m-2}(L; F_p) nonzero, an obstruction at m - 1.
    Degrees above dim L + 1 have nothing to read, so the scan stops there
    however large n is.
    """
    for m in range(0, min(n, L.dim + 1) + 1):
        if ring.kind == "field":
            if reduced_betti(L, ring.field).betti(m - 1):
                return m
        else:
            free, torsion = integral_homology(L, m - 1)
            if free or any(gcd(t, ring.modulus) > 1 for t in torsion):
                return m
    return None


def virtually_fpn_fibred(L: SimplicialComplex, n: int, ring: CoefficientRing) -> FibringReport:
    """Decide whether the RAAG on L (virtually) fibres with an FP_n kernel.

    The verdict is vanishing of reduced homology of L in degrees <= n-1
    over the ring (see `_obstruction`).  When true, the all-ones character
    is returned as a witness, certified by the finiteness checker over
    fields the verdict implies: the field itself for a field ring, and Q
    plus each of F2 and F3 that divides the modulus for Z and Z/m (so Q,
    F2 and F3 for Z).  Levels above dim L + 1 impose no further conditions.
    """
    if not L.is_flag():
        raise ValueError("fibring deciders need a flag complex")
    if n < 0:
        raise ValueError("level must be >= 0")
    obstruction = _obstruction(L, n, ring)
    if obstruction is not None:
        return FibringReport(L, ring, n, False, (), obstruction)

    if ring.kind == "field":
        fields = [ring.field]
    else:
        fields = [FieldSpec.rationals()] + [FieldSpec.prime_field(p) for p in (2, 3) if ring.modulus % p == 0]
    ones = Character(L, {v: 1 for v in L.vertices})
    for f in fields:
        if not is_fpn(L, ones, n, f):
            raise AssertionError(
                "internal inconsistency: vanishing verdict not certified by the "
                f"finiteness checker over {f.token()}"
            )
    return FibringReport(L, ring, n, True, (ones,), None)


def find_characters(
    L: SimplicialComplex, n: int, field: FieldSpec, bound: int
) -> list[tuple[int, ...]]:
    """All surjective characters with entries in [-bound, bound] passing FP_n.

    Returns the value tuples, each listing the character's values in
    ``L.vertices`` order, sorted lexicographically; no `Character` is built.
    FP_n depends only on the living set of a character, so one sweep of
    `_passing_living_sets` visits each nonempty living set once, reading
    each acyclicity verdict once, and all surjective value tuples of every
    passing set are emitted.  A bound below 1, or an L that is not flag
    (`is_n_acyclic_on`), raises ValueError.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    nonzero = tuple(x for x in range(-bound, bound + 1) if x)
    out = []
    for living in _passing_living_sets(L, n, _acyclicity_memo(L, field)):
        choices = [nonzero if living >> i & 1 else (0,) for i in range(len(L.vertices))]
        out.extend(values for values in product(*choices) if gcd(*values) == 1)
    out.sort()
    return out


def fibres_fibre_check(L: SimplicialComplex, n: int, field: FieldSpec, bound: int) -> bool:
    """Do all FP_n fibres of the RAAG on L agree on being acyclic up to n?

    Evaluates the predicate [kernel Betti numbers vanish in degrees <= n]
    on every character found by the bounded search and reports whether the
    answers coincide (vacuously true with fewer than two characters).

    Both the finiteness check and the vanishing predicate depend only on
    the living set of a character, and every nonempty living set is
    realised at any bound >= 1, so the scan is one sweep of
    `_passing_living_sets`, and stops at the second answer.  The vertex
    links' tests and the sweep's ask one `_acyclicity_memo`, so each
    acyclicity verdict is read once: the link of a vertex v is the living
    link of the dead vertex v for every living set holding CN(v).  A bound
    below 1, or an L that is not flag (`is_n_acyclic_on`), raises
    ValueError.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    acyclic = _acyclicity_memo(L, field)
    acyclic_links = 0  # vertices whose link, the full subcomplex on CN(v), is (n-1)-acyclic
    for i, v in enumerate(L.vertices):
        if acyclic(L.common_neighbours((v,)), n - 1):
            acyclic_links |= 1 << i
    verdicts = set()
    for living in _passing_living_sets(L, n, acyclic):
        verdicts.add(not living & ~acyclic_links)
        if len(verdicts) > 1:
            return False
    return True


def kaz_inequality_check(
    A: Raag,
    quotients: Sequence[FiniteQuotient],
    field: FieldSpec,
    max_degree: int,
) -> bool:
    """Closed-form Betti numbers bound normalised cover Betti numbers below.

    Checks dfg_betti_raag(A, field, m) <= b_m(cover)/N for every supplied
    quotient and every degree m <= max_degree.  Both sides vanish above
    dim L + 1, the dimension of the Salvetti complex, so the degrees stop
    there however large max_degree is.
    """
    degrees = range(min(max_degree, A.complex.dim + 1) + 1)
    closed = [dfg_betti_raag(A, field, m) for m in degrees]
    for q in quotients:
        report = cover_betti(A, q, field)
        for m in degrees:
            normalised = report.normalized[m] if m < len(report.betti) else 0
            if closed[m] > normalised:
                return False
    return True


def no_fibring_obstruction(L: SimplicialComplex, n: int, field: FieldSpec) -> Optional[int]:
    """Least degree m <= n with b~_{m-1}(L; field) nonzero, or None.

    A degree returned here certifies that every chain of finite covers has
    positive normalised homology in that degree, blocking virtual fibring
    with an FP_n kernel.
    """
    if not L.is_flag():
        raise ValueError("fibring deciders need a flag complex")
    return _obstruction(L, n, CoefficientRing.of_field(field))
