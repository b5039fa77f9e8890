#!/usr/bin/env python3
"""Fibring decisions for RAAGs over skew fields, Z, and Z/m.

The flag projective plane separates the coefficient rings: its RAAG
virtually fibres with an FP_2 kernel over Q but not over F_2 or Z, and
the obstruction degree pins down where the homology refuses to vanish.
"""

from raaghom import (
    CoefficientRing,
    Raag,
    SimplicialComplex,
    abelian_quotient,
    barycentric_subdivision,
    fibres_fibre_check,
    find_characters,
    flag_completion,
    kaz_inequality_check,
    no_fibring_obstruction,
    virtually_fpn_fibred,
)
from raaghom.exact import F2, QQ

rp2 = barycentric_subdivision(
    SimplicialComplex(
        range(1, 7),
        [
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 5, 6), (3, 4, 6),
        ],
    )
)

print("flag RP^2 fibring verdicts at level 2:")
for token in ("Q", "F2", "Z", "Z/6"):
    report = virtually_fpn_fibred(rp2, 2, CoefficientRing.from_token(token))
    extra = f" (obstruction in degree {report.obstruction_degree})" if not report.verdict else ""
    print(f"  over {token:>3}: {report.verdict}{extra}")

print("\nobstruction scan over F2:", no_fibring_obstruction(rp2, 3, F2))
print("obstruction scan over Q: ", no_fibring_obstruction(rp2, 3, QQ))

# ---------------------------------------------------------------------------
# Character search: which maps to Z have FP_1 kernels?
# ---------------------------------------------------------------------------

square = flag_completion(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
chars = find_characters(square, 1, QQ, 1)
print(f"\n4-cycle characters passing FP_1 with entries in [-1, 1]: {len(chars)}")
print("  sample:", chars[:4])

edge = flag_completion("ab", [("a", "b")])
print("Z^2 characters passing FP_1:", find_characters(edge, 1, QQ, 1))

# ---------------------------------------------------------------------------
# All fibres agree: either every FP_n fibre has vanishing Betti numbers up
# to n or none does.
# ---------------------------------------------------------------------------

for L, name in [(square, "4-cycle"), (edge, "edge")]:
    print(f"fibres-fibre consistency on the {name}:", fibres_fibre_check(L, 1, QQ, 2))

# ---------------------------------------------------------------------------
# The per-cover lower bound: closed form <= b_m(cover)/N, every cover.
# ---------------------------------------------------------------------------

free2 = Raag(SimplicialComplex(["a", "b"], []))
quotients = [abelian_quotient(free2, {"a": n, "b": n}) for n in (1, 2, 3, 4)]
print("\nlower bound holds on free-group covers:", kaz_inequality_check(free2, quotients, F2, 1))
