"""Homological invariants of right-angled Artin groups and their kernels.

Exact computation (no floating point) of:

* simplicial homology of finite flag complexes over Q, F_p, and Z;
* homology of finite covers of Salvetti complexes via permutation
  quotients, and the normalised gradient sequences they produce;
* closed-form skew-field Betti numbers of RAAGs, graph products, and
  Artin kernels, with the finiteness (FP_n) and fibring decisions that
  go with them.

The result records (`FieldSpec`, `SmithForm`, `HomologyProfile`,
`CoefficientRing`, `FibringReport`, `LivingDeadPartition`, `PushResult`,
`CoverHomologyReport` and `acceptance.CriterionResult`) are plain
immutable classes with ``__slots__``, written out by hand, so that no
CLI call pays for generating them or for importing ``inspect``, ``ast``
and ``dis``.
"""

from .complexes import (
    ChainVector,
    HomologyProfile,
    SimplicialComplex,
    barycentric_subdivision,
    boundary_matrix,
    chain_boundary,
    flag_completion,
    integral_homology,
    is_n_acyclic,
    oriented_face,
    reduced_betti,
)
from .exact import (
    ExactMatrix,
    FieldSpec,
    IntMatrix,
    SmithForm,
    nullspace,
    rank,
    smith_normal_form,
    solve,
)
from .fibring import (
    CoefficientRing,
    FibringReport,
    fibres_fibre_check,
    find_characters,
    kaz_inequality_check,
    no_fibring_obstruction,
    virtually_fpn_fibred,
)
from .kernels import (
    Character,
    InconsistencyError,
    LivingDeadPartition,
    PreconditionError,
    PushResult,
    is_fpn,
    living_link,
    mve_positive_criterion,
    partition,
    push_cycle_to_living,
    kernel_betti,
    torsion_contributions,
    torsion_term,
)
from .raags import (
    CoverHomologyReport,
    FiniteQuotient,
    Raag,
    SalvettiBoundary,
    abelian_quotient,
    cover_betti,
    dfg_betti_raag,
    gradient_sequence,
    graph_product_betti,
    salvetti_boundary,
    specialize,
)

__version__ = "0.1.0"
