"""Tests for raaghom.kernels: characters, FP_n, kernel Betti numbers, pushing."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from raaghom.complexes import (
    ChainVector,
    SimplicialComplex,
    barycentric_subdivision,
    chain_boundary,
    flag_completion,
    integral_homology,
    reduced_betti,
)
from raaghom.exact import F2, QQ, FieldSpec, nullspace
from raaghom.complexes import boundary_matrix
from raaghom.acceptance import _octahedron_join
from raaghom.kernels import (
    Character,
    InconsistencyError,
    PreconditionError,
    fpn_violation,
    is_fpn,
    living_link,
    mve_positive_criterion,
    partition,
    push_cycle_to_living,
    kernel_betti,
    torsion_contributions,
    torsion_term,
)

from fixtures import c4, full_simplex, grid_surface, random_flag_complex, rp2_six, two_points
from oracles import dense_rank_mod_p, dense_rank_rationals, tuple_push

F3 = FieldSpec.prime_field(3)


def char(L, *values):
    return Character(L, dict(zip(L.vertices, values)))


class TestCharacter:
    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            char(c4(), 0, 0, 0, 0)

    def test_missing_vertex_rejected(self):
        with pytest.raises(ValueError):
            Character(c4(), {0: 1})

    def test_surjectivity_flag(self):
        assert char(c4(), 1, 0, 1, 0).is_surjective
        assert char(c4(), 2, 3, 0, 0).is_surjective
        assert not char(c4(), 2, 4, 0, 0).is_surjective

    def test_negate_and_scale(self):
        phi = char(c4(), 1, -2, 0, 3)
        assert phi.negate().value_tuple() == (-1, 2, 0, -3)
        assert phi.scale(2).value_tuple() == (2, -4, 0, 6)


class TestPartition:
    def test_all_living(self):
        L = c4()
        part = partition(L, char(L, 1, 1, 1, 1))
        assert part.living == L
        assert part.dead.vertices == ()

    def test_alternating_on_c4(self):
        L = c4()
        part = partition(L, char(L, 1, 0, 1, 0))
        assert set(part.living.vertices) == {0, 2}
        assert part.living.dim == 0  # two isolated points
        assert set(part.dead.vertices) == {1, 3}
        assert part.dead.dim == 0


class TestIsFpn:
    def test_c4_all_ones(self):
        L = c4()
        phi = char(L, 1, 1, 1, 1)
        assert is_fpn(L, phi, 1, QQ)
        assert not is_fpn(L, phi, 2, QQ)
        assert fpn_violation(L, phi, 2, QQ) == ()

    def test_single_vertex(self):
        L = SimplicialComplex("a", [])
        assert is_fpn(L, char(L, 1), 0, QQ)
        assert is_fpn(L, char(L, 1), 3, F2)

    def test_c4_alternating(self):
        L = c4()
        phi = char(L, 1, 0, 1, 0)
        assert is_fpn(L, phi, 0, QQ)
        # at n = 1 the living part (two isolated points) already fails
        assert not is_fpn(L, phi, 1, QQ)
        assert fpn_violation(L, phi, 1, QQ) == ()
        # a character whose living part is fine but whose dead vertex has a
        # disconnected living link is caught at that vertex
        psi = char(L, 1, 1, 1, 0)
        assert fpn_violation(L, psi, 1, QQ) == (3,)

    def test_two_points_nothing_works(self):
        L = two_points()
        # kernel of the rank-2 free group mapping onto Z is not finitely
        # generated for any character
        for vals in [(1, 1), (1, 0), (1, -1)]:
            assert not is_fpn(L, char(L, *vals), 1, QQ)

    def test_edge_fibres(self):
        L = SimplicialComplex("ab", [("a", "b")])
        for vals in [(1, 1), (1, -1), (1, 0)]:
            assert is_fpn(L, char(L, *vals), 1, QQ)

    def test_non_flag_complex_rejected(self):
        L = SimplicialComplex(range(3), [(0, 1), (1, 2), (0, 2)])  # hollow triangle
        with pytest.raises(ValueError):
            fpn_violation(L, char(L, 1, 0, 1), 1, QQ)

    def test_all_living_calibration(self):
        # with no dead vertices FP_n is exactly (n-1)-acyclicity of L
        rng = random.Random(1312)
        from raaghom.complexes import is_n_acyclic

        for _ in range(25):
            L = random_flag_complex(rng, 6)
            if not L.vertices:
                continue
            phi = Character(L, {v: 1 for v in L.vertices})
            for field in (QQ, F2):
                for n in range(0, 4):
                    assert is_fpn(L, phi, n, field) == is_n_acyclic(L, n - 1, field)

    def test_no_dead_vertex_scans_no_face(self, monkeypatch):
        # on a flag torus the all-ones character has no dead simplex but the
        # empty one, so no common-neighbour mask is listed
        L = barycentric_subdivision(grid_surface(3, False))
        calls = []
        cn_masks = SimplicialComplex.cn_masks
        monkeypatch.setattr(SimplicialComplex, "cn_masks", lambda self: calls.append(self) or cn_masks(self))
        assert fpn_violation(L, Character(L, {v: 1 for v in L.vertices}), 1, QQ) is None
        assert calls == []
        one_dead = Character(L, {v: int(i > 0) for i, v in enumerate(L.vertices)})
        assert fpn_violation(L, one_dead, 1, QQ) is None  # the dead vertex's link is a circle
        assert calls == [L]


class TestTheoremB:
    def test_single_vertex_empty_link(self):
        L = SimplicialComplex("a", [])
        assert kernel_betti(L, char(L, 1), 0, QQ) == 1

    def test_c4_all_ones_degree_one(self):
        L = c4()
        assert kernel_betti(L, char(L, 1, 1, 1, 1), 1, F2) == 4

    def test_full_simplex_kernels_vanish(self):
        for k in (2, 3, 4):
            L = full_simplex(k)
            phi = Character(L, {v: 1 for v in L.vertices})
            for m in range(0, k + 1):
                assert kernel_betti(L, phi, m, QQ) == 0

    def test_precondition_enforced_with_diagnostic(self):
        L = c4()
        with pytest.raises(PreconditionError, match="living"):
            kernel_betti(L, char(L, 1, 1, 1, 1), 2, QQ)
        # the override computes the raw sum anyway
        assert kernel_betti(L, char(L, 1, 1, 1, 1), 2, QQ, enforce=False) == 0

    def test_non_surjective_rejected(self):
        L = c4()
        phi = char(L, 2, 2, 2, 2)
        with pytest.raises(PreconditionError, match="surjective"):
            kernel_betti(L, phi, 1, QQ)
        assert kernel_betti(L, phi, 1, QQ, enforce=False) == 8

    def test_sign_invariance_random(self):
        rng = random.Random(420)
        for _ in range(60):
            L = random_flag_complex(rng, 6)
            if not L.vertices:
                continue
            values = [rng.randint(-3, 3) for _ in L.vertices]
            if all(x == 0 for x in values):
                values[0] = 1
            phi = char(L, *values)
            for m in range(0, 3):
                for field in (QQ, F2):
                    a = kernel_betti(L, phi, m, field, enforce=False)
                    b = kernel_betti(L, phi.negate(), m, field, enforce=False)
                    assert a == b

    def test_scaling_linearity(self):
        rng = random.Random(99)
        for _ in range(20):
            L = random_flag_complex(rng, 5)
            if not L.vertices:
                continue
            values = [rng.randint(-2, 2) for _ in L.vertices]
            if all(x == 0 for x in values):
                values[0] = 1
            phi = char(L, *values)
            for c in (2, 3):
                for m in range(0, 3):
                    assert kernel_betti(L, phi.scale(c), m, F2, enforce=False) == (
                        c * kernel_betti(L, phi, m, F2, enforce=False)
                    )


def cone_over_c4_with_extra_living():
    """lk(v) is a 4-cycle with two opposite dead vertices.

    No character makes this FP_1 (the living part of lk(v) is two isolated
    points) but the rewriting itself only needs the nonemptiness of the
    deeper living links, so the push is exercised with enforcement off.
    """
    verts = ["v", "a", "d1", "c", "d2", "e"]
    edges = [
        ("a", "d1"), ("d1", "c"), ("c", "d2"), ("d2", "a"),
        ("v", "a"), ("v", "d1"), ("v", "c"), ("v", "d2"),
        ("e", "a"), ("e", "c"),
    ]
    L = flag_completion(verts, edges)
    phi = Character(L, {"v": 0, "a": 1, "d1": 0, "c": 1, "d2": 0, "e": 1})
    return L, phi


def join_with_dead_apex_and_dead_equator():
    """Octahedron joined with a dead apex v and a living cone vertex u.

    One octahedron vertex is dead as well, so 1-cycles through it must be
    rerouted; the configuration is FP_2 over every field.
    """
    oct_verts = ["a0", "a1", "b0", "b1", "c0", "c1"]
    edges = []
    for x in oct_verts:
        for y in oct_verts:
            if x < y and x[0] != y[0]:
                edges.append((x, y))
    verts = ["v", "u"] + oct_verts
    edges += [("v", "u")]
    edges += [("v", x) for x in oct_verts]
    edges += [("u", x) for x in oct_verts]
    L = flag_completion(verts, edges)
    values = {x: 1 for x in oct_verts}
    values.update({"v": 0, "u": 1, "c0": 0})
    return L, Character(L, values)


def verify_push(L, phi, v, z, result, n):
    lk_living = living_link(L, phi, (v,))
    assert result.cycle.supported_in(lk_living)
    assert chain_boundary(result.cycle).is_zero()
    diff = z.sub(result.cycle)
    bdry = chain_boundary(result.witness)
    # compare away from the empty face (the witness boundary is unaugmented
    # only in degree 0, where both sides are genuine cycles anyway)
    assert {f: c for f, c in bdry.coefficients.items() if f} == {
        f: c for f, c in diff.coefficients.items() if f
    }
    assert result.witness.supported_in(L.link((v,)))


class TestPushCycle:
    def test_already_living_returned_unchanged(self):
        L, phi = join_with_dead_apex_and_dead_equator()
        z = ChainVector(0, QQ, {("a0",): 1, ("a1",): -1})
        res = push_cycle_to_living(L, phi, "v", z, 1)
        assert res.cycle == z
        assert res.witness.is_zero()

    def test_c4_link_zero_cycle(self):
        L, phi = cone_over_c4_with_extra_living()
        z = ChainVector(0, QQ, {("d1",): 1, ("a",): -1})
        res = push_cycle_to_living(L, phi, "v", z, 1, enforce_fpn=False)
        verify_push(L, phi, "v", z, res, 1)
        # the dead generator got coned off to the least living vertex
        assert res.cycle.is_zero()
        assert not res.witness.is_zero()

    def test_enforcement_rejects_non_fp_input(self):
        L, phi = cone_over_c4_with_extra_living()
        z = ChainVector(0, QQ, {("d1",): 1, ("a",): -1})
        with pytest.raises(PreconditionError):
            push_cycle_to_living(L, phi, "v", z, 1)

    def test_one_cycle_through_dead_vertex(self):
        L, phi = join_with_dead_apex_and_dead_equator()
        assert is_fpn(L, phi, 2, QQ)
        # square a0 - c0 - a1 - c1 inside the octahedron = lk(v) minus u
        z = ChainVector(
            1,
            QQ,
            {
                ("a0", "c0"): 1,
                ("a1", "c0"): -1,
                ("a1", "c1"): 1,
                ("a0", "c1"): -1,
            },
        )
        assert chain_boundary(z).is_zero()
        res = push_cycle_to_living(L, phi, "v", z, 2)
        verify_push(L, phi, "v", z, res, 2)
        assert all(phi(u) != 0 for f in res.cycle.support() for u in f)

    def test_non_cycle_rejected(self):
        L, phi = join_with_dead_apex_and_dead_equator()
        not_cycle = ChainVector(1, QQ, {("a0", "c0"): 1})
        with pytest.raises(PreconditionError):
            push_cycle_to_living(L, phi, "v", not_cycle, 2)

    def test_living_vertex_rejected(self):
        L, phi = join_with_dead_apex_and_dead_equator()
        z = ChainVector(0, QQ, {("a0",): 1, ("a1",): -1})
        with pytest.raises(PreconditionError):
            push_cycle_to_living(L, phi, "u", z, 1)

    def test_random_kernel_cycles(self):
        # sample genuine cycles from the kernel of the link boundary and
        # push them through randomly weighted characters
        rng = random.Random(777)
        L, phi = join_with_dead_apex_and_dead_equator()
        lk = L.link(("v",))
        for field in (QQ, F2, F3):
            d1 = boundary_matrix(lk, 1, augmented=False).over_field(field)
            basis = nullspace(d1)
            edges = lk.faces_of_dim(1)
            for vec in basis[:4]:
                coeffs = {edges[i]: v for i, v in enumerate(vec) if v != 0}
                z = ChainVector(1, field, coeffs)
                res = push_cycle_to_living(L, phi, "v", z, 2)
                verify_push(L, phi, "v", z, res, 2)


class TestPushSupport:
    """The chain must lie in lk(v), with each face's labels in L's vertex order."""

    @pytest.mark.parametrize(
        "face",
        [("v", "a"), ("a", "e"), ("d1", "a"), ("a", "zz"), ("a", "a")],
        ids=["contains v", "outside the link", "out of vertex order", "unknown label", "repeated vertex"],
    )
    def test_unsupported_face_rejected(self, face):
        L, phi = cone_over_c4_with_extra_living()
        z = ChainVector(1, QQ, {("a", "d1"): 1, face: 1})
        with pytest.raises(PreconditionError, match=r"^cycle is not supported in the link of v$"):
            push_cycle_to_living(L, phi, "v", z, 2, enforce_fpn=False)

    def test_supported_cycles_accepted(self):
        L, phi = cone_over_c4_with_extra_living()
        square = {("a", "d1"): 1, ("d1", "c"): 1, ("c", "d2"): 1, ("a", "d2"): -1}
        assert ChainVector(1, QQ, square).supported_in(L.link(("v",)))
        # the square passes the support test and fails later, on the living link of a dead vertex
        with pytest.raises(InconsistencyError):
            push_cycle_to_living(L, phi, "v", ChainVector(1, QQ, square), 2, enforce_fpn=False)
        z = ChainVector(0, QQ, {("d1",): 1, ("a",): -1})
        verify_push(L, phi, "v", z, push_cycle_to_living(L, phi, "v", z, 1, enforce_fpn=False), 1)

    def test_each_face_of_the_cycle_is_read_once(self):
        read = []
        real = SimplicialComplex._face_mask

        def counting(self, verts):
            verts = tuple(verts)
            read.append(verts)
            return real(self, verts)

        L, phi = join_with_two_dead_equator_vertices()
        z = ChainVector(1, QQ, {("b0", "c0"): 1, ("b1", "c0"): -1, ("b1", "c1"): 1, ("b0", "c1"): -1})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SimplicialComplex, "_face_mask", counting)
            res = push_cycle_to_living(L, phi, "v", z, 2)
        assert sorted(read) == sorted(z.coefficients)
        verify_push(L, phi, "v", z, res, 2)


def join_with_two_dead_equator_vertices():
    """The octahedron join of `join_with_dead_apex_and_dead_equator`, with b0 dead too."""
    L, phi = join_with_dead_apex_and_dead_equator()
    values = dict(phi.values)
    values["b0"] = 0
    return L, Character(L, values)


class TestPushedFillings:
    """The exact z' and w that `push_cycle_to_living` returns, not just z - z' = dw."""

    @pytest.mark.parametrize(
        "field, cycle, witness",
        [
            (
                QQ,
                {("b1", "c1"): 1, ("u", "b1"): 1, ("u", "c1"): -1},
                {("u", "b0", "c0"): 1, ("u", "b0", "c1"): -1, ("u", "b1", "c0"): -1},
            ),
            (
                F2,
                {("b1", "c1"): 1, ("u", "b1"): 1, ("u", "c1"): 1},
                {("u", "b0", "c0"): 1, ("u", "b0", "c1"): 1, ("u", "b1", "c0"): 1},
            ),
            (
                F3,
                {("b1", "c1"): 1, ("u", "b1"): 1, ("u", "c1"): 2},
                {("u", "b0", "c0"): 1, ("u", "b0", "c1"): 2, ("u", "b1", "c0"): 2},
            ),
        ],
        ids=["Q", "F2", "F3"],
    )
    def test_one_cycle_through_two_dead_vertices(self, field, cycle, witness):
        # b0c0 is filled at stage m = 0, then b1c0 and b0c1 (dead parts c0
        # and b0) at two stages m = 1
        L, phi = join_with_two_dead_equator_vertices()
        z = ChainVector(1, field, {("b0", "c0"): 1, ("b1", "c0"): -1, ("b1", "c1"): 1, ("b0", "c1"): -1})
        res = push_cycle_to_living(L, phi, "v", z, 2)
        verify_push(L, phi, "v", z, res, 2)
        assert res.cycle.coefficients == cycle
        assert res.witness.coefficients == witness

    @pytest.mark.parametrize(
        "field, witness",
        [
            (QQ, {("u", "a0", "b0"): 1, ("u", "a0", "c0"): -1, ("u", "a1", "b0"): -1, ("u", "a1", "c0"): 1}),
            (F2, {("u", "a0", "b0"): 1, ("u", "a0", "c0"): 1, ("u", "a1", "b0"): 1, ("u", "a1", "c0"): 1}),
            (F3, {("u", "a0", "b0"): 1, ("u", "a0", "c0"): 2, ("u", "a1", "b0"): 2, ("u", "a1", "c0"): 1}),
        ],
        ids=["Q", "F2", "F3"],
    )
    def test_two_dead_parts_at_one_stage(self, field, witness):
        # every edge of the square a0 - b0 - a1 - c0 has one living vertex,
        # so stage m = 1 has the two dead parts b0 and c0
        L, phi, v = _octahedron_join(("b0", "c0"))
        z = ChainVector(1, field, {("a0", "b0"): 1, ("a1", "b0"): -1, ("a1", "c0"): 1, ("a0", "c0"): -1})
        res = push_cycle_to_living(L, phi, v, z, 2)
        verify_push(L, phi, v, z, res, 2)
        assert res.cycle.coefficients == {}
        assert res.witness.coefficients == witness

    def test_zero_cycle_coned_off_least_living_vertex(self):
        L, phi = cone_over_c4_with_extra_living()
        z = ChainVector(0, QQ, {("d1",): 1, ("a",): -1})
        res = push_cycle_to_living(L, phi, "v", z, 1, enforce_fpn=False)
        assert res.cycle.coefficients == {}
        assert res.witness.coefficients == {("a", "d1"): 1}

    def test_empty_living_link_is_inconsistent(self):
        L = flag_completion(["v", "d1", "d2", "a"], [("v", "d1"), ("v", "d2")])
        phi = Character(L, {"v": 0, "d1": 0, "d2": 0, "a": 1})
        z = ChainVector(0, QQ, {("d1",): 1, ("d2",): -1})
        with pytest.raises(InconsistencyError):
            push_cycle_to_living(L, phi, "v", z, 1, enforce_fpn=False)


class TestTorsion:
    def test_c4_all_ones_degree_one(self):
        L = c4()
        assert torsion_term(L, char(L, 1, 1, 1, 1), 1) == 4

    def test_rp2_link_contributes_weighted_torsion(self):
        rp2 = barycentric_subdivision(rp2_six())
        apex = "apex"
        edges = list(rp2.faces_of_dim(1)) + [(apex, w) for w in rp2.vertices]
        L = flag_completion([apex] + list(rp2.vertices), edges)
        values = {w: 1 for w in rp2.vertices}
        values[apex] = 2
        phi = Character(L, values)
        contrib = torsion_contributions(L, phi, 2)
        assert contrib[apex] == 4  # 2 * |Z/2|
        # all other links are cones, hence torsion-free of order 1
        assert all(contrib[w] == 1 for w in rp2.vertices)
        assert torsion_term(L, phi, 2) == 4 + len(rp2.vertices)

    def test_dead_vertices_contribute_nothing(self):
        L = c4()
        phi = char(L, 1, 0, 0, 0)
        contrib = torsion_contributions(L, phi, 1)
        assert contrib[1] == contrib[2] == contrib[3] == 0


class TestMveCriterion:
    def test_c4_positive(self):
        L = c4()
        assert mve_positive_criterion(L, char(L, 1, 1, 1, 1), 1)

    def test_contractible_links_negative(self):
        L = full_simplex(4)
        phi = Character(L, {v: 1 for v in L.vertices})
        for p in range(0, 4):
            assert not mve_positive_criterion(L, phi, p)

    def test_torsion_only_link_detected(self):
        rp2 = barycentric_subdivision(rp2_six())
        apex = "apex"
        edges = list(rp2.faces_of_dim(1)) + [(apex, w) for w in rp2.vertices]
        L = flag_completion([apex] + list(rp2.vertices), edges)
        values = {w: 0 for w in rp2.vertices}
        values[apex] = 1
        phi = Character(L, values)
        assert mve_positive_criterion(L, phi, 2)  # H_1(RP2; Z) = Z/2 is torsion
        assert not mve_positive_criterion(L, phi, 4)


class TestVanishingTransfer:
    def test_predicates_agree_across_characters(self):
        # characters passing FP_n on a fixed complex agree on whether the
        # kernel Betti numbers vanish up to n
        rng = random.Random(31415)
        for trial in range(12):
            L = random_flag_complex(rng, 5)
            if not L.vertices:
                continue
            for field in (QQ, F2):
                for n in (0, 1):
                    verdicts = []
                    for _ in range(40):
                        values = [rng.randint(-2, 2) for _ in L.vertices]
                        if all(x == 0 for x in values):
                            continue
                        phi = char(L, *values)
                        if not phi.is_surjective or not is_fpn(L, phi, n, field):
                            continue
                        vanish = all(
                            kernel_betti(L, phi, m, field, enforce=False) == 0
                            for m in range(n + 1)
                        )
                        verdicts.append(vanish)
                    assert len(set(verdicts)) <= 1


# ---------------------------------------------------------------------------
# the mask path against the definitions, with dense homology
# ---------------------------------------------------------------------------


def definition_link(L, s) -> set:
    """lk(s) = {t : t and s disjoint, t union s a face}, as vertex sets."""
    faces = {frozenset(f) for f in L.faces}
    return {t for t in faces if not t & set(s) and t | set(s) in faces}


def dense_reduced_betti(faces: set, field: FieldSpec) -> list[int]:
    """b~_{-1}, b~_0, ... of a set of vertex sets, by dense augmented ranks."""
    by_dim: dict[int, list] = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    top = max(by_dim)
    ranks = [0]  # rank of the boundary out of degree -1
    for k in range(0, top + 1):
        rows, cols = sorted(by_dim[k - 1]), sorted(by_dim[k])
        dense = [[0] * len(cols) for _ in rows]
        for j, f in enumerate(cols):
            for i in range(len(f)):
                dense[rows.index(f[:i] + f[i + 1 :])][j] = (-1) ** i
        if field.char == 0:
            ranks.append(dense_rank_rationals([[Fraction(v) for v in row] for row in dense]))
        else:
            ranks.append(dense_rank_mod_p(dense, field.char))
    ranks.append(0)
    return [len(by_dim[k]) - ranks[k + 1] - ranks[k + 2] for k in range(-1, top + 1)]


def definition_acyclic(faces: set, m: int, field: FieldSpec) -> bool:
    return all(b == 0 for b in dense_reduced_betti(faces, field)[: m + 2])


def definition_violation(L, living: set, n: int, field: FieldSpec):
    """FP_n scanned straight from its definition: living part, then dead simplices."""
    if not definition_acyclic({frozenset(f) for f in L.faces if set(f) <= living}, n - 1, field):
        return ()
    for k in range(0, n + 1):
        for s in L.faces_of_dim(k):
            if set(s) & living:
                continue
            living_lk = {t for t in definition_link(L, s) if t <= living}
            if not definition_acyclic(living_lk, n - k - 1, field):
                return s
    return None


@st.composite
def flag_complexes_with_characters(draw):
    """A flag complex on 1..7 vertices and a character, dead vertices allowed."""
    n = draw(st.integers(1, 7))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    L = flag_completion(range(n), edges)
    values = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
    return L, char(L, *values)


@st.composite
def face_listed_complexes_with_characters(draw):
    """A complex on 1..6 vertices from a random face list, often not flag, and a character."""
    n = draw(st.integers(1, 6))
    faces = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4), max_size=8))
    L = SimplicialComplex(range(n), faces)
    values = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
    return L, char(L, *values)


class TestMaskPathAgainstDefinition:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(flag_complexes_with_characters(), st.sampled_from((QQ, F2, F3)), st.integers(0, 3))
    def test_fpn_violation_and_living_links(self, instance, field, n):
        L, phi = instance
        living = set(phi.living_vertices())
        assert fpn_violation(L, phi, n, field) == definition_violation(L, living, n, field)
        for s in L.faces:
            expected = {t for t in definition_link(L, s) if t <= living}
            got = living_link(L, phi, s)
            assert {frozenset(f) for f in got.faces} == expected
            assert got.vertices == tuple(v for v in L.vertices if frozenset((v,)) in expected)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(flag_complexes_with_characters(), face_listed_complexes_with_characters()),
        st.sampled_from((QQ, F2, F3)),
        st.integers(0, 3),
    )
    def test_link_invariants_read_from_the_parent(self, instance, field, m):
        L, phi = instance
        living = [v for v in L.vertices if phi(v) != 0]
        for s in L.faces:
            got, expected = living_link(L, phi, s), L.link(s).full_subcomplex(living)
            assert got.vertices == expected.vertices and got.to_json_dict() == expected.to_json_dict()
        links = {v: L.link((v,)) for v in L.vertices}
        betti = sum(abs(phi(v)) * reduced_betti(links[v], field).betti(m - 1) for v in L.vertices)
        assert kernel_betti(L, phi, m, field, enforce=False) == betti
        homology = {v: integral_homology(links[v], m - 1) for v in L.vertices}
        torsion = {v: abs(phi(v)) * prod(homology[v][1]) for v in L.vertices}
        assert torsion_contributions(L, phi, m) == torsion
        assert mve_positive_criterion(L, phi, m) == any(phi(v) and any(homology[v]) for v in L.vertices)

    def test_cone_over_the_six_vertex_rp2(self):
        rp2 = rp2_six()
        L = SimplicialComplex(list(rp2.vertices) + ["apex"], [t + ("apex",) for t in rp2.faces_of_dim(2)])
        assert not L.is_flag()
        phi = Character(L, {v: 3 if v == "apex" else 1 for v in L.vertices})
        # lk(apex) is RP^2, with H_1 = Z/2; every other link is a cone on a 5-cycle
        assert torsion_term(L, phi, 2) == 3 * 2 + 6
        assert kernel_betti(L, phi, 2, F2, enforce=False) == 3
        assert kernel_betti(L, phi, 2, QQ, enforce=False) == 0
        assert mve_positive_criterion(L, phi, 2) and not mve_positive_criterion(L, phi, 3)


@st.composite
def dead_vertices_with_cycles(draw):
    """(L, phi, v, z, n): a dead vertex v of a flag or face-listed L and an (n-1)-cycle z in lk(v).

    The graph on the vertices other than v is dense, and v is joined to
    most of them, so lk(v) carries cycles.  A flag L is the graph's clique
    complex with v joined in; a face-listed L is the cone from v on the
    graph and about three quarters of its triangles, not flag when one is left hollow.
    About a third of the other vertices are dead.  z is a combination of a
    basis of the kernel of lk(v)'s augmented boundary, over Q, F2 or F3,
    with n in {1, 2}.
    """
    k, flag = draw(st.integers(3, 8)), draw(st.booleans())
    field, n = draw(st.sampled_from((QQ, F2, F3))), draw(st.sampled_from((1, 2)))
    rng = draw(st.randoms(use_true_random=False))
    v = rng.randrange(k)
    others = [u for u in range(k) if u != v]
    edges = [p for p in combinations(others, 2) if rng.random() < 0.7]
    near = [u for u in others if rng.random() < 0.8] or others[:1]
    if flag:
        L = flag_completion(range(k), edges + [(v, u) for u in near])
    else:
        triangles = [t for t in combinations(others, 3) if all(p in edges for p in combinations(t, 2))]
        cells = edges + [(u,) for u in near] + [t for t in triangles if rng.random() < 0.75]
        L = SimplicialComplex(range(k), [c + (v,) for c in cells])
    values = [0 if u == v or rng.random() < 0.3 else rng.choice((-2, -1, 1, 2)) for u in range(k)]
    assume(any(values))
    lk = L.link((v,))
    faces = lk.faces_of_dim(n - 1)
    basis = nullspace(boundary_matrix(lk, n - 1).over_field(field)) if faces else []
    weights = [rng.choice((1, -1)) for _ in basis]
    coefficients = {f: sum(w * vec[i] for w, vec in zip(weights, basis)) for i, f in enumerate(faces)}
    return L, char(L, *values), v, ChainVector(n - 1, field, coefficients), n


class TestPushAgainstTupleReference:
    """The mask push returns what `oracles.tuple_push`, on label tuples, returns."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(dead_vertices_with_cycles())
    def test_same_cycle_and_witness(self, instance):
        L, phi, v, z, n = instance
        try:
            expected = tuple_push(L, phi, v, z, n)
        except InconsistencyError:
            expected = None
        try:
            res = push_cycle_to_living(L, phi, v, z, n, enforce_fpn=False)
        except InconsistencyError:
            assert expected is None
            return
        assert (res.cycle.coefficients, res.witness.coefficients) == expected
        verify_push(L, phi, v, z, res, n)
