"""Tests for raaghom.complexes."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raaghom import complexes, exact
from raaghom.complexes import (
    ChainVector,
    SimplicialComplex,
    barycentric_subdivision,
    boundary_matrix,
    chain_boundary,
    flag_completion,
    integral_homology,
    is_n_acyclic,
    is_n_acyclic_on,
    lex_order,
    link_core,
    reduced_betti,
    reduced_betti_on,
)
from raaghom.exact import F2, QQ, FieldSpec, rank, smith_normal_form
from raaghom.raags import Raag, abelian_quotient, cover_betti

from fixtures import (
    BAD_FACE_IDS, BAD_FACES, RP2_6_TRIANGLES, c4, cycle_complex, full_simplex, grid_surface, octahedron,
    random_flag_complex, rp2_six, rp2_twelve,
)
from oracles import (
    TupleComplex, dense_rank_mod_p, dense_rank_rationals, determinantal_divisors, living_set_character_sum,
)

F3 = FieldSpec.prime_field(3)
F5 = FieldSpec.prime_field(5)
# RP^2 with a flap on the edge 12, which then lies in three triangles; not flag, so it is its own core
RP2_WITH_FLAP = SimplicialComplex(range(1, 8), RP2_6_TRIANGLES + [(1, 2, 7)])


class TestConstruction:
    def test_closure_and_empty_face(self):
        K = SimplicialComplex("abc", [("a", "b", "c")])
        assert () in K.faces
        assert K.n_faces(0) == 3 and K.n_faces(1) == 3 and K.n_faces(2) == 1
        assert K.dim == 2

    def test_faces_follow_vertex_order(self):
        K = SimplicialComplex(["z", "a"], [("a", "z")])
        assert K.faces_of_dim(1) == [("z", "a")]

    def test_empty_complex(self):
        K = SimplicialComplex([], [])
        assert K.dim == -1
        assert K.faces == frozenset({()})

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex("ab", [("a", "c")])

    @pytest.mark.parametrize("face, message", BAD_FACES, ids=BAD_FACE_IDS)
    def test_bad_face_names_its_label_or_itself(self, face, message):
        with pytest.raises(ValueError) as raised:
            SimplicialComplex("ab", [("a", "b"), face])
        assert str(raised.value) == message


class TestFlagCompletion:
    def test_c4_has_no_triangles(self):
        K = c4()
        assert K.n_faces(0) == 4 and K.n_faces(1) == 4 and K.dim == 1

    def test_k3_fills_in(self):
        K = flag_completion("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        assert K.n_faces(2) == 1
        assert K.is_flag()

    def test_barycentric_rp2_one_skeleton(self):
        # the subdivided RP2_6 has 6 + 15 + 10 = 31 vertices; its flag
        # completion recovers exactly the subdivision
        B = barycentric_subdivision(rp2_six())
        assert len(B.vertices) == 31
        K = flag_completion(B.vertices, B.faces_of_dim(1))
        assert K.faces == B.faces

    def test_c4_is_flag_but_hollow_triangle_is_not(self):
        assert c4().is_flag()
        hollow = SimplicialComplex("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        assert not hollow.is_flag()

    def test_flag_test_agrees_with_clique_completion(self):
        rng = random.Random(41)
        verdicts = set()
        for _ in range(60):
            n = rng.randint(1, 7)
            faces = [rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(rng.randint(0, 10))]
            for K in (SimplicialComplex(range(n), faces), random_flag_complex(rng, 7)):
                fresh = SimplicialComplex(K.vertices, K.faces)
                verdict = flag_completion(K.vertices, K.edges()).faces == K.faces
                assert fresh.is_flag() == verdict
                verdicts.add(verdict)
        assert verdicts == {True, False}


class TestBarycentricSubdivision:
    def test_single_edge_becomes_path(self):
        K = SimplicialComplex("ab", [("a", "b")])
        B = barycentric_subdivision(K)
        assert len(B.vertices) == 3
        assert B.n_faces(1) == 2 and B.dim == 1

    def test_triangle_boundary_becomes_hexagon(self):
        K = SimplicialComplex("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        B = barycentric_subdivision(K)
        assert len(B.vertices) == 6
        assert B.n_faces(1) == 6
        prof = reduced_betti(B, QQ)
        assert prof.betti(0) == 0 and prof.betti(1) == 1

    def test_rp2_subdivision_fvector(self):
        B = barycentric_subdivision(rp2_six())
        assert [B.n_faces(k) for k in range(3)] == [31, 90, 60]

    def test_homology_profile_preserved(self):
        rng = random.Random(5150)
        complexes = [rp2_six(), c4(), octahedron()]
        complexes += [random_flag_complex(rng, 5) for _ in range(5)]
        for K in complexes:
            B = barycentric_subdivision(K)
            for field in (QQ, F2, F3):
                pk, pb = reduced_betti(K, field), reduced_betti(B, field)
                top = max(K.dim, B.dim) + 1
                assert all(pk.betti(i) == pb.betti(i) for i in range(-1, top + 1))

    def test_result_is_flag(self):
        assert barycentric_subdivision(rp2_six()).is_flag()


class TestLink:
    def test_vertex_of_c4(self):
        lk = c4().link((0,))
        assert set(lk.vertices) == {1, 3}
        assert lk.dim == 0

    def test_link_of_empty_simplex_is_whole_complex(self):
        K = rp2_six()
        assert K.link(()) == K

    def test_octahedron_links(self):
        K = octahedron()
        lk_v = K.link(("a0",))
        assert len(lk_v.vertices) == 4 and lk_v.n_faces(1) == 4  # a 4-cycle
        lk_e = K.link(("a0", "b0"))
        assert len(lk_e.vertices) == 2 and lk_e.dim == 0

    def test_non_face_rejected(self):
        with pytest.raises(ValueError):
            c4().link((0, 2))

    def test_non_flag_links_and_full_subcomplexes_are_refused(self):
        # in a non-flag complex the link is not the full subcomplex on the
        # common neighbours (the hollow triangle's vertex link is two points),
        # and no RAAG or Artin kernel is defined on it
        rng = random.Random(77)
        others = [cycle_complex(3), rp2_six(), RP2_WITH_FLAP]
        while len(others) < 30:
            n = rng.randint(1, 7)
            faces = [rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(10)]
            K = SimplicialComplex(range(n), faces[: rng.randint(0, 10)])
            if not K.is_flag():
                others.append(K)
        for K in others:
            assert not K.is_flag()
            assert K.link(()) is K and K.full_subcomplex(K.vertices) is K
            for s in K.faces - {()}:
                with pytest.raises(ValueError, match="need a flag complex"):
                    K.link(s)
            for v in K.vertices:
                with pytest.raises(ValueError, match="need a flag complex"):
                    K.full_subcomplex(set(K.vertices) - {v})
                with pytest.raises(ValueError, match="need a flag complex"):
                    link_core(K, v)

    def test_full_subcomplexes_are_built_once(self):
        K = octahedron()
        assert K.full_subcomplex(["a0", "b0"]) is K.full_subcomplex(["b0", "a0"])
        assert K.link(("a0",)) is K.link(("a0",))
        assert K.full_subcomplex(K.vertices) is K


def eliminated_profile(K: SimplicialComplex, field: FieldSpec) -> tuple[int, ...]:
    """Reduced Betti numbers of K from the ranks of all of its own boundaries over the field.

    This eliminates over the field itself, independently of the Smith forms
    that ``reduced_betti`` reads.
    """
    ranks = [rank(boundary_matrix(K, k).over_field(field)) for k in range(K.dim + 1)] + [0]
    return tuple(
        (1 if k == -1 else K.n_faces(k)) - (ranks[k] if k >= 0 else 0) - ranks[k + 1]
        for k in range(-1, K.dim + 1)
    )


def eliminated_integral(K: SimplicialComplex, k: int) -> tuple[int, list[int]]:
    """Reduced H_k(K; Z) from the Smith forms of K's own boundaries."""
    r_k = smith_normal_form(boundary_matrix(K, k)).rank if k >= 0 else 0
    if k == K.dim:
        return K.n_faces(k) - r_k, []
    sf = smith_normal_form(boundary_matrix(K, k + 1))
    return (1 if k == -1 else K.n_faces(k)) - r_k - sf.rank, list(sf.torsion_divisors)


def assert_core_homology_matches(L: SimplicialComplex, mask: int) -> None:
    """Core-based homology of L[mask] against elimination of L[mask] itself."""
    sub = L.subcomplex(mask)
    core = L.subcomplex(L.core(mask))
    for field in (QQ, F2, F3, F5):
        expected = eliminated_profile(sub, field)
        assert reduced_betti(sub, field).reduced_betti == expected
        assert all(reduced_betti(core, field).betti(k) == b for k, b in enumerate(expected, -1))
    for k in range(-1, sub.dim + 1):
        expected = eliminated_integral(sub, k)
        assert integral_homology(sub, k) == expected
        assert integral_homology(core, k) == expected


@st.composite
def flag_complexes(draw, max_vertices: int = 8) -> SimplicialComplex:
    n = draw(st.integers(0, max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return flag_completion(range(n), [p for p, k in zip(pairs, keep) if k])


@st.composite
def flag_or_other_complexes(draw, max_vertices: int = 8) -> SimplicialComplex:
    """A flag complex, or the closure of a few random faces, which is often not flag."""
    if draw(st.booleans()):
        return draw(flag_complexes(max_vertices))
    n = draw(st.integers(0, max_vertices))
    faces = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=2, max_size=3), max_size=12)) if n > 1 else []
    return SimplicialComplex(range(n), faces)


class TestCore:
    def test_small_cores(self):
        path = flag_completion("abc", [("a", "b"), ("b", "c")])
        assert path.core(path.mask("abc")) == path.mask("c")  # a goes under b, then b under c
        # a and c share the neighbour b, but b lies outside U = {a, c}
        assert path.core(path.mask("ac")) == path.mask("ac")
        K = c4()
        assert K.core(K.mask(K.vertices)) == K.mask(K.vertices)
        cone = flag_completion(range(5), [(0, 1), (1, 2), (2, 3), (3, 0)] + [(i, 4) for i in range(4)])
        assert bin(cone.core(0b11111)).count("1") == 1
        assert cone.core(0b01111) == 0b01111
        assert cone.core(0) == 0

    def test_non_flag_complexes_keep_their_homology(self):
        # each of these has a complete 1-skeleton, whose clique complex is a point
        hollow = cycle_complex(3)
        sphere = SimplicialComplex(range(4), full_simplex(4).faces_of_dim(2))
        for K in (hollow, sphere, rp2_six()):
            assert K.core(K.mask(K.vertices)) == K.mask(K.vertices)
        assert reduced_betti(hollow, QQ).betti(1) == 1
        assert integral_homology(hollow, 1) == (1, [])
        assert reduced_betti(sphere, F2).reduced_betti == (0, 0, 0, 1)
        assert reduced_betti(rp2_six(), F2).reduced_betti == (0, 0, 1, 1)
        assert integral_homology(rp2_six(), 1) == (0, [2])

    def test_subcomplexes_of_flag_complexes_inherit_the_verdict(self, monkeypatch):
        L = barycentric_subdivision(rp2_six())
        assert L.is_flag()
        calls = []

        def counting(*args):
            calls.append(args)
            return flag_completion(*args)

        monkeypatch.setattr(complexes, "flag_completion", counting)
        rng = random.Random(5)
        for _ in range(20):
            mask = rng.getrandbits(len(L.vertices))
            sub = L.subcomplex(mask)
            assert sub._memo["flag"] is True  # set on construction, not tested again
            reduced_betti(sub, F2)
            reduced_betti(L.subcomplex(L.core(mask)), QQ)
        assert calls == []

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(flag_complexes())
    def test_core_homology_matches_elimination_on_every_mask(self, L):
        for mask in range(1 << len(L.vertices)):
            assert_core_homology_matches(L, mask)

    def test_barycentric_rp2_subcomplexes(self):
        L = barycentric_subdivision(rp2_six())
        everything = (1 << len(L.vertices)) - 1
        assert integral_homology(L, 1) == (0, [2])
        masks = [everything] + [everything ^ 1 << i for i in range(0, len(L.vertices), 5)]
        masks += [L.common_neighbours((v,)) for v in L.vertices[::4]]
        rng = random.Random(31)
        masks += [rng.getrandbits(len(L.vertices)) | rng.getrandbits(len(L.vertices)) for _ in range(15)]
        for mask in masks:
            assert_core_homology_matches(L, mask)

    def test_twelve_vertex_rp2_subcomplexes(self):
        L = rp2_twelve()
        rng = random.Random(12)
        masks = [(1 << 12) - 1] + [L.common_neighbours((v,)) for v in L.vertices]
        masks += [rng.getrandbits(12) for _ in range(40)]
        for mask in masks:
            assert_core_homology_matches(L, mask)


@st.composite
def labelled_graphs(draw, max_vertices: int = 9) -> tuple[list[str], list[tuple[str, str]]]:
    """String labels in an order unlike their sorted order, and a set of edges."""
    n = draw(st.integers(0, max_vertices))
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    pairs = [(labels[j], labels[i]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return labels, [p for p, k in zip(pairs, keep) if k]


def brute_force_cliques(labels: list[str], edges: list[tuple[str, str]]) -> set[tuple]:
    """Every vertex set whose pairs are all edges, as a tuple in label-list order."""
    adjacent = {frozenset(e) for e in edges}
    return {
        sub
        for size in range(len(labels) + 1)
        for sub in combinations(labels, size)
        if all(frozenset(pair) in adjacent for pair in combinations(sub, 2))
    }


def assert_same_lists(K: SimplicialComplex, expected: SimplicialComplex) -> None:
    assert K.vertices == expected.vertices and K.faces == expected.faces
    assert all(K.faces_of_dim(k) == expected.faces_of_dim(k) for k in range(-1, len(K.vertices) + 1))


class TestCliqueWalk:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(labelled_graphs())
    def test_flag_completion_lists_every_clique_in_vertex_order(self, graph):
        labels, edges = graph
        K = flag_completion(labels, edges)
        cliques = brute_force_cliques(labels, edges)
        assert K.vertices == tuple(labels) and K.faces == cliques
        for k in range(-1, len(labels) + 1):
            expected = sorted((f for f in cliques if len(f) == k + 1), key=lambda f: [labels.index(v) for v in f])
            assert K.faces_of_dim(k) == expected
        assert K.is_flag()

    @pytest.mark.parametrize(
        "vertices, edges",
        [("aba", []), ("aba", [("a", "b")]), ("ab", [("a", "a")]), ("ab", [("a", "c")]), ("abc", [("a", "b", "c")])],
    )
    def test_flag_completion_rejects_bad_graphs(self, vertices, edges):
        with pytest.raises(ValueError):
            flag_completion(vertices, edges)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(labelled_graphs())
    def test_full_subcomplexes_match_the_face_filter(self, graph):
        L = flag_completion(*graph)
        for mask in range(1 << len(L.vertices)):
            keep = {v for i, v in enumerate(L.vertices) if mask >> i & 1}
            expected = SimplicialComplex(
                [v for v in L.vertices if v in keep], [f for f in L.faces if keep.issuperset(f)]
            )
            sub = L.subcomplex(mask)
            assert_same_lists(sub, expected)
            assert sub.is_flag() and expected.is_flag()

    def test_flag_test_stops_soon_after_the_face_count(self, monkeypatch):
        # the complete graph on 16 vertices, given as faces: 137 faces, 2**16 cliques;
        # the verdict is taken by the walk that construction runs, so its reads are counted
        reads = []

        class CountingMasks(list):
            def __getitem__(self, i):
                reads.append(i)
                return super().__getitem__(i)

        walk = complexes._clique_walk

        def counting_walk(adjacency, *args, **kwargs):
            return walk(CountingMasks(adjacency), *args, **kwargs)

        monkeypatch.setattr(complexes, "_clique_walk", counting_walk)
        K = SimplicialComplex(range(16), combinations(range(16), 2))
        monkeypatch.undo()
        assert not K.is_flag() and K.n_faces(2) == 0
        assert len(K.faces) <= len(reads) <= len(K.faces) + 16  # one read per clique found

    def test_barycentric_subdivision_lists_every_chain_in_order(self):
        rng = random.Random(8)
        complexes = [rp2_six(), octahedron(), cycle_complex(3), full_simplex(4), SimplicialComplex([], [])]
        complexes += [random_flag_complex(rng, 4) for _ in range(6)]
        for K in complexes:
            cells = sorted((f for f in K.faces if f), key=lambda f: (len(f), [K.index(v) for v in f]))
            chains = [
                chain
                for size in range(1, K.dim + 2)
                for chain in combinations(cells, size)
                if all(set(a) < set(b) for a, b in zip(chain, chain[1:]))
            ]
            B = barycentric_subdivision(K)
            assert_same_lists(B, SimplicialComplex(cells, chains))
            assert B.is_flag()


@st.composite
def labelled_complexes(draw, max_vertices: int = 7) -> tuple[list[str], Optional[list], Optional[list]]:
    """(labels, faces, None) for a complex given by faces, or (labels, None, edges) for a flag one.

    Labels come in an order unlike their sorted order, and each face lists
    its vertices in a random order.  Faces of one to four vertices are
    mixed, and a face list may hold a face twice or next to its own
    sub-faces.
    """
    labels, edges = draw(labelled_graphs(max_vertices))
    if draw(st.booleans()) or not labels:
        return labels, None, edges
    faces = draw(st.lists(st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True), max_size=10))
    if faces:
        picked = draw(st.lists(st.sampled_from(faces), max_size=4))
        sub_faces = [draw(st.lists(st.sampled_from(f), min_size=1, max_size=len(f), unique=True)) for f in picked]
        again = draw(st.lists(st.sampled_from(faces), max_size=2))
        faces = draw(st.permutations(faces + sub_faces + again))
    return labels, faces, None


class TestMaskRepresentation:
    """Faces stored as masks read the same as `oracles.TupleComplex`, which keeps label tuples."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(labelled_complexes())
    @example((["b", "a", "c"], [["c", "a"], ["a", "b", "c"]], None))
    @example((["b", "a", "c"], [["c", "a"], ["b", "c"], ["a", "b"]], None))  # a hollow triangle: not flag
    @example((["b", "a", "c"], [["a", "b", "c"], ["c", "a", "b"], ["b"], ["a", "c"]], None))  # listed twice, sub-faces
    @example((["d", "b", "a", "c", "e"], [["a", "b"], ["d", "c", "b", "a"], ["b", "e"], ["c", "e", "d"]], None))
    @example((["d", "b", "a", "c", "e"], [["a", "e"], ["d", "c", "b", "a"], ["b", "e"], ["c", "d", "e"]], None))
    def test_matches_the_tuple_representation(self, complex_input):
        labels, faces, edges = complex_input
        if edges is None:
            K, T = SimplicialComplex(labels, faces), TupleComplex(labels, faces)
        else:
            K, T = flag_completion(labels, edges), TupleComplex.clique_complex(labels, edges)
        assert K.vertices == T.vertices and K.faces == T.faces and K.dim == T.dim
        for k in range(-1, K.dim + 2):
            assert K.faces_of_dim(k) == T.faces_of_dim(k)
            # the masks of a dimension are in the order of the faces' index tuples
            assert list(K.masks_of_dim(k)) == [K.mask(f) for f in T.faces_of_dim(k)]
        assert K.to_json_dict() == T.to_json_dict()
        for k in range(K.dim + 2):
            for augmented in (True, False):
                entries = boundary_matrix(K, k, augmented).entries
                assert list(entries.items()) == list(T.boundary_entries(k, augmented).items())
        assert K.is_flag() == T.is_flag()
        assert K.euler_characteristic_reduced() == T.euler_characteristic_reduced()
        full = (1 << len(labels)) - 1
        if not K.is_flag():  # links and full subcomplexes are refused, except the whole complex
            assert K.link(()) is K and K.subcomplex(full) is K
            for s in T.faces - {()}:
                with pytest.raises(ValueError, match="need a flag complex"):
                    K.link(s)
            for mask in range(full):
                with pytest.raises(ValueError, match="need a flag complex"):
                    K.subcomplex(mask)
            return
        for s in T.faces:
            lk, expected = K.link(s), T.link(s)
            assert lk.vertices == expected.vertices and lk.to_json_dict() == expected.to_json_dict()
        for mask in range(full + 1):
            sub = K.subcomplex(mask)
            expected = T.full_subcomplex(v for i, v in enumerate(labels) if mask >> i & 1)
            assert sub.vertices == expected.vertices and sub.to_json_dict() == expected.to_json_dict()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))).flatmap(
        lambda nk: st.tuples(st.just(nk[0]), st.lists(st.sets(st.integers(0, nk[0] - 1), min_size=nk[1],
                                                                 max_size=nk[1]), min_size=1, max_size=20))))
    def test_lex_order_is_index_tuple_order(self, sized_sets):
        n, sets = sized_sets
        masks = [sum(1 << i for i in s) for s in sets]
        by_tuple = [sum(1 << i for i in t) for t in sorted(tuple(sorted(s)) for s in sets)]
        assert sorted(masks, key=lex_order(n)) == by_tuple


def shuffled_face_list(rng: random.Random, vertices, faces) -> tuple[list[str], list[list[str]]]:
    """The faces over labels s0, s1, ... in a shuffled vertex order, the faces and each face's labels shuffled."""
    name = {v: f"s{i}" for i, v in enumerate(vertices)}
    labels = list(name.values())
    rng.shuffle(labels)
    out = [rng.sample([name[v] for v in f], len(f)) for f in faces]
    rng.shuffle(out)
    return labels, out


def cone(vertices, faces) -> tuple[list, list]:
    return list(vertices) + ["apex"], [list(f) + ["apex"] for f in faces]


def once_subdivided_surfaces() -> dict:
    """Vertices and triangles of flag RP^2, torus and Klein bottle: barycentric subdivisions."""
    surfaces = {"rp2": rp2_six(), "torus": grid_surface(3, False), "klein": grid_surface(3, True)}
    subdivided = {name: barycentric_subdivision(K) for name, K in surfaces.items()}
    return {name: (B.vertices, B.faces_of_dim(2)) for name, B in subdivided.items()}


def with_sub_faces(faces) -> list:
    """The faces, each listed next to its sub-faces of one vertex fewer."""
    return [sub for f in faces for sub in [f, *combinations(f, len(f) - 1)]]


TETRAHEDRA = [(0, 1, 2, 3), (1, 2, 3, 4)]  # two tetrahedra on the triangle 123

NOT_FLAG_FACE_LISTS = {
    "rp2 on 6 vertices": (range(1, 7), rp2_six().faces_of_dim(2)),
    "hollow triangle": ("abc", [("a", "b"), ("b", "c"), ("c", "a")]),
    "K4 edges and one triangle": (range(4), list(combinations(range(4), 2)) + [(0, 1, 2)]),
    "rp2 with each triangle twice": (range(1, 7), rp2_six().faces_of_dim(2) * 2),
    "rp2 next to its edges": (range(1, 7), with_sub_faces(rp2_six().faces_of_dim(2))),
    # the edge 04 makes 01234 a clique, and 45 makes 345 one
    "edges, triangles and tetrahedra": (range(7), TETRAHEDRA + [(0, 4), (4, 5), (3, 5, 6)]),
}

FLAG_FACE_LISTS = {
    "tetrahedra next to their triangles, twice": (range(5), with_sub_faces(TETRAHEDRA) + TETRAHEDRA),
    "edges, triangles and tetrahedra": (range(8), TETRAHEDRA + [(4, 5, 6), (0, 7)]),
}


class TestFaceListOrder:
    """A face-listed complex keeps the faces of `oracles.TupleComplex`, in its order.

    A flag one takes them from the clique walk, any other one sorts them.
    """

    @pytest.mark.parametrize("coned", [False, True], ids=["surface", "cone"])
    @pytest.mark.parametrize("name", ["rp2", "torus", "klein"])
    def test_flag_surfaces_and_cones(self, name, coned):
        vertices, faces = once_subdivided_surfaces()[name]
        if coned:
            vertices, faces = cone(vertices, faces)
        self.check_against_tuples(random.Random(name), vertices, faces, flag=True)

    @pytest.mark.parametrize("name", NOT_FLAG_FACE_LISTS)
    def test_face_lists_that_are_not_flag(self, name):
        self.check_against_tuples(random.Random(name), *NOT_FLAG_FACE_LISTS[name], flag=False)

    @pytest.mark.parametrize("name", FLAG_FACE_LISTS)
    def test_flag_face_lists(self, name):
        self.check_against_tuples(random.Random(name), *FLAG_FACE_LISTS[name], flag=True)

    @staticmethod
    def check_against_tuples(rng: random.Random, vertices, faces, flag: bool) -> None:
        labels, faces = shuffled_face_list(rng, vertices, faces)
        K = SimplicialComplex.from_json_dict({"vertices": labels, "faces": faces})
        T = TupleComplex(labels, faces)
        assert K.vertices == T.vertices and K.dim == T.dim
        for k in range(-1, K.dim + 2):
            assert K.faces_of_dim(k) == T.faces_of_dim(k)
            assert list(K.masks_of_dim(k)) == [K.mask(f) for f in T.faces_of_dim(k)]
        for k in range(K.dim + 2):
            assert list(boundary_matrix(K, k).entries.items()) == list(T.boundary_entries(k).items())
        assert K.is_flag() == T.is_flag() == flag

    @pytest.mark.parametrize("flag", [True, False])
    def test_one_walk_and_a_sort_only_when_not_flag(self, monkeypatch, flag):
        vertices, faces = once_subdivided_surfaces()["rp2"] if flag else NOT_FLAG_FACE_LISTS["rp2 on 6 vertices"]
        walks, sorts, others = [], [], []
        walk, order = complexes._clique_walk, complexes.lex_order
        monkeypatch.setattr(complexes, "_clique_walk", lambda *a, **k: walks.append(a) or walk(*a, **k))
        monkeypatch.setattr(complexes, "lex_order", lambda n: sorts.append(n) or order(n))
        # the 1-skeleton is read off the faces, and a face's mask is a sum of vertex bits
        monkeypatch.setattr(complexes, "_adjacency_of", lambda *a: others.append("_adjacency_of"))
        monkeypatch.setattr(SimplicialComplex, "_face_mask", lambda *a: others.append("_face_mask"))
        K = SimplicialComplex(vertices, faces)
        assert K.is_flag() == flag
        assert len(walks) == 1 and len(sorts) == (0 if flag else 1) and others == []


class TestBoundaryMatrix:
    def test_single_edge_column(self):
        K = SimplicialComplex("uv", [("u", "v")])
        d1 = boundary_matrix(K, 1)
        assert d1.rows == 2 and d1.cols == 1
        assert d1.entry(0, 0) == -1 and d1.entry(1, 0) == 1

    def test_augmented_degree_zero(self):
        K = SimplicialComplex("abc", [])
        d0 = boundary_matrix(K, 0, augmented=True)
        assert d0.rows == 1 and d0.cols == 3
        assert all(d0.entry(0, j) == 1 for j in range(3))
        assert boundary_matrix(K, 0, augmented=False).rows == 0

    def test_rp2_d2_ranks(self):
        d2 = boundary_matrix(rp2_six(), 2)
        dense = [[d2.entry(r, c) for c in range(d2.cols)] for r in range(d2.rows)]
        assert dense_rank_mod_p(dense, 2) == 9
        assert dense_rank_rationals([[Fraction(v) for v in row] for row in dense]) == 10
        assert rank(d2.over_field(F2)) == 9
        assert rank(d2.over_field(QQ)) == 10

    def test_dd_zero_randomised(self):
        rng = random.Random(31337)
        for _ in range(25):
            K = random_flag_complex(rng, 6)
            for k in range(0, K.dim + 1):
                dk = boundary_matrix(K, k, augmented=True)
                dk1 = boundary_matrix(K, k + 1, augmented=True)
                assert dk.mul(dk1).is_zero()


class TestReducedBetti:
    def test_empty_complex(self):
        prof = reduced_betti(SimplicialComplex([], []), QQ)
        assert prof.reduced_betti == (1,)
        assert prof.betti(-1) == 1 and prof.betti(0) == 0

    def test_c4_circle(self):
        for field in (QQ, F2, F3):
            prof = reduced_betti(c4(), field)
            assert prof.betti(-1) == 0 and prof.betti(0) == 0 and prof.betti(1) == 1

    def test_rp2_over_f2_and_q(self):
        K = rp2_six()
        p2 = reduced_betti(K, F2)
        assert (p2.betti(0), p2.betti(1), p2.betti(2)) == (0, 1, 1)
        pq = reduced_betti(K, QQ)
        assert all(pq.betti(i) == 0 for i in range(-1, 3))

    def test_twelve_vertex_rp2(self):
        K = rp2_twelve()
        assert K.is_flag() and (K.n_faces(0), K.n_faces(2)) == (12, 22)
        assert K.euler_characteristic_reduced() + 1 == 1  # chi = 1, with the empty face's -1 put back
        assert reduced_betti(K, QQ).reduced_betti == (0, 0, 0, 0)
        assert reduced_betti(K, F2).reduced_betti == (0, 0, 1, 1)
        assert integral_homology(K, 1) == (0, [2])

    @staticmethod
    def count_eliminations(monkeypatch) -> dict:
        calls = {"rank": 0, "smith": 0}

        def counting_rank(*args):
            calls["rank"] += 1
            return rank(*args)

        def counting_smith(*args):
            calls["smith"] += 1
            return smith_normal_form(*args)

        monkeypatch.setattr(exact, "rank", counting_rank)
        monkeypatch.setattr(complexes, "rank", counting_rank, raising=False)
        monkeypatch.setattr(complexes, "smith_normal_form", counting_smith)
        return calls

    def test_no_field_eliminates_a_pseudomanifold_boundary(self, monkeypatch):
        # d_0 and d_1 are counted from vertices and components, and d_2, whose
        # edges each lie in two triangles, is read from its signed dual graph
        calls = self.count_eliminations(monkeypatch)
        K = rp2_twelve()
        assert K.core((1 << 12) - 1) == (1 << 12) - 1  # the core is K itself
        profiles = [reduced_betti(K, field).reduced_betti for field in (QQ, F2, F3)]
        assert profiles == [(0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 0, 0)]
        assert integral_homology(K, 1) == (0, [2])
        assert calls == {"rank": 0, "smith": 0}

    @pytest.mark.parametrize("K, profiles, h1", [
        (RP2_WITH_FLAP, [(0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 0, 0)], (0, [2])),
        # three points joined to a 4-cycle, S^2 v S^2: flag, its own core, each cycle edge in three triangles
        (flag_completion(range(7), [(i, (i + 1) % 4) for i in range(4)]
                         + [(i, j) for i in range(4) for j in (4, 5, 6)]),
         [(0, 0, 0, 2)] * 3, (0, [])),
    ], ids=["rp2-with-flap", "three-points-join-c4"])
    def test_a_branching_edge_is_eliminated_once_for_every_field(self, monkeypatch, K, profiles, h1):
        calls = self.count_eliminations(monkeypatch)
        assert K.core((1 << len(K.vertices)) - 1) == (1 << len(K.vertices)) - 1
        assert [reduced_betti(K, field).reduced_betti for field in (QQ, F2, F3)] == profiles
        assert integral_homology(K, 1) == h1
        assert calls == {"rank": 0, "smith": 1}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(flag_or_other_complexes())
    @example(SimplicialComplex([], []))
    @example(SimplicialComplex(range(6), [(0, 1), (1, 2), (4, 5)]))  # a path, an edge and an isolated vertex
    @example(cycle_complex(3))  # the hollow triangle is not flag
    def test_degrees_zero_and_one_are_counted_not_eliminated(self, K):
        for k in range(min(2, K.dim + 2)):
            assert complexes._smith_form(K, k) == smith_normal_form(boundary_matrix(K, k))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(flag_or_other_complexes())
    @example(rp2_six())
    @example(grid_surface(4, klein=True))
    @example(SimplicialComplex(range(7), [(0, 1, 2), (2, 3), (4, 5)]))  # a triangle with a tail, an edge, a point
    @example(SimplicialComplex(range(8), [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (4, 5, 6)]))  # not flag
    def test_degree_two_is_eliminated_without_the_forest_rows(self, K):
        # clearing keeps every elementary divisor, whatever K's components and isolated vertices
        forest = complexes._spanning_forest(K)
        assert forest <= set(K.masks_of_dim(1))
        full = (1 << len(K.vertices)) - 1
        components = complexes._component_count(K, full)
        assert len(forest) == len(K.vertices) - components
        pairs = [((e & -e).bit_length() - 1, e.bit_length() - 1) for e in forest]
        spanned = flag_completion(range(len(K.vertices)), pairs)
        assert complexes._component_count(spanned, full) == components  # it spans, so it has no cycle
        if K.dim >= 1:  # the fallback of `_smith_form`, taken here whether or not an edge branches
            rows = [e for e in K.masks_of_dim(1) if e not in forest]
            cleared = smith_normal_form(complexes._boundary(rows, K.masks_of_dim(2)))
            assert cleared == smith_normal_form(boundary_matrix(K, 2))

    def test_octahedron_sphere(self):
        prof = reduced_betti(octahedron(), QQ)
        assert (prof.betti(0), prof.betti(1), prof.betti(2)) == (0, 0, 1)

    def test_euler_characteristic_matches_face_count(self):
        rng = random.Random(777)
        for _ in range(20):
            K = random_flag_complex(rng, 6)
            assert type(K.euler_characteristic_reduced()) is int
            for field in (QQ, F2):
                prof = reduced_betti(K, field)
                chi = sum((-1) ** (i + 2) * prof.betti(i) for i in range(-1, K.dim + 1))
                assert type(chi) is int and chi == K.euler_characteristic_reduced()


def shifted(triangles, by: int) -> list[tuple]:
    return [tuple(v + by for v in t) for t in triangles]


def octahedron_triangles(*v) -> list[tuple]:
    """The eight triangles of the octahedron with opposite vertices v0 v1, v2 v3 and v4 v5."""
    return [(x, y, z) for x in v[0:2] for y in v[2:4] for z in v[4:6]]


def suspension(K: SimplicialComplex) -> SimplicialComplex:
    """K joined to two new vertices, labelled "n" and "s"."""
    facets = [f + (apex,) for f in K.faces_of_dim(K.dim) for apex in ("n", "s")]
    return SimplicialComplex(list(K.vertices) + ["n", "s"], facets)


def minor_count(rows: int, cols: int) -> int:
    return sum(comb(rows, k) * comb(cols, k) for k in range(1, min(rows, cols) + 1))


def assert_closed_form_matches_elimination(K: SimplicialComplex) -> None:
    """Every degree k >= 2: the closed form or the fallback equals a full elimination.

    The closed form applies exactly when no (k-1)-face lies in three
    k-faces, counted here from the faces' boundaries.  A small enough
    matrix is also checked against its determinantal divisors.
    """
    for k in range(2, K.dim + 2):
        d = boundary_matrix(K, k)
        expected = smith_normal_form(d)
        assert complexes._smith_form(K, k) == expected
        cofaces = [0] * d.rows
        for row, _ in d.entries:
            cofaces[row] += 1
        branching = any(n > 2 for n in cofaces)
        assert (complexes._dual_graph_form(K.masks_of_dim(k)) is None) == branching
        if minor_count(d.rows, d.cols) <= 4000:
            dense = [[d.entries.get((i, j), 0) for j in range(d.cols)] for i in range(d.rows)]
            ds = determinantal_divisors(dense)
            assert expected.elementary_divisors == tuple(b // a for a, b in zip([1] + ds, ds))


MOEBIUS_BAND = SimplicialComplex(range(5), [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)])
TWO_RP2 = SimplicialComplex(range(1, 13), RP2_6_TRIANGLES + shifted(RP2_6_TRIANGLES, 6))
TWO_OCTAHEDRA = SimplicialComplex(  # sharing the vertex 0 and nothing else
    range(11), octahedron_triangles(0, 1, 2, 3, 4, 5) + octahedron_triangles(0, 6, 7, 8, 9, 10)
)
BOUNDARY_OF_4_SIMPLEX = SimplicialComplex(range(5), full_simplex(5).faces_of_dim(3))


class TestDualGraphForm:
    """The closed form of a boundary whose (k-1)-faces lie in at most two k-faces."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(flag_or_other_complexes())
    @example(full_simplex(5))  # d_2 branches; d_3 and d_4 are read in closed form
    @example(RP2_WITH_FLAP)  # d_2 branches
    @example(SimplicialComplex(range(4), [(0, 1, 2), (0, 1, 3)]))  # two triangles on an edge: one component
    def test_closed_form_matches_elimination(self, K):
        assert_closed_form_matches_elimination(K)

    # each case: its closed-form degree k, then the rank of d_k and its number of elementary divisors 2
    @pytest.mark.parametrize("K, k, rank_k, twos", [
        (rp2_six(), 2, 10, 1),
        (rp2_twelve(), 2, 22, 1),
        (grid_surface(4, klein=False), 2, 31, 0),  # 32 triangles, closed and orientable
        (grid_surface(4, klein=True), 2, 32, 1),
        (octahedron(), 2, 7, 0),
        (MOEBIUS_BAND, 2, 5, 0),  # each boundary edge is a half-edge
        (TWO_RP2, 2, 20, 2),
        (TWO_OCTAHEDRA, 2, 14, 0),  # two closed orientable components, each of rank 8 - 1
        (BOUNDARY_OF_4_SIMPLEX, 3, 4, 0),
        (suspension(rp2_six()), 3, 20, 1),  # H_2 of the suspension is H_1(RP^2) = Z/2
    ], ids=["rp2-six", "rp2-twelve", "torus", "klein-bottle", "octahedron", "moebius-band", "two-rp2",
            "two-octahedra-on-a-vertex", "boundary-of-4-simplex", "suspension-of-rp2-six"])
    def test_named_cases(self, K, k, rank_k, twos):
        sf = complexes._dual_graph_form(K.masks_of_dim(k))
        assert sf is not None
        assert (sf.rank, sf.torsion_divisors) == (rank_k, (2,) * twos)
        assert_closed_form_matches_elimination(K)


class TestIntegralHomology:
    def test_circle(self):
        assert integral_homology(cycle_complex(3), 1) == (1, [])

    def test_rp2_torsion(self):
        assert integral_homology(rp2_six(), 1) == (0, [2])
        assert integral_homology(rp2_six(), 2) == (0, [])

    def test_grid_torus_and_klein_bottle(self):
        torus, klein = grid_surface(4, klein=False), grid_surface(4, klein=True)
        assert torus.is_flag() and klein.is_flag()
        assert [integral_homology(torus, k) for k in range(3)] == [(0, []), (2, []), (1, [])]
        assert [integral_homology(klein, k) for k in range(3)] == [(0, []), (1, [2]), (0, [])]

    def test_cone_is_acyclic(self):
        cone = full_simplex(4)
        for k in range(0, cone.dim + 1):
            assert integral_homology(cone, k) == (0, [])

    def test_rational_betti_agrees_with_integral(self):
        rng = random.Random(60)
        for K in [rp2_six(), octahedron()] + [random_flag_complex(rng, 5) for _ in range(6)]:
            prof = reduced_betti(K, QQ)
            for k in range(-1, K.dim + 1):
                assert integral_homology(K, k)[0] == prof.betti(k)


class TestAcyclicity:
    def test_empty_complex_never_minus_one_acyclic(self):
        K = SimplicialComplex([], [])
        assert not is_n_acyclic(K, -1, QQ)
        assert is_n_acyclic(K, -2, QQ)

    def test_point_always_acyclic(self):
        P = SimplicialComplex("a", [("a",)])
        for n in range(-1, 5):
            assert is_n_acyclic(P, n, F2)

    def test_c4_fails_at_one(self):
        for field in (QQ, F2):
            assert is_n_acyclic(c4(), 0, field)
            assert not is_n_acyclic(c4(), 1, field)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(flag_complexes())
    @example(SimplicialComplex([], []))
    @example(flag_completion(range(6), [(0, 1), (1, 2), (4, 5)]))  # a path, an edge and an isolated vertex
    @example(c4())
    def test_mask_test_is_acyclicity_of_the_full_subcomplex(self, L):
        # the reference reads an equal but separate complex, so no memo is shared
        twin = flag_completion(L.vertices, L.edges())
        for mask in range(1 << len(L.vertices)):  # the empty mask and every disconnected one included
            for field in (QQ, F2, F3):
                for n in range(-2, 4):
                    expected = is_n_acyclic(twin.subcomplex(mask), n, field)
                    assert is_n_acyclic_on(L, mask, n, field) == expected, (mask, n, field)


def assert_dispatcher_matches(L: SimplicialComplex, twin: SimplicialComplex, mask: int) -> None:
    """`reduced_betti_on` a mask of L against an equal, separately built twin and against elimination."""
    for field in (QQ, F2, F3, F5):
        got = reduced_betti_on(L, mask, field).reduced_betti
        assert got == reduced_betti(twin.subcomplex(twin.core(mask)), field).reduced_betti, (mask, field)
        eliminated = eliminated_profile(twin.subcomplex(mask), field)
        width = max(len(got), len(eliminated))
        assert got + (0,) * (width - len(got)) == eliminated + (0,) * (width - len(eliminated)), (mask, field)


def complete_bipartite(m: int, n: int) -> SimplicialComplex:
    """K_{m,n}, the join of m points and n points: triangle-free, so every mask's core is a graph."""
    return flag_completion(range(m + n), [(i, j) for i in range(m) for j in range(m, m + n)])


class TestReducedBettiOn:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(flag_complexes())
    @example(SimplicialComplex([], []))  # the empty mask only
    @example(flag_completion(range(1), []))  # a single vertex
    @example(flag_completion(range(4), []))  # a discrete set
    @example(c4())
    @example(cycle_complex(5))
    @example(flag_completion(range(4), [(0, 1), (1, 2)]))  # a path and an isolated vertex
    def test_every_mask_matches_the_core_subcomplex_and_elimination(self, L):
        twin = flag_completion(L.vertices, L.edges())  # equal, but shares no memo with L
        for mask in range(1 << len(L.vertices)):
            assert_dispatcher_matches(L, twin, mask)

    def test_cores_with_a_triangle_match_too(self):
        rng = random.Random(27)
        with_triangle = 0
        for build in (lambda: barycentric_subdivision(rp2_six()), rp2_twelve):
            L, twin = build(), build()
            n = len(L.vertices)
            masks = [(1 << n) - 1] + [(1 << n) - 1 ^ 1 << i for i in range(0, n, 4)]
            masks += [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(12)]
            for mask in masks:
                assert_dispatcher_matches(L, twin, mask)
                with_triangle += twin.subcomplex(twin.core(mask)).dim >= 2
        assert with_triangle > 0  # the path that builds the core is tested as well

    def test_complexes_that_are_not_flag_are_refused(self):
        # the clique complex of a complete 1-skeleton is a simplex, so the
        # counts would read a point where the complex has homology
        hollow, rp2 = cycle_complex(3), rp2_six()
        assert reduced_betti(hollow, QQ).reduced_betti == (0, 0, 1)
        assert reduced_betti(rp2, F2).reduced_betti == (0, 0, 1, 1)
        for K in (hollow, rp2):
            everything = K.mask(K.vertices)
            for mask in (everything, 0b11, 0):
                for field in (QQ, F2):
                    with pytest.raises(ValueError):
                        reduced_betti_on(K, mask, field)
                    for n in range(-2, 3):
                        with pytest.raises(ValueError):
                            is_n_acyclic_on(K, mask, n, field)

    def test_graph_cores_build_nothing(self, monkeypatch):
        cycle, k33 = cycle_complex(6), complete_bipartite(3, 3)
        walks = []
        walk = complexes._clique_walk
        monkeypatch.setattr(complexes, "_clique_walk", lambda *a, **k: walks.append(a) or walk(*a, **k))

        def built(L: SimplicialComplex) -> list:
            return [key for key in L._memo if type(key) is int]

        for L in (cycle, k33):
            for mask in range(1 << len(L.vertices)):
                for field in (QQ, F2, F3, F5):
                    reduced_betti_on(L, mask, field)
            assert walks == [] and built(L) == []
        assert reduced_betti_on(cycle, 0b111111, QQ).reduced_betti == (0, 0, 1)
        assert reduced_betti_on(k33, 0b111111, F2).reduced_betti == (0, 0, 4)  # 9 edges - 6 vertices + 1
        assert reduced_betti_on(k33, 0b111000, F3).reduced_betti == (0, 2)  # three points
        moduli = {v: 2 + v % 2 for v in k33.vertices}
        got = cover_betti(Raag(k33), abelian_quotient(Raag(k33), moduli), F5).betti
        assert walks == [] and built(k33) == []
        assert list(got) == living_set_character_sum(complete_bipartite(3, 3), moduli, F5)


class TestChains:
    def test_boundary_of_boundary_vanishes(self):
        K = full_simplex(5)
        rng = random.Random(123)
        faces = K.faces_of_dim(3)
        chain = ChainVector(3, QQ, {f: Fraction(rng.randint(-3, 3)) for f in faces})
        assert chain_boundary(chain_boundary(chain)).is_zero()

    def test_vertex_boundary_hits_empty_face(self):
        z = ChainVector(0, F2, {(("a"),): 1})
        assert chain_boundary(z).coefficients == {(): 1}

    def test_supported_in_takes_faces_in_vertex_order_only(self):
        K = SimplicialComplex("bac", [("b", "a"), ("a", "c")])  # vertex order b, a, c
        assert ChainVector(1, QQ, {("b", "a"): 1, ("a", "c"): 2}).supported_in(K)
        assert ChainVector(0, QQ, {("c",): 1}).supported_in(K)
        assert not ChainVector(1, QQ, {("a", "b"): 1}).supported_in(K)  # unsorted
        assert not ChainVector(1, QQ, {("b", "c"): 1}).supported_in(K)  # no such edge
        assert not ChainVector(1, QQ, {("b", "x"): 1}).supported_in(K)  # unknown label
        assert not ChainVector(1, QQ, {("a", "a"): 1}).supported_in(K)  # repeated vertex
        assert ChainVector.zero(2, QQ).supported_in(K)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(labelled_complexes(), st.data())
    def test_supported_in_matches_the_label_view(self, complex_input, data):
        labels, faces, edges = complex_input
        K = SimplicialComplex(labels, faces) if edges is None else flag_completion(labels, edges)
        pool = labels + ["zz"]
        chain = data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=2, max_size=2), max_size=3))
        z = ChainVector(1, F2, {tuple(f): 1 for f in chain})
        assert z.supported_in(K) == all(f in K.faces for f in z.coefficients)

    def test_add_sub_scale(self):
        a = ChainVector(0, QQ, {("x",): Fraction(2)})
        b = ChainVector(0, QQ, {("x",): Fraction(2)})
        assert a.sub(b).is_zero()
        assert a.add(b).coefficients == {("x",): Fraction(4)}
        assert a.scale(Fraction(1, 2)).coefficients == {("x",): Fraction(1)}


class TestSmithIntegration:
    def test_rp2_d2_smith(self):
        sf = smith_normal_form(boundary_matrix(rp2_six(), 2))
        assert sf.rank == 10
        assert sf.torsion_divisors == (2,)


class TestJson:
    def test_round_trip_faces(self):
        K = rp2_six()
        again = SimplicialComplex.from_json_dict(K.to_json_dict())
        assert again == K

    def test_edges_and_faces_together_rejected(self):
        obj = {"vertices": ["a", "b", "c"], "edges": [["a", "b"]], "faces": [["a", "b", "c"]]}
        with pytest.raises(ValueError):
            SimplicialComplex.from_json_dict(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {"vertices": ["a", "b"], "edge": [["a", "b"]]},
            {"vertices": [1, "1", 2], "edges": [[1, 2]]},
            {"vertices": [None, "None"]},
        ],
        ids=["unknown-key", "int-and-string-label", "none-and-string-label"],
    )
    def test_unknown_keys_and_labels_equal_as_strings_rejected(self, obj):
        with pytest.raises(ValueError):
            SimplicialComplex.from_json_dict(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {"vertices": "abc", "edges": [["a", "b"]]},
            {"vertices": ("a", "b")},
            {"vertices": ["a", "b"], "faces": {"ab": 1}},
            {"vertices": ["a", "b"], "edges": {"ab": 1}},
            {"vertices": ["a", "b"], "edges": ["ab"]},
            {"vertices": ["a", "b"], "faces": [("a", "b")]},
            [1],
            {"edges": []},
        ],
        ids=[
            "vertices-string", "vertices-tuple", "faces-object", "edges-object", "edge-string", "face-tuple",
            "list-not-object", "vertices-missing",
        ],
    )
    def test_vertices_edges_and_faces_must_be_lists(self, obj):
        with pytest.raises(ValueError):
            SimplicialComplex.from_json_dict(obj)

    @pytest.mark.parametrize(
        "vertices",
        [[None, "a"], [1.5, 2], [True, 2], [float("nan"), 2], [["x"], 2]],
        ids=["none", "float", "bool", "nan", "list"],
    )
    def test_labels_must_be_strings_or_integers(self, vertices):
        with pytest.raises(ValueError, match="strings or integers"):
            SimplicialComplex.from_json_dict({"vertices": vertices, "edges": []})

    @pytest.mark.parametrize(
        "obj",
        [
            {"vertices": ["a", "b"], "faces": [[]]},
            {"vertices": ["a", "b"], "edges": [["a", "b"], []]},
            {"vertices": ["a", "b"], "faces": [["a", ["b"]]]},
            {"vertices": ["a", "b"], "faces": [[{"b": 0}]]},
            {"vertices": ["a", "b"], "edges": [["a", ["b"]]]},
            {"vertices": [0, 1], "edges": [[0, True]]},
        ],
        ids=["face-empty", "edge-empty", "face-list-label", "face-object-label", "edge-list-label", "edge-bool-label"],
    )
    def test_faces_and_edges_are_nonempty_lists_of_labels(self, obj):
        with pytest.raises(ValueError, match=r"entry \[.*\] is not a nonempty list of strings or integers"):
            SimplicialComplex.from_json_dict(obj)

    def test_edges_input_applies_flag_completion(self):
        obj = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}
        K = SimplicialComplex.from_json_dict(obj)
        assert K.n_faces(2) == 1
