"""Tests for raaghom.raags: Salvetti boundaries, quotients, cover homology."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raaghom import exact, raags
from raaghom.complexes import SimplicialComplex, flag_completion
from raaghom.exact import F2, QQ, FieldSpec, rank
from raaghom.fibring import kaz_inequality_check
from raaghom.raags import (
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

from fixtures import (
    c4, cycle_complex, full_simplex, octahedron, random_flag_complex, rp2_six, rp2_twelve, two_points,
)
from oracles import living_set_character_sum

F3 = FieldSpec.prime_field(3)
F5 = FieldSpec.prime_field(5)


def raag_two_points() -> Raag:
    return Raag(two_points())


def raag_edge() -> Raag:
    return Raag(SimplicialComplex("ab", [("a", "b")]))


class TestSalvettiBoundary:
    def test_two_points_d1(self):
        A = raag_two_points()
        d1 = salvetti_boundary(A, 1, QQ)
        assert (d1.rows, d1.cols) == (1, 2)
        assert d1.entries == {(0, 0): ("a", 1), (0, 1): ("b", 1)}

    def test_torus_d2_and_composition(self):
        A = raag_edge()
        d1 = salvetti_boundary(A, 1, QQ)
        d2 = salvetti_boundary(A, 2, QQ)
        # d2(e_ab) = (a-1) e_b - (b-1) e_a
        assert (d2.rows, d2.cols) == (2, 1)
        assert d2.entries == {(0, 0): ("b", -1), (1, 0): ("a", 1)}
        assert d1.composes_to_zero(d2)
        # a flipped sign is no change over F2, but is over Q
        flipped = {(0, 0): ("b", 1), (1, 0): ("a", 1)}
        assert salvetti_boundary(A, 1, F2).composes_to_zero(SalvettiBoundary(2, 1, A, F2, flipped))
        assert not d1.composes_to_zero(SalvettiBoundary(2, 1, A, QQ, flipped))
        # the same entries over the free group: ab - ba does not cancel
        B = raag_two_points()
        free_d2 = SalvettiBoundary(2, 1, B, QQ, d2.entries)
        assert not salvetti_boundary(B, 1, QQ).composes_to_zero(free_d2)

    def test_dd_zero_random_flag_complexes(self):
        rng = random.Random(987)
        for _ in range(20):
            L = random_flag_complex(rng, 8)
            A = Raag(L)
            for k in range(1, L.dim + 2):
                dk = salvetti_boundary(A, k, F2)
                dk1 = salvetti_boundary(A, k + 1, F2)
                assert dk.composes_to_zero(dk1)

    def test_perturbed_boundary_does_not_compose_to_zero(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(40):
            L = random_flag_complex(rng, 7)
            A = Raag(L)
            for k in range(1, L.dim + 1):
                dk = salvetti_boundary(A, k, QQ)
                dk1 = salvetti_boundary(A, k + 1, QQ)
                key = rng.choice(sorted(dk1.entries))
                v, sign = dk1.entries[key]

                def with_entry(entry):
                    entries = {**dk1.entries, key: entry}
                    return SalvettiBoundary(dk1.rows, dk1.cols, A, QQ, entries)

                assert not dk.composes_to_zero(with_entry((v, -sign)))
                far = [w for w in L.vertices if w != v and not L.adjacent(v, w)]
                if far:
                    assert not dk.composes_to_zero(with_entry((rng.choice(far), sign)))
                checked += 1
        assert checked >= 20

    def test_non_flag_complex_rejected(self):
        hollow = SimplicialComplex("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        with pytest.raises(ValueError):
            Raag(hollow)


class TestQuotients:
    def test_trivial_quotient(self):
        q = abelian_quotient(raag_two_points(), {})
        assert q.order == 1 and q.transitive

    def test_abelian_two_points(self):
        A = raag_two_points()
        q = abelian_quotient(A, {"a": 3, "b": 3})
        assert q.order == 9
        # generator a shifts the first coordinate
        assert q.action["a"][0] == 1 and q.action["a"][2] == 0

    def test_c4_all_n(self):
        A = Raag(c4())
        q = abelian_quotient(A, {v: 2 for v in c4().vertices})
        assert q.order == 16 and q.transitive

    def test_abelian_orbit_count_builds_no_action(self, monkeypatch):
        # N = 1024^4 = 2^40, so an action would hold 2^40-tuples; it is never built
        def refuse(self):
            raise AssertionError("action built")

        monkeypatch.setattr(FiniteQuotient, "action", property(refuse))
        A = Raag(c4())
        q = abelian_quotient(A, dict.fromkeys(c4().vertices, 1024))
        assert q.order == 2**40 and q.orbit_count == 1 and q.transitive
        assert repr(q) == f"FiniteQuotient(order={2**40}, transitive=True)"

    def test_commutation_validated(self):
        A = raag_edge()
        # transpositions (01) and (12) on three points do not commute
        with pytest.raises(ValueError):
            FiniteQuotient(A, 3, {"a": [1, 0, 2], "b": [0, 2, 1]})
        # but they are fine for non-adjacent generators
        B = raag_two_points()
        q = FiniteQuotient(B, 3, {"a": [1, 0, 2], "b": [0, 2, 1]})
        assert q.transitive

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            FiniteQuotient(raag_two_points(), 2, {"a": [0, 0], "b": [0, 1]})

    def test_missing_generator_rejected(self):
        with pytest.raises(ValueError):
            FiniteQuotient(raag_two_points(), 2, {"a": [1, 0]})


class TestSpecialize:
    def test_trivial_quotient_kills_generator_minus_one(self):
        A = raag_two_points()
        q = abelian_quotient(A, {})
        d1 = salvetti_boundary(A, 1, QQ)
        s = specialize(d1, q)
        assert s.rows == 1 and s.cols == 2 and s.is_zero()

    def test_z2_regular_block(self):
        A = raag_two_points()
        q = FiniteQuotient(A, 2, {"a": [1, 0], "b": [0, 1]})
        m = specialize(salvetti_boundary(A, 1, QQ), q)
        block = [[m.entry(r, c) for c in range(2)] for r in range(2)]
        assert block == [[Fraction(-1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        assert rank(m) == 1

    def test_rank_of_specialised_d1_is_order_minus_one(self):
        A = raag_two_points()
        for n in (1, 2, 3, 4):
            q = abelian_quotient(A, {"a": n, "b": n})
            m = specialize(salvetti_boundary(A, 1, F2), q)
            assert rank(m) == n * n - 1

    def test_specialised_boundaries_compose_to_zero(self):
        for q in _mixed_quotients():
            A = q.over
            for field in (QQ, F2):
                for k in range(1, A.complex.dim + 2):
                    dk = specialize(salvetti_boundary(A, k, field), q)
                    dk1 = specialize(salvetti_boundary(A, k + 1, field), q)
                    assert dk.mul(dk1).is_zero()

    def test_blocks_are_signed_permutation_minus_identity(self):
        # P_v has a 1 at (P_v[x], x): each entry sign * (v - 1) becomes sign * (P_v - I)
        for q in _mixed_quotients():
            A, N = q.over, q.order
            for field in (QQ, F2):
                for k in range(0, A.complex.dim + 3):
                    d = salvetti_boundary(A, k, field)
                    expected = {}
                    for (i, j), (v, sign) in d.entries.items():
                        for x in range(N):
                            for y in range(N):
                                value = field.of(sign * ((q.action[v][x] == y) - (x == y)))
                                if value:
                                    expected[(i * N + y, j * N + x)] = value
                    assert specialize(d, q).entries == expected


def _mixed_quotients() -> list[FiniteQuotient]:
    """Explicit non-abelian quotients whose permutations have fixed points, and abelian ones."""
    square = c4()  # 0 - 1 - 2 - 3 - 0: the RAAG is F(0, 2) x F(1, 3)
    pair = [(x, y) for x in range(3) for y in range(3)]

    def on_first(p):
        return [pair.index((p[x], y)) for x, y in pair]

    def on_second(p):
        return [pair.index((x, p[y])) for x, y in pair]

    A = Raag(square)
    return [
        FiniteQuotient(raag_two_points(), 4, {"a": [1, 2, 0, 3], "b": [0, 1, 3, 2]}),
        FiniteQuotient(raag_edge(), 4, {"a": [1, 2, 0, 3], "b": [2, 0, 1, 3]}),
        FiniteQuotient(A, 9, {
            0: on_first([1, 0, 2]), 2: on_first([1, 2, 0]),
            1: on_second([0, 2, 1]), 3: on_second([1, 0, 2]),
        }),
        abelian_quotient(A, {0: 2, 1: 3, 2: 1, 3: 2}),
        abelian_quotient(Raag(full_simplex(3)), {0: 2, 1: 3, 2: 2}),
    ]


class TestCoverBetti:
    def test_trivial_quotient_full_simplex_is_torus(self):
        for k in (1, 2, 3, 4):
            A = Raag(full_simplex(k))
            q = abelian_quotient(A, {})
            report = cover_betti(A, q, QQ)
            assert list(report.betti) == [comb(k, p) for p in range(k + 1)]

    def test_two_points_free_cover(self):
        A = raag_two_points()
        for n in (1, 2, 3):
            q = abelian_quotient(A, {"a": n, "b": n})
            report = cover_betti(A, q, QQ)
            assert report.betti[0] == 1
            assert report.betti[1] == n * n + 1

    def test_c4_kunneth_cover(self):
        A = Raag(c4())
        for n in (1, 2):
            q = abelian_quotient(A, {v: n for v in c4().vertices})
            report = cover_betti(A, q, F2)
            assert report.betti[2] == (n * n + 1) ** 2

    def test_b0_equals_orbit_count(self):
        A = raag_two_points()
        # intransitive: both generators act as the same 2-cycle on 4 points
        perm = [1, 0, 3, 2]
        q = FiniteQuotient(A, 4, {"a": perm, "b": perm})
        assert q.orbit_count == 2
        report = cover_betti(A, q, QQ)
        assert report.betti[0] == 2

    def test_euler_characteristic_scales(self):
        rng = random.Random(55)
        for _ in range(6):
            L = random_flag_complex(rng, 4)
            A = Raag(L)
            moduli = {v: rng.choice((1, 2)) for v in L.vertices}
            q = abelian_quotient(A, moduli)
            report = cover_betti(A, q, F2)
            chi_base = sum((-1) ** k * L.n_faces(k - 1) for k in range(L.dim + 2))
            chi_cover = sum((-1) ** k * b for k, b in enumerate(report.betti))
            assert chi_cover == q.order * chi_base

    def test_report_json_exact_rationals(self):
        A = raag_two_points()
        q = abelian_quotient(A, {"a": 2, "b": 2})
        obj = cover_betti(A, q, QQ).to_json_dict()
        assert obj["N"] == 4
        assert obj["normalized"][1] == "5/4"


def _eliminated_betti(A: Raag, q: FiniteQuotient, field: FieldSpec) -> list[int]:
    """Cover Betti numbers by specialising and eliminating every boundary."""
    L, N = A.complex, q.order
    top = L.dim + 1
    ranks = [rank(specialize(salvetti_boundary(A, k, field), q)) for k in range(1, top + 1)]
    ranks = [0] + ranks + [0]
    return [L.n_faces(k - 1) * N - ranks[k] - ranks[k + 1] for k in range(top + 1)]


@st.composite
def explicit_covers(draw):
    """An explicit quotient with N <= 24 of the RAAG on a join P * M, and a field.

    P is 0-2 points, each acting by any permutation of X1 (|X1| <= 4), so
    the action is often not transitive; M is a flag complex on <= 4
    vertices acting on X2 by the regular action of a sum of Z/n_v,
    conjugated by a random permutation.  The join's RAAG is the product,
    acting on X1 x X2; with no points P it is M's transitive action, and
    with M empty it is a free group's.
    """
    field = draw(st.sampled_from((QQ, F2, F3)))
    k, m = draw(st.integers(0, 2)), draw(st.integers(0, 4))
    n1 = draw(st.integers(1, 4))
    points, inner = range(k), range(k, k + m)
    inner_edges = [(i, j) for i in inner for j in inner if i < j and draw(st.booleans())]
    moduli, n2 = {}, 1
    for v in inner:
        moduli[v] = draw(st.sampled_from([n for n in (1, 2, 3, 4) if n1 * n2 * n <= 24]))
        n2 *= moduli[v]
    regular = abelian_quotient(Raag(flag_completion(inner, inner_edges)), moduli).action
    sigma = draw(st.permutations(range(n2)))
    unsigma = {y: x for x, y in enumerate(sigma)}
    action = {}
    for v in points:
        p = draw(st.permutations(range(n1)))
        action[v] = [p[x1] * n2 + x2 for x1 in range(n1) for x2 in range(n2)]
    for v, p in regular.items():
        conj = [sigma[p[unsigma[x2]]] for x2 in range(n2)]
        action[v] = [x1 * n2 + conj[x2] for x1 in range(n1) for x2 in range(n2)]
    L = flag_completion(range(k + m), inner_edges + [(u, v) for u in points for v in inner])
    A = Raag(L)
    return A, FiniteQuotient(A, n1 * n2, action), field


class TestExplicitCovers:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(explicit_covers())
    def test_rank_of_specialised_d1_is_order_minus_orbits(self, case):
        A, q, field = case
        d1 = specialize(salvetti_boundary(A, 1, field), q)
        assert rank(d1) == q.order - q.orbit_count

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(explicit_covers())
    def test_matches_elimination_of_every_degree(self, case):
        A, q, field = case
        assert list(cover_betti(A, q, field).betti) == _eliminated_betti(A, q, field)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(explicit_covers())
    def test_degree_two_is_eliminated_without_the_forest_rows(self, case):
        A, q, field = case
        L, N = A.complex, q.order
        forest = q._spanning_forest()
        parent = list(range(N))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        def components(cells):
            parent[:] = range(N)
            for x, y in cells:
                parent[find(x)] = find(y)
            return sum(find(x) == x for x in range(N))

        orbits = components((x, y) for p in q.action.values() for x, y in enumerate(p))
        assert len(set(forest)) == len(forest) == N - orbits == N - q.orbit_count
        # the forest's 1-cells (v, x) join x to P_v x and reach every orbit, so they form a spanning forest
        assert components((r % N, q.action[L.vertices[r // N]][r % N]) for r in forest) == orbits
        eliminated = []

        def spy(m):
            eliminated.append(m)
            return rank(m)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(raags, "rank", spy)
            betti = cover_betti(A, q, field).betti
        assert list(betti) == _eliminated_betti(A, q, field)
        assert len(eliminated) == max(L.dim, 0)  # degrees 2 to dim + 1
        if eliminated:
            d2 = eliminated[0]
            assert (d2.rows, d2.cols) == (L.n_faces(0) * N, L.n_faces(1) * N)
            assert not {r for r, _ in d2.entries} & set(forest)
            assert rank(d2) == rank(specialize(salvetti_boundary(A, 2, field), q))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(explicit_covers())
    def test_packed_rank_of_each_boundary_matches_sparse_elimination(self, case):
        A, q, _ = case
        for field in (F2, F3):
            for k in range(1, A.complex.dim + 2):
                m = specialize(salvetti_boundary(A, k, field), q)
                for em in (m, m.transpose()):
                    assert exact._packed_rank(em) == exact._sparse_rank(em)

    def test_both_kinds_of_action_are_drawn(self):
        transitive = set()

        @settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @given(explicit_covers())
        def record(case):
            transitive.add(case[1].transitive)

        record()
        assert transitive == {True, False}

    def test_free_group_cover_eliminates_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("eliminated")

        monkeypatch.setattr(raags, "specialize", refuse)
        monkeypatch.setattr(raags, "rank", refuse)
        A = Raag(SimplicialComplex("abc", [("a",), ("b",), ("c",)]))
        q = FiniteQuotient(A, 5, {"a": [1, 0, 2, 3, 4], "b": [0, 2, 1, 3, 4], "c": [0, 1, 2, 4, 3]})
        assert q.orbit_count == 2
        for field in (QQ, F2, F3):
            report = cover_betti(A, q, field)
            assert report.betti == (2, (3 - 1) * 5 + 2)


@st.composite
def abelian_covers(draw, max_vertices=6, max_modulus=10, max_order=150, fields=(QQ, F2, F3, F5)):
    """A flag complex on <= 6 vertices and moduli <= 10 with N <= 150, by default.

    The moduli include powers of char F and multiples of it by other
    primes (2, 4, 8, 6, 10 over F2; 3, 9, 6 over F3; 5, 10 over F5), so
    char F divides N in many cases.
    """
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(0, max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    L = flag_completion(range(n), edges)
    moduli, order = {}, 1
    for v in range(n):
        allowed = [m for m in range(1, max_modulus + 1) if order * m <= max_order]
        moduli[v] = draw(st.sampled_from(allowed))
        order *= moduli[v]
    return Raag(L), moduli, field


@st.composite
def abelian_chains(draw):
    """An `abelian_covers` case on <= 5 vertices with N <= 36, as a chain of three moduli.

    The first moduli are drawn; each of the other two sets some of them to
    1, so the living sets of the chain differ.
    """
    A, moduli, field = draw(abelian_covers(max_vertices=5, max_modulus=6, max_order=36, fields=(QQ, F2, F3)))
    chain = [moduli]
    for _ in range(2):
        keep = draw(st.lists(st.booleans(), min_size=len(moduli), max_size=len(moduli)))
        chain.append({v: n if k else 1 for (v, n), k in zip(moduli.items(), keep)})
    return A, chain, field


class TestCharacterSum:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(abelian_covers())
    def test_matches_elimination(self, case):
        A, moduli, field = case
        q = abelian_quotient(A, moduli)
        assert list(cover_betti(A, q, field).betti) == _eliminated_betti(A, q, field)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(abelian_covers(max_vertices=7, max_modulus=6, max_order=6**7, fields=(QQ, F2, F3)))
    @example((Raag(c4()), {0: 2, 1: 6, 2: 4, 3: 3}, F2))  # char F divides N
    @example((Raag(c4()), {0: 2, 1: 6, 2: 4, 3: 3}, F3))
    def test_sum_by_links_is_the_sum_over_living_sets(self, case):
        A, moduli, field = case
        by_links = raags._character_sum_betti(A.complex, moduli, field)
        assert by_links == living_set_character_sum(A.complex, moduli, field)

    def test_matches_elimination_at_order_256(self):
        # C4 with moduli 4,4,4,4 over F3: d_1 is 256 x 1024, d_2 is 1024 x 1024
        A = Raag(c4())
        q = abelian_quotient(A, {v: 4 for v in c4().vertices})
        assert q.order == 256
        assert list(cover_betti(A, q, F3).betti) == _eliminated_betti(A, q, F3)

    @pytest.mark.parametrize(
        "L, n, k",
        [
            (cycle_complex(5), 3, 4),
            (cycle_complex(5), 3, 5),
            (cycle_complex(6), 2, 6),
            (octahedron(), 2, 6),
            (octahedron(), 3, 4),
            (octahedron(), 3, 5),
        ],
        ids=["C5-Z3^4", "C5-Z3^5", "C6-Z2^6", "octahedron-Z2^6", "octahedron-Z3^4", "octahedron-Z3^5"],
    )
    def test_larger_explicit_covers_match_the_character_sum(self, L, n, k):
        # the regular action of (Z/n)^k, N = 64 to 243, entered as explicit permutations;
        # over F2 and F3 each, char F divides N for one field and not the other
        A = Raag(L)
        abelian = abelian_quotient(A, dict.fromkeys(L.vertices[:k], n))
        explicit = FiniteQuotient(A, abelian.order, abelian.action)
        assert explicit.moduli is None and 64 <= explicit.order <= 243
        for field in (F2, F3):
            assert cover_betti(A, explicit, field).betti == cover_betti(A, abelian, field).betti

    def test_abelian_quotients_never_specialise(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("specialize called")

        monkeypatch.setattr(raags, "specialize", refuse)
        A = Raag(c4())
        cases = [(QQ, 4), (F2, 3), (F3, 2), (F5, 6)]  # char F prime to N
        cases += [(F2, 2), (F2, 4), (F2, 6), (F3, 3), (F3, 9)]  # char F divides N
        for field, n in cases:
            q = abelian_quotient(A, {v: n for v in c4().vertices})
            assert cover_betti(A, q, field).betti[2] == (n * n + 1) ** 2

    def test_explicit_quotients_eliminate(self, monkeypatch):
        class Specialised(Exception):
            pass

        def refuse(*args):
            raise Specialised

        monkeypatch.setattr(raags, "specialize", refuse)
        A = raag_edge()  # d_2 is the first boundary an explicit quotient eliminates
        with pytest.raises(Specialised):
            cover_betti(A, FiniteQuotient(A, 2, {"a": [1, 0], "b": [0, 1]}), QQ)

    def test_hook_sees_shapes_and_ranks_on_both_paths(self, monkeypatch):
        # a wrapper on raags.rank records each eliminated matrix's shape and rank
        seen = []

        def recording_rank(m):
            r = rank(m)
            seen.append((m.rows, m.cols, r))
            return r

        monkeypatch.setattr(raags, "rank", recording_rank)
        A = Raag(c4())
        abelian = abelian_quotient(A, {v: 2 for v in c4().vertices})
        explicit = FiniteQuotient(A, abelian.order, abelian.action)
        for field in (QQ, F2):
            report = cover_betti(A, explicit, field)
            r2 = rank(specialize(salvetti_boundary(A, 2, field), explicit))
            assert seen == [(64, 64, r2)]  # d_2 only: rank d_1 is read from the orbits
            seen.clear()
            assert cover_betti(A, abelian, field).betti == report.betti
            assert seen == []

    def test_inconsistent_betti_numbers_raise(self, monkeypatch):
        real = raags._character_sum_betti

        def off_by_one(*args):
            betti = real(*args)
            betti[1] += 1
            return betti

        monkeypatch.setattr(raags, "_character_sum_betti", off_by_one)
        A = raag_two_points()
        with pytest.raises(ArithmeticError, match="d_"):
            cover_betti(A, abelian_quotient(A, {"a": 3, "b": 3}), QQ)

    def test_quotient_of_another_group_rejected(self):
        q = abelian_quotient(raag_edge(), {"a": 2})
        with pytest.raises(ValueError):
            cover_betti(raag_two_points(), q, QQ)

    @staticmethod
    def count_reads(monkeypatch) -> list:
        reads = []
        read = raags.reduced_betti_on

        def counting(K, mask, field):
            reads.append((mask, field))
            return read(K, mask, field)

        monkeypatch.setattr(raags, "reduced_betti_on", counting)
        return reads

    def test_each_link_read_once_per_complex_and_field(self, monkeypatch):
        reads = self.count_reads(monkeypatch)
        A = Raag(octahedron())
        v = A.generators
        chain = [
            abelian_quotient(A, {v[0]: 2, v[1]: 2}),
            abelian_quotient(A, {v[1]: 2, v[2]: 3, v[3]: 2}),
            abelian_quotient(A, {v[0]: 3, v[4]: 2, v[5]: 2, v[3]: 2}),
        ]
        submasks = set()
        for q in chain:
            living = A.complex.mask(u for u, n in q.moduli.items() if n > 1)
            submasks |= {u for u in range(living + 1) if u & ~living == 0}
        first = gradient_sequence(A, chain, QQ, 2)
        assert sorted(reads) == sorted((u, QQ) for u in submasks)
        reads.clear()
        assert gradient_sequence(A, chain, F3, 2)  # another field reads every link again
        assert sorted(reads) == sorted((u, F3) for u in submasks)
        reads.clear()
        assert kaz_inequality_check(A, chain[::-1], QQ, 3)  # and the same field reads none
        assert gradient_sequence(A, chain, QQ, 2) == first
        assert reads == []
        assert gradient_sequence(Raag(octahedron()), chain[:1], QQ, 2) == first[:1]  # an equal complex does
        assert len(reads) == 4

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(abelian_chains())
    @example((Raag(c4()), [{0: 2, 1: 3, 2: 1, 3: 2}, {0: 2, 1: 1, 2: 1, 3: 2}, {0: 1, 1: 3, 2: 1, 3: 1}], F2))
    @example((Raag(c4()), [{0: 3, 1: 1, 2: 2, 3: 3}, {0: 3, 1: 1, 2: 1, 3: 1}, {0: 1, 1: 1, 2: 2, 3: 3}], F3))
    def test_a_chain_on_one_complex_matches_fresh_complexes_and_elimination(self, case):
        # the examples have char F dividing N
        A, chain, field = case
        L = A.complex
        for moduli in chain:
            shared = cover_betti(A, abelian_quotient(A, moduli), field).betti
            fresh = Raag(flag_completion(L.vertices, L.edges()))
            q = abelian_quotient(fresh, moduli)
            assert cover_betti(fresh, q, field).betti == shared
            assert list(shared) == _eliminated_betti(fresh, FiniteQuotient(fresh, q.order, q.action), field)


class TestGradientSequence:
    def test_z2_torus_gradient(self):
        A = raag_edge()
        chain = [abelian_quotient(A, {"a": n, "b": n}) for n in (1, 2, 3)]
        vals = gradient_sequence(A, chain, QQ, 1)
        assert vals == [Fraction(2), Fraction(1, 2), Fraction(2, 9)]

    def test_two_points_gradient(self):
        A = raag_two_points()
        chain = [abelian_quotient(A, {"a": n, "b": n}) for n in (1, 2, 3)]
        vals = gradient_sequence(A, chain, F2, 1)
        assert vals == [Fraction(2), Fraction(5, 4), Fraction(10, 9)]

    def test_degree_zero_transitive(self):
        A = raag_two_points()
        chain = [abelian_quotient(A, {"a": n, "b": n}) for n in (1, 2)]
        assert gradient_sequence(A, chain, QQ, 0) == [Fraction(1), Fraction(1, 4)]

    def test_order_monotonicity_enforced(self):
        A = raag_two_points()
        chain = [abelian_quotient(A, {"a": 2, "b": 2}), abelian_quotient(A, {})]
        with pytest.raises(ValueError):
            gradient_sequence(A, chain, QQ, 1)

    def test_negative_degree_rejected(self):
        A = raag_two_points()
        with pytest.raises(ValueError):
            gradient_sequence(A, [abelian_quotient(A, {"a": 2, "b": 2})], QQ, -1)

    def test_hook_sees_each_explicit_quotient_and_no_abelian_one(self, monkeypatch):
        A = raag_edge()
        abelian = [abelian_quotient(A, {"a": n, "b": n}) for n in (1, 2, 3)]
        explicit = [FiniteQuotient(A, q.order, q.action) for q in abelian]
        chain = [abelian[0], explicit[0], explicit[1], abelian[1], explicit[2], abelian[2]]
        seen = []

        def recording_rank(m):
            seen.append((m.rows, m.cols))
            return rank(m)

        monkeypatch.setattr(raags, "rank", recording_rank)
        vals = gradient_sequence(A, chain, QQ, 1)
        assert vals == [Fraction(2), Fraction(2), Fraction(1, 2), Fraction(1, 2), Fraction(2, 9), Fraction(2, 9)]
        # the edge's Salvetti complex is the torus: d_2 is 2N x N, and d_1 comes from the orbits
        assert seen == [(2 * q.order, q.order) for q in explicit]


class TestClosedForms:
    def test_rp2_headline_values(self):
        A = Raag(flag_completion_of_rp2())
        assert dfg_betti_raag(A, F2, 3) == 1
        assert dfg_betti_raag(A, QQ, 3) == 0

    def test_two_points_degree_one(self):
        A = raag_two_points()
        for field in (QQ, F2, F3):
            assert dfg_betti_raag(A, field, 1) == 1

    def test_c4_degree_two(self):
        A = Raag(c4())
        for field in (QQ, F2):
            assert dfg_betti_raag(A, field, 2) == 1

    def test_graph_product_values(self):
        assert graph_product_betti(c4(), QQ, 2) == 1
        for k in range(1, 5):
            assert graph_product_betti(full_simplex(4), QQ, k) == 0
        two_triangles = flag_completion(
            range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert graph_product_betti(two_triangles, F2, 1) == 1

    def test_graph_product_requires_flag(self):
        hollow = SimplicialComplex("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        with pytest.raises(ValueError):
            graph_product_betti(hollow, QQ, 1)


def equal_moduli_differences(A: Raag, field: FieldSpec) -> list[int]:
    """Per degree k, the |V|-th finite difference of b_k over covers with every modulus n = 1 .. |V|+1.

    With every modulus n, b_k of the cover is a polynomial in n of degree at
    most |V| (the identity in `_character_sum_betti`), so this is |V|! times
    its top coefficient.
    """
    L = A.complex
    covers = [
        cover_betti(A, abelian_quotient(A, dict.fromkeys(L.vertices, n)), field).betti
        for n in range(1, len(L.vertices) + 2)
    ]
    differences = []
    for k in range(L.dim + 2):
        values = [betti[k] for betti in covers]
        for _ in L.vertices:
            values = [b - a for a, b in zip(values, values[1:])]
        (difference,) = values
        differences.append(difference)
    return differences


class TestGrowthLimit:
    """The paper's limit along equal moduli: b_k(n) / n^|V| tends to `dfg_betti_raag`."""

    @pytest.mark.parametrize("field", [QQ, F2, F3], ids=["Q", "F2", "F3"])
    def test_leading_coefficient_is_the_closed_form(self, field):
        rng = random.Random(1500 + field.char)
        cases = 0
        for _ in range(60):
            L = random_flag_complex(rng, 6)
            A = Raag(L)
            closed = [factorial(len(L.vertices)) * dfg_betti_raag(A, field, k) for k in range(L.dim + 2)]
            assert equal_moduli_differences(A, field) == closed, L
            cases += len(closed)
        assert cases > 150

    @pytest.mark.parametrize("field, closed", [(QQ, [0, 0, 0, 0]), (F2, [0, 0, 1, 1])], ids=["Q", "F2"])
    def test_twelve_vertex_rp2_grows_by_its_mod_2_homology(self, field, closed):
        # the rational and mod 2 growth of the flag RP^2 differ in degrees 2 and 3
        A = Raag(rp2_twelve())
        assert [dfg_betti_raag(A, field, k) for k in range(4)] == closed
        assert equal_moduli_differences(A, field) == [factorial(12) * b for b in closed]
        # the character sum against elimination of the same cover, N = 64
        abelian = abelian_quotient(A, dict.fromkeys(range(6), 2))
        explicit = FiniteQuotient(A, abelian.order, abelian.action)
        assert cover_betti(A, abelian, field).betti == cover_betti(A, explicit, field).betti


def flag_completion_of_rp2():
    from raaghom.complexes import barycentric_subdivision

    return barycentric_subdivision(rp2_six())
