"""Tests for raaghom.fibring."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raaghom.complexes import SimplicialComplex, barycentric_subdivision, flag_completion, reduced_betti
from raaghom import fibring, kernels
from raaghom.exact import F2, QQ, FieldSpec
from raaghom.fibring import (
    CoefficientRing,
    FibringReport,
    fibres_fibre_check,
    find_characters,
    kaz_inequality_check,
    no_fibring_obstruction,
    virtually_fpn_fibred,
)
from raaghom.kernels import Character, fpn_violation, is_fpn, kernel_betti, living_link
from raaghom.raags import Raag, abelian_quotient

from fixtures import (
    c4, full_simplex, grid_surface, octahedron, random_flag_complex, rp2_six, rp2_twelve, two_points,
)

F3 = FieldSpec.prime_field(3)
F5 = FieldSpec.prime_field(5)


def rp2_flag():
    return barycentric_subdivision(rp2_six())


class TestCoefficientRing:
    def test_tokens(self):
        assert CoefficientRing.from_token("Q").token() == "Q"
        assert CoefficientRing.from_token("F2").token() == "F2"
        assert CoefficientRing.from_token("Z").token() == "Z"
        assert CoefficientRing.from_token("Z/6").token() == "Z/6"
        # read only as `token` writes it: Z/6_0 is not Z/60, F0 is not Q
        bad = ["Z/6_0", "Z/ 6", "Z/06", "Z/+6", "Z/٦", "Z/", "Z/1", "Z/-6", " Z", "Z ", "F0", "F03", " Q", "z"]
        for tok in bad:
            with pytest.raises(ValueError):
                CoefficientRing.from_token(tok)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.text(alphabet="ZQF/012369٦ _+-", max_size=5))
    def test_every_token_read_is_written_back_unchanged(self, tok):
        try:
            ring = CoefficientRing.from_token(tok)
        except ValueError:
            return
        assert ring.token() == tok

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            CoefficientRing.integers_mod(1)


class TestVirtuallyFpnFibred:
    def test_full_simplex_always_fibres(self):
        L = full_simplex(3)
        for ring in [CoefficientRing.of_field(QQ), CoefficientRing.of_field(F2),
                     CoefficientRing.integers(), CoefficientRing.integers_mod(6)]:
            for n in range(0, 4):
                report = virtually_fpn_fibred(L, n, ring)
                assert report.verdict
                assert report.witnesses

    def test_rp2_trichotomy(self):
        L = rp2_flag()
        assert virtually_fpn_fibred(L, 2, CoefficientRing.of_field(QQ)).verdict
        r2 = virtually_fpn_fibred(L, 2, CoefficientRing.of_field(F2))
        assert not r2.verdict and r2.obstruction_degree == 2
        rz = virtually_fpn_fibred(L, 2, CoefficientRing.integers())
        assert not rz.verdict and rz.obstruction_degree == 2  # H_1 = Z/2 torsion

    def test_zmod_follows_prime_divisors(self):
        L = rp2_flag()
        assert not virtually_fpn_fibred(L, 2, CoefficientRing.integers_mod(6)).verdict
        assert virtually_fpn_fibred(L, 2, CoefficientRing.integers_mod(3)).verdict

    def test_zmod_agrees_with_all_prime_fields(self):
        rng = random.Random(8)
        for _ in range(10):
            L = random_flag_complex(rng, 5)
            for m, n, primes in [(6, 1, (2, 3)), (10, 2, (2, 5))]:
                by_primes = all(
                    virtually_fpn_fibred(L, n, CoefficientRing.of_field(FieldSpec.prime_field(p))).verdict
                    for p in primes
                )
                assert virtually_fpn_fibred(L, n, CoefficientRing.integers_mod(m)).verdict == by_primes

    def test_zmod_verdict_and_degree_are_those_of_its_prime_fields(self):
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
        for L in (rp2_twelve(), grid_surface(4, klein=False), grid_surface(4, klein=True)):
            for m in range(2, 61):
                for n in range(4):
                    report = virtually_fpn_fibred(L, n, CoefficientRing.integers_mod(m))
                    by_prime = [
                        virtually_fpn_fibred(L, n, CoefficientRing.of_field(FieldSpec.prime_field(p)))
                        for p in primes
                        if m % p == 0
                    ]
                    assert report.verdict == all(r.verdict for r in by_prime)
                    degrees = [r.obstruction_degree for r in by_prime if not r.verdict]
                    assert report.obstruction_degree == min(degrees, default=None)

    def test_torsion_decides_zmod_without_factoring(self):
        L = rp2_flag()  # H~_1 = Z/2, every other reduced group 0
        odd = 10**30 + 57  # no factor below 10**6: trial division would take practically forever
        assert virtually_fpn_fibred(L, 3, CoefficientRing.integers_mod(odd)).verdict
        report = virtually_fpn_fibred(L, 3, CoefficientRing.integers_mod(2 * odd))
        assert not report.verdict and report.obstruction_degree == 2

    def test_z_verdict_implies_every_field(self):
        rng = random.Random(9)
        for _ in range(10):
            L = random_flag_complex(rng, 5)
            for n in (1, 2):
                if virtually_fpn_fibred(L, n, CoefficientRing.integers()).verdict:
                    for f in (QQ, F2, F3, F5):
                        assert virtually_fpn_fibred(L, n, CoefficientRing.of_field(f)).verdict

    def test_report_json(self):
        obj = virtually_fpn_fibred(c4(), 1, CoefficientRing.of_field(QQ)).to_json_dict()
        assert obj["verdict"] is True
        assert obj["ring"] == "Q" and obj["n"] == 1
        assert obj["obstruction_degree"] is None
        assert obj["witnesses"] == [{"0": 1, "1": 1, "2": 1, "3": 1}]

    def test_inconsistent_report_rejected(self):
        with pytest.raises(ValueError):
            FibringReport(c4(), CoefficientRing.of_field(QQ), 1, False, (), None)


class TestFindCharacters:
    def test_c4_level_one(self):
        L = c4()
        tuples = set(find_characters(L, 1, QQ, 1))
        assert (1, 1, 1, 1) in tuples
        assert (1, 0, 1, 0) not in tuples
        # exactly the all-nonzero labellings survive
        assert len(tuples) == 16

    def test_two_points_no_characters(self):
        assert find_characters(two_points(), 1, QQ, 1) == []

    def test_edge_includes_partial_characters(self):
        L = flag_completion("ab", [("a", "b")])
        tuples = find_characters(L, 1, QQ, 1)
        assert set(tuples) == {
            (1, 1), (1, -1), (-1, 1), (-1, -1),
            (1, 0), (-1, 0), (0, 1), (0, -1),
        }
        assert tuples == sorted(tuples)

    def test_closed_under_negation(self):
        rng = random.Random(10)
        for _ in range(6):
            L = random_flag_complex(rng, 4)
            if not L.vertices:
                continue
            tuples = set(find_characters(L, 1, F2, 2))
            assert tuples == {tuple(-x for x in t) for t in tuples}

    def test_gcd_filter(self):
        L = full_simplex(2)
        tuples = set(find_characters(L, 1, QQ, 2))
        assert (2, 2) not in tuples
        assert (2, 1) in tuples


class TestFibresFibre:
    def test_edge(self):
        assert fibres_fibre_check(flag_completion("ab", [("a", "b")]), 1, QQ, 1)

    def test_c4(self):
        assert fibres_fibre_check(c4(), 1, QQ, 2)
        assert fibres_fibre_check(c4(), 1, F2, 2)

    def test_full_simplex(self):
        for n in range(0, 3):
            assert fibres_fibre_check(full_simplex(4), n, QQ, 1)

    def test_small_random_complexes(self):
        rng = random.Random(11)
        for _ in range(15):
            L = random_flag_complex(rng, 5)
            for field in (QQ, F2):
                for n in (0, 1, 2):
                    assert fibres_fibre_check(L, n, field, 2)


def brute_force_characters(L, n, field, bound) -> list[tuple]:
    """Value tuples of every surjective character in the box passing FP_n."""
    out = []
    for values in product(range(-bound, bound + 1), repeat=len(L.vertices)):
        if any(values):
            phi = Character(L, dict(zip(L.vertices, values)))
            if phi.is_surjective and is_fpn(L, phi, n, field):
                out.append(values)
    return out


def brute_force_fibres_fibre(L, n, field, bound) -> bool:
    verdicts = set()
    for values in brute_force_characters(L, n, field, bound):
        phi = Character(L, dict(zip(L.vertices, values)))
        verdicts.add(all(kernel_betti(L, phi, m, field, enforce=False) == 0 for m in range(n + 1)))
    return len(verdicts) <= 1


class TestNoLeaksBetweenComplexes:
    """Living sets and memos belong to one complex; equal masks on another do not share."""

    def test_searches_match_brute_force_over_characters(self):
        rng = random.Random(2718)
        for trial in range(16):
            bound = 1 if trial < 12 else 2  # bound 2 exercises the gcd filter
            L = random_flag_complex(rng, 6 if bound == 1 else 4)
            # the brute force runs on an equal but separate complex
            twin = flag_completion(L.vertices, L.edges())
            for field in (QQ, F2):
                for n in (0, 1, 2):
                    found = find_characters(L, n, field, bound)
                    assert found == brute_force_characters(twin, n, field, bound)
                    assert fibres_fibre_check(L, n, field, bound) == brute_force_fibres_fibre(
                        twin, n, field, bound
                    )

    def test_degrees_minus_one_and_zero_read_no_core(self, monkeypatch):
        # at n = 1 the living part is tested in degree 0 and dead vertices and
        # edges in degrees 0 and -1, so no living link needs a core
        calls = {"core": 0, "common_neighbours": 0}

        def counting(name):
            original = getattr(SimplicialComplex, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(SimplicialComplex, name, counting(name))
        L = octahedron()
        find_characters(L, 1, QQ, 1)
        fibres_fibre_check(L, 1, QQ, 1)
        assert calls["core"] == 0
        assert 0 < calls["common_neighbours"] <= len(L.faces)  # each face's CN mask is listed once
        find_characters(L, 2, QQ, 1)
        assert calls["core"] > 0  # degree 1 still reads the core

    def test_non_flag_complex_rejected(self):
        L = rp2_six()  # every pair of vertices is an edge, but not every triple a face
        with pytest.raises(ValueError):
            find_characters(L, 1, QQ, 1)
        with pytest.raises(ValueError):
            fibres_fibre_check(L, 1, QQ, 1)

    def test_c4_and_path_interleaved(self):
        # the same labels, so a mask names the same vertex set in both; only
        # the edge 3-0 differs, and with it every answer involving {0, 3}
        square = flag_completion(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        path = flag_completion(range(4), [(0, 1), (1, 2), (2, 3)])

        def answers(L):
            ends_living = Character(L, {0: 1, 1: 0, 2: 0, 3: 1})
            zero_dead = Character(L, {0: 0, 1: 1, 2: 1, 3: 1})
            return (
                reduced_betti(L.full_subcomplex([0, 3]), QQ).reduced_betti,
                fpn_violation(L, ends_living, 1, QQ),
                living_link(L, zero_dead, (0,)).faces,
                reduced_betti(L.link((0,)), F2).reduced_betti,
                len(find_characters(L, 1, QQ, 1)),
                [fibres_fibre_check(L, n, F2, 1) for n in (0, 1, 2)],
            )

        expected = {
            "square": ((0, 0, 0), (1, 2), {(), (1,), (3,)}, (0, 1), 16, [True, True, True]),
            "path": ((0, 1), (), {(), (1,)}, (0, 0), 36, [True, True, True]),
        }
        shared = {"square": square, "path": path}
        for name in ("square", "path", "path", "square", "square", "path"):
            assert answers(shared[name]) == expected[name]


def squared_cycle() -> SimplicialComplex:
    """The clique complex of the 7-cycle with its chords of length 2: a band of seven triangles."""
    return flag_completion(range(7), [(i, (i + d) % 7) for i in range(7) for d in (1, 2)])


class TestOneSweepPerSearch:
    """Each search reads each acyclicity verdict once, and keeps none after it returns."""

    @staticmethod
    def count_tests(monkeypatch) -> list:
        # fibring's own name is counted too, should it ever test a mask without the sweep's memo
        tests = []
        test = kernels.is_n_acyclic_on

        def counting(K, mask, n, field):
            tests.append((mask, n))
            return test(K, mask, n, field)

        monkeypatch.setattr(kernels, "is_n_acyclic_on", counting)
        monkeypatch.setattr(fibring, "is_n_acyclic_on", counting, raising=False)
        return tests

    @pytest.mark.parametrize("build", [octahedron, c4, squared_cycle], ids=["octahedron", "c4", "squared-c7"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_verdict_read_once_per_call(self, monkeypatch, build, n):
        tests = self.count_tests(monkeypatch)
        L = build()
        first = find_characters(L, n, QQ, 1)
        assert tests and len(tests) == len(set(tests))
        once = sorted(tests)
        tests.clear()
        assert find_characters(build(), n, QQ, 1) == first  # an equal complex is tested again
        assert sorted(tests) == once
        tests.clear()
        assert find_characters(L, n, QQ, 1) == first  # and so is the same one
        assert sorted(tests) == once

    def test_fibres_check_reads_each_verdict_once(self, monkeypatch):
        # the vertex links' tests and the sweep's read one memo
        tests = self.count_tests(monkeypatch)
        for L in (octahedron(), squared_cycle()):
            for n in (1, 2, 3):
                tests.clear()
                fibres_fibre_check(L, n, F2, 1)
                assert tests and len(tests) == len(set(tests))
                assert {(L.common_neighbours((v,)), n - 1) for v in L.vertices} <= set(tests)


class TestKazInequality:
    def test_two_points_quotients(self):
        A = Raag(two_points())
        quotients = [abelian_quotient(A, {"a": n, "b": n}) for n in (1, 2, 3)]
        assert kaz_inequality_check(A, quotients, QQ, 1)

    def test_c4_trivial_quotient_equality(self):
        A = Raag(c4())
        assert kaz_inequality_check(A, [abelian_quotient(A, {})], QQ, 2)

    def test_degree_zero_always(self):
        rng = random.Random(12)
        for _ in range(5):
            L = random_flag_complex(rng, 4)
            if not L.vertices:
                continue
            A = Raag(L)
            q = abelian_quotient(A, {v: rng.choice((1, 2)) for v in L.vertices})
            assert kaz_inequality_check(A, [q], F2, 0)


class TestNoFibringObstruction:
    def test_c4_obstructed_in_degree_two(self):
        for field in (QQ, F2, F3):
            assert no_fibring_obstruction(c4(), 2, field) == 2

    def test_full_simplex_unobstructed(self):
        assert no_fibring_obstruction(full_simplex(3), 3, QQ) is None

    def test_rp2_mod_two(self):
        assert no_fibring_obstruction(rp2_flag(), 3, F2) == 2
        assert no_fibring_obstruction(rp2_flag(), 3, QQ) is None
