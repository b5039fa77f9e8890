"""Tests for raaghom.exact: rank, solve, nullspace, Smith normal form."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from raaghom import exact
from raaghom.complexes import SimplicialComplex, boundary_matrix
from raaghom.exact import (
    _PRIME_TEST_BOUND,
    F2,
    QQ,
    ExactMatrix,
    FieldSpec,
    IntMatrix,
    SmithForm,
    _is_prime,
    nullspace,
    rank,
    smith_normal_form,
    solve,
)

from fixtures import RP2_6_TRIANGLES
from oracles import (
    bareiss_determinant,
    brute_force_has_solution,
    dense_rank_mod_p,
    dense_rank_rationals,
    determinantal_divisors,
    rref_kernel_basis,
    rref_solution,
)

F3 = FieldSpec.prime_field(3)
F5 = FieldSpec.prime_field(5)


def random_int_matrix(rng, rows, cols, density=0.5, lo=-4, hi=4):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    entries[(r, c)] = v
    return IntMatrix(rows, cols, entries)


def in_scalar_form(values, field: FieldSpec) -> bool:
    """The scalar rule: an int in [0, p) over F_p; over Q an int when integral and a Fraction otherwise."""
    if field.char:
        return all(type(v) is int and 0 <= v < field.char for v in values)
    return all(type(v) is (int if Fraction(v).denominator == 1 else Fraction) for v in values)


def dense_rows(m: IntMatrix) -> list[list[int]]:
    return [[m.entry(r, c) for c in range(m.cols)] for r in range(m.rows)]


def oracle_rank(m: IntMatrix, field: FieldSpec) -> int:
    if field.char == 0:
        return dense_rank_rationals([[Fraction(v) for v in row] for row in dense_rows(m)])
    return dense_rank_mod_p(dense_rows(m), field.char)


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def sparse_int_matrices(draw, max_dim=40, values=(-3, -2, -1, 1, 2, 3)):
    """A random integer matrix up to max_dim x max_dim, 5-50% of entries nonzero."""
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    density = draw(st.sampled_from((0.05, 0.1, 0.2, 0.5)))
    rng = draw(st.randoms(use_true_random=False))
    entries = {
        (r, c): rng.choice(values) for r in range(rows) for c in range(cols) if rng.random() < density
    }
    return IntMatrix(rows, cols, entries)


@st.composite
def simplicial_complexes(draw):
    """The closure of up to 12 random faces of dimension <= 3 on <= 7 vertices."""
    n = draw(st.integers(0, 7))
    if not n:
        return SimplicialComplex([])
    faces = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4), max_size=12))
    return SimplicialComplex(range(n), faces)


@st.composite
def low_rank_systems(draw):
    """A product B C of integer matrices through at most 3 dimensions, and a right-hand side.

    Some rows and columns are then zeroed, so the matrix is rank-deficient,
    with empty rows and columns; the right-hand side is B C y for a drawn y
    (consistent) or drawn outright (often inconsistent).
    """
    rows, cols, inner = draw(st.integers(0, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 3))
    small = st.integers(-2, 2)
    left = [[draw(small) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(small) for _ in range(cols)] for _ in range(inner)]
    empty_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2))
    empty_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2))
    dense = [
        [
            0 if r in empty_rows or c in empty_cols else sum(left[r][k] * right[k][c] for k in range(inner))
            for c in range(cols)
        ]
        for r in range(rows)
    ]
    if draw(st.booleans()):
        y = [draw(small) for _ in range(cols)]
        b = [sum(a * v for a, v in zip(row, y)) for row in dense]
    else:
        b = [draw(small) for _ in range(rows)]
    return IntMatrix.from_rows(dense) if rows else IntMatrix(0, cols), dense, b


@st.composite
def block_permutation_matrices(draw):
    """Blocks 0, +-P or P - I for permutation matrices P, as finite covers give.

    Most rows have the same length, so pivot search meets many ties and
    rows move between length buckets as elimination proceeds.
    """
    n = draw(st.integers(1, 8))
    block_rows, block_cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries: dict[tuple[int, int], int] = {}
    for i in range(block_rows):
        for j in range(block_cols):
            kind = draw(st.sampled_from(("zero", "plus", "minus", "shifted")))
            if kind == "zero":
                continue
            perm = draw(st.permutations(range(n)))
            for a in range(n):
                key = (i * n + a, j * n + perm[a])
                entries[key] = entries.get(key, 0) + (-1 if kind == "minus" else 1)
                if kind == "shifted":
                    diag = (i * n + a, j * n + a)
                    entries[diag] = entries.get(diag, 0) - 1
    return IntMatrix(block_rows * n, block_cols * n, entries)


class TestFieldSpec:
    def test_tokens_round_trip(self):
        for tok in ["Q", "F2", "F3", "F97"]:
            assert FieldSpec.from_token(tok).token() == tok
        # read only as `token` writes it: F0 is not Q, F03 is not F3
        for tok in ["F0", "F03", "F٣", "F²", " Q", "Q ", "F 2", "F+2", "F2_0", "F", "", "q", "0", "2"]:
            with pytest.raises(ValueError):
                FieldSpec.from_token(tok)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.text(alphabet="QF0123579٣² _+-", max_size=4))
    def test_every_token_read_is_written_back_unchanged(self, tok):
        try:
            field = FieldSpec.from_token(tok)
        except ValueError:
            return
        assert field.token() == tok

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec.prime_field(6)
        with pytest.raises(ValueError):
            FieldSpec.from_token("F4")

    def test_pseudoprimes_rejected(self):
        # Carmichael numbers 561 and 41041, the base-2 strong pseudoprime 2047,
        # and the least strong pseudoprime to the first 12 prime bases
        for n in (561, 41041, 2047, 318665857834031151167461):
            with pytest.raises(ValueError):
                FieldSpec.prime_field(n)
        for p in (1000000000000037, 2**61 - 1):
            assert FieldSpec.prime_field(p).char == p

    def test_primality_agrees_with_a_sieve_below_100000(self):
        sieve = [False, False] + [True] * (10**5 - 2)
        for i in range(2, 317):
            if sieve[i]:
                sieve[i * i :: i] = [False] * len(range(i * i, 10**5, i))
        assert [_is_prime(n) for n in range(10**5)] == sieve

    def test_characteristic_beyond_the_proven_test_raises(self):
        # the least strong pseudoprime to the first 13 prime bases: the test is proven below it
        for n in (_PRIME_TEST_BOUND, _PRIME_TEST_BOUND + 2, 10**30 + 57):
            with pytest.raises(ValueError, match="not below"):
                FieldSpec.prime_field(n)

    def test_fraction_coercion_mod_p(self):
        assert F3.of(Fraction(1, 2)) == 2  # 1/2 = 2 mod 3
        with pytest.raises(ZeroDivisionError):
            F2.of(Fraction(1, 2))

    def test_integral_rationals_are_ints(self):
        for value, expected in ((3, 3), (Fraction(4, 2), 2), ("2/1", 2), ("-6/3", -2)):
            assert type(QQ.of(value)) is int and QQ.of(value) == expected
        for value, expected in (("1/2", Fraction(1, 2)), (Fraction(-3, 4), Fraction(-3, 4))):
            assert type(QQ.of(value)) is Fraction and QQ.of(value) == expected


class TestIntMatrix:
    """An integer matrix is an `ExactMatrix` over Q with int entries."""

    def test_constructors_give_int_entries(self):
        assert IntMatrix(2, 3, {(0, 1): 4, (1, 2): -1, (1, 0): 0}).entries == {(0, 1): 4, (1, 2): -1}
        assert IntMatrix.from_rows([[1, 0], [0, -2]]).entries == {(0, 0): 1, (1, 1): -2}
        d = IntMatrix.diagonal([2, 0, 5], rows=3, cols=4)
        assert (d.rows, d.cols, d.entries) == (3, 4, {(0, 0): 2, (2, 2): 5})
        for m in (IntMatrix(1, 1, {(0, 0): Fraction(6, 3)}), IntMatrix.from_rows([[3]])):
            assert all(type(v) is int for v in m.entries.values())

    def test_transpose_mul_and_reduction(self):
        m = IntMatrix.from_rows([[1, 2, 0], [0, -3, 4]])
        assert m.transpose().entries == {(0, 0): 1, (1, 0): 2, (1, 1): -3, (2, 1): 4}
        assert m.mul(m.transpose()).entries == {(0, 0): 5, (0, 1): -6, (1, 0): -6, (1, 1): 25}
        assert m.over_field(F3).entries == {(0, 0): 1, (0, 1): 2, (1, 2): 1}
        assert m.over_field(F2).entries == {(0, 0): 1, (1, 1): 1}

    def test_over_q_is_the_matrix_itself(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert m.over_field(QQ) is m
        d = boundary_matrix(SimplicialComplex(range(4), [(0, 1, 2), (1, 2, 3)]), 2)
        assert d.over_field(QQ) is d
        assert all(type(v) is int for v in d.entries.values())

    def test_equals_the_matrix_over_q_with_the_same_ints(self):
        m = IntMatrix.from_rows([[1, 0], [-2, 7]])
        assert m == ExactMatrix.from_rows([[1, 0], [-2, 7]], QQ)
        assert ExactMatrix.from_rows([[1, 0], [-2, 7]], QQ) == m
        assert m != ExactMatrix.from_rows([[1, 0], [-2, 7]], F3)

    def test_ragged_rows_and_fractions_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntMatrix(1, 1, {(0, 0): Fraction(1, 2)})

    def test_only_a_matrix_over_q_changes_field(self):
        with pytest.raises(ValueError):
            ExactMatrix.from_rows([[1]], F2).over_field(F3)


class TestRank:
    def test_empty_matrix(self):
        assert rank(ExactMatrix.zeros(0, 0, QQ)) == 0

    def test_identity_over_f2(self):
        assert rank(ExactMatrix.identity(3, F2)) == 3

    def test_rank_drop_under_specialisation(self):
        # [[2,4],[1,2]] has rank 1 over Q; over F_2 it reduces to
        # [[0,0],[1,0]] which still has rank 1
        data = [[2, 4], [1, 2]]
        assert dense_rank_rationals([[Fraction(v) for v in row] for row in data]) == 1
        assert dense_rank_mod_p(data, 2) == 1
        assert rank(ExactMatrix.from_rows(data, QQ)) == 1
        assert rank(ExactMatrix.from_rows(data, F2)) == 1
        # a matrix that genuinely dies mod 2
        dead = [[2, 4], [6, 2]]
        assert rank(ExactMatrix.from_rows(dead, QQ)) == 2
        assert rank(ExactMatrix.from_rows(dead, F2)) == 0

    def test_big_entries_without_unit_pivots(self):
        # determinant -1, no entry +-1: the elimination divides by a big
        # pivot, which floating point would round to rank 1
        big = 10**20
        assert rank(ExactMatrix.from_rows([[big + 1, big], [big, big - 1]], QQ)) == 2

    def test_matches_dense_oracle_random(self):
        rng = random.Random(20240811)
        for _ in range(60):
            m = random_int_matrix(rng, rng.randint(0, 7), rng.randint(0, 7))
            rows = dense_rows(m)
            assert rank(m.over_field(QQ)) == dense_rank_rationals(
                [[Fraction(v) for v in row] for row in rows]
            )
            for p in (2, 3, 5):
                fp = FieldSpec.prime_field(p)
                assert rank(m.over_field(fp)) == dense_rank_mod_p(rows, p)

    @PROPERTY
    @given(
        st.one_of(
            sparse_int_matrices(), sparse_int_matrices(values=(2, 3, -4)), block_permutation_matrices()
        ),
        st.sampled_from((QQ, F2, F3)),
    )
    def test_matches_dense_oracle_property(self, m, field):
        assert rank(m.over_field(field)) == oracle_rank(m, field)

    def test_rank_equals_rank_of_transpose(self):
        rng = random.Random(7)
        for _ in range(40):
            m = random_int_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
            for field in (QQ, F2, F3):
                em = m.over_field(field)
                assert rank(em) == rank(em.transpose())

    def test_rank_over_q_at_least_rank_mod_p(self):
        rng = random.Random(99)
        for _ in range(40):
            m = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), lo=-6, hi=6)
            rq = rank(m.over_field(QQ))
            for p in (2, 3, 5):
                assert rq >= rank(m.over_field(FieldSpec.prime_field(p)))


class TestPackedRank:
    """`rank` over F2 and F3 reduces bit-packed lines whenever its memory rule allows."""

    @PROPERTY
    @given(
        st.one_of(
            sparse_int_matrices(), sparse_int_matrices(values=(1, 2)), block_permutation_matrices()
        ),
        st.sampled_from((F2, F3)),
    )
    def test_matches_dense_oracle_and_sparse_elimination(self, m, field):
        # sparse_int_matrices draws rows and columns apart, so tall and wide shapes both occur
        for em in (m.over_field(field), m.over_field(field).transpose()):
            assert exact._packed_rank(em) == exact._sparse_rank(em) == oracle_rank(m, field)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)], ids=["wide", "tall"])
    def test_every_small_matrix_over_f3(self, shape):
        # every pair of leading entries meets: one adds the pivot, the other subtracts it
        rows, cols = shape
        for values in itertools.product(range(3), repeat=rows * cols):
            dense = [list(values[r * cols : (r + 1) * cols]) for r in range(rows)]
            assert exact._packed_rank(ExactMatrix.from_rows(dense, F3)) == dense_rank_mod_p(dense, 3)

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    def test_empty_and_all_zero_matrices(self, field):
        for r, c in ((0, 0), (0, 7), (7, 0), (1, 1), (5, 9), (9, 5)):
            m = ExactMatrix.zeros(r, c, field)
            assert exact._packed_rank(m) == exact._sparse_rank(m) == rank(m) == 0

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    def test_small_matrix_never_builds_the_sparse_index(self, field, monkeypatch):
        def refuse(entries):
            raise AssertionError("_index built")

        monkeypatch.setattr(exact, "_index", refuse)
        m = ExactMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]], field)
        assert rank(m) == (2 if field == F2 else 3)
        assert rank(ExactMatrix.zeros(0, 0, field)) == 0

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    def test_memory_rule_picks_the_path(self, field, monkeypatch):
        # an n x n identity at the rule's bound, (p - 1) n^2 = 8 * bytes per entry * n, is packed;
        # with one nonzero fewer, or as a tall matrix of the same nonzeros, it is not
        taken = []

        def spy(name):
            real = getattr(exact, name)

            def call(m):
                taken.append(name)
                return real(m)

            return call

        for name in ("_packed_rank", "_sparse_rank"):
            monkeypatch.setattr(exact, name, spy(name))
        n = 8 * exact._INDEX_BYTES_PER_ENTRY // (field.char - 1)
        identity = {(i, i): 1 for i in range(n)}
        cases = [
            (ExactMatrix(n, n, field, identity), n, "_packed_rank"),
            (ExactMatrix(n, n, field, {k: v for k, v in identity.items() if k != (0, 0)}), n - 1, "_sparse_rank"),
            (ExactMatrix(4 * n, 2 * n, field, identity), n, "_sparse_rank"),
        ]
        for m, expected, path in cases:
            assert rank(m) == expected
            assert taken.pop() == path and not taken

    def test_q_and_larger_primes_stay_sparse(self, monkeypatch):
        def refuse(m):
            raise AssertionError("packed")

        monkeypatch.setattr(exact, "_packed_rank", refuse)
        for field in (QQ, F5, FieldSpec.prime_field(7)):
            assert rank(ExactMatrix.identity(3, field)) == 3


class TestSolve:
    def test_identity(self):
        m = ExactMatrix.identity(4, QQ)
        b = [Fraction(3), Fraction(-1), Fraction(0), Fraction(7, 2)]
        x = solve(m, b)
        assert x == b
        assert in_scalar_form(x, QQ)  # 3, -1 and 0 come back as ints

    def test_unit_pivots_give_ints(self):
        # every pivot of the elimination is +-1, so no value is ever a Fraction
        m = ExactMatrix.from_rows([[1, 2, 0], [-1, -1, 1], [2, 4, -1]], QQ)
        x = solve(m, [5, -1, 9])
        assert x == [-1, 3, 1]
        assert all(type(v) is int for v in x)
        assert all(type(v) is int for v in m.mul_vector(x))

    def test_zero_matrix_no_solution(self):
        m = ExactMatrix.zeros(2, 3, F2)
        assert solve(m, [1, 0]) is None
        assert solve(m, [0, 0]) == [0, 0, 0]

    def test_odd_support_sum_over_f2(self):
        m = ExactMatrix.from_rows([[1, 1]], F2)
        x = solve(m, [1])
        assert x is not None
        assert sum(x) % 2 == 1
        assert m.mul_vector(x) == [1]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve(ExactMatrix.identity(2, QQ), [Fraction(1)])

    def test_solutions_verified_and_failures_brute_forced(self):
        rng = random.Random(4242)
        for _ in range(80):
            rows_n = rng.randint(1, 4)
            cols_n = rng.randint(1, 5)
            p = rng.choice((2, 3))
            fp = FieldSpec.prime_field(p)
            m = random_int_matrix(rng, rows_n, cols_n, density=0.6, lo=0, hi=p - 1)
            b = [rng.randrange(p) for _ in range(rows_n)]
            x = solve(m.over_field(fp), b)
            if x is not None:
                assert m.over_field(fp).mul_vector(x) == [v % p for v in b]
                assert in_scalar_form(x, fp)
            else:
                assert not brute_force_has_solution(dense_rows(m), b, p, cols_n)

    def test_rational_solution_exact(self):
        m = ExactMatrix.from_rows([[2, 1], [1, 3]], QQ)
        x = solve(m, [Fraction(1), Fraction(0)])
        assert x == [Fraction(3, 5), Fraction(-1, 5)]


class TestNullspace:
    def test_dimension_theorem(self):
        rng = random.Random(11)
        for _ in range(30):
            m = random_int_matrix(rng, rng.randint(0, 5), rng.randint(0, 5))
            for field in (QQ, F3):
                em = m.over_field(field)
                basis = nullspace(em)
                assert len(basis) == em.cols - rank(em)
                for vec in basis:
                    assert in_scalar_form(vec, field)
                    products = em.mul_vector(vec)
                    assert all(v == 0 for v in products) and in_scalar_form(products, field)

    def test_circle_cycle(self):
        # boundary of a 3-cycle graph: kernel is one-dimensional
        d1 = ExactMatrix.from_rows([[-1, 0, 1], [1, -1, 0], [0, 1, -1]], QQ)
        basis = nullspace(d1)
        assert len(basis) == 1


class TestEchelonOutputs:
    """`solve` and `nullspace` give exactly the vectors their docstrings specify."""

    @PROPERTY
    @given(low_rank_systems(), st.sampled_from((QQ, F2, F3)))
    @example((IntMatrix(0, 3), [], []), QQ)
    @example((IntMatrix(2, 0), [[], []], [0, 1]), F2)
    def test_solve_and_nullspace_match_reduced_row_echelon_form(self, system, field):
        m, dense, b = system
        em = m.over_field(field)
        p = field.char
        x, basis = solve(em, b), nullspace(em)
        assert x == rref_solution(dense, b, m.cols, p)
        assert basis == rref_kernel_basis(dense, m.cols, p)
        for vec in basis + ([x, em.mul_vector(x)] if x is not None else []):
            assert in_scalar_form(vec, field)


class TestSmithNormalForm:
    def test_diag_2_3(self):
        sf = smith_normal_form(IntMatrix.diagonal([2, 3]))
        assert sf.rank == 2
        assert sf.elementary_divisors == (1, 6)

    def test_zero_matrix(self):
        sf = smith_normal_form(IntMatrix(3, 4, {}))
        assert sf.rank == 0
        assert sf.elementary_divisors == ()

    def test_divisor_chain_enforced_by_type(self):
        with pytest.raises(ValueError):
            SmithForm(rank=2, elementary_divisors=(2, 3))
        with pytest.raises(ValueError):
            SmithForm(rank=1, elementary_divisors=(1, 2))

    def test_product_of_divisors_is_abs_determinant(self):
        rng = random.Random(314)
        done = 0
        while done < 25:
            n = rng.randint(1, 5)
            m = random_int_matrix(rng, n, n, density=0.8, lo=-5, hi=5)
            det = bareiss_determinant(dense_rows(m))
            if det == 0:
                continue
            sf = smith_normal_form(m)
            assert sf.rank == n
            prod = 1
            for d in sf.elementary_divisors:
                prod *= d
            assert prod == abs(det)
            done += 1

    def test_rank_matches_rational_rank(self):
        rng = random.Random(2718)
        for _ in range(30):
            m = random_int_matrix(rng, rng.randint(0, 5), rng.randint(0, 6))
            assert smith_normal_form(m).rank == rank(m.over_field(QQ))

    @PROPERTY
    @given(
        st.one_of(
            sparse_int_matrices(max_dim=5, values=(-6, -4, -3, -2, 2, 3, 4, 6)),
            sparse_int_matrices(max_dim=5, values=range(-9, 10)),
        )
    )
    @example(IntMatrix.diagonal([4, 6]))
    @example(IntMatrix.diagonal([6, 10, 15]))
    @example(IntMatrix.from_rows([[4, 6], [6, 4]]))
    # ties of least |value|: picking a new pivot after transposing cycles on both
    @example(IntMatrix(4, 5, {(0, 0): 6, (0, 3): 2, (0, 4): 6, (1, 0): -2, (1, 3): 6, (1, 4): 6,
                              (2, 0): -4, (2, 4): 4, (3, 0): 2, (3, 1): -4, (3, 2): 4, (3, 4): -2}))
    @example(IntMatrix(4, 2, {(0, 0): -4, (0, 1): 2, (1, 0): 2, (2, 1): 2, (3, 0): -4, (3, 1): 6}))
    def test_matches_determinantal_divisors(self, m):
        # entries without units make the least-|value| pivot rule run
        ds = determinantal_divisors(dense_rows(m))
        expected = tuple(d // prev for prev, d in zip([1] + ds, ds))
        assert smith_normal_form(m).elementary_divisors == expected

    @PROPERTY
    @given(simplicial_complexes())
    @example(SimplicialComplex(range(1, 7), RP2_6_TRIANGLES))
    def test_boundary_matrices_against_ranks_mod_p(self, K):
        # +-1 boundaries take the unit-pivot path; over F_p the rank is the
        # number of elementary divisors prime to p
        for k in range(K.dim + 2):
            m = boundary_matrix(K, k)
            divisors = smith_normal_form(m).elementary_divisors
            assert len(divisors) == oracle_rank(m, QQ)
            for p in (2, 3, 5):
                assert sum(d % p != 0 for d in divisors) == oracle_rank(m, FieldSpec.prime_field(p))

    def test_rejects_matrices_that_are_not_over_z(self):
        with pytest.raises(ValueError):
            smith_normal_form(ExactMatrix.from_rows([[2, 0], [0, 3]], F5))
        with pytest.raises(ValueError):
            smith_normal_form(ExactMatrix.from_rows([[Fraction(1, 2)]], QQ))

    def test_integer_matrix_over_q_gives_int_divisors(self):
        divisors = smith_normal_form(ExactMatrix.from_rows([[2, 4], [6, 8]], QQ)).elementary_divisors
        assert divisors == (2, 4)
        assert all(type(d) is int for d in divisors)

    def test_known_presentation(self):
        # cokernel Z/2 + Z/4: divisors (2, 4) after chain repair
        m = IntMatrix.from_rows([[2, 0], [2, 4]])
        sf = smith_normal_form(m)
        assert sf.elementary_divisors == (2, 4)
        assert sf.torsion_divisors == (2, 4)


class TestSerialisation:
    def test_no_zero_entries_stored(self):
        m = ExactMatrix(2, 2, F2, {(0, 0): 2, (1, 1): 1})
        assert m.nnz == 1
