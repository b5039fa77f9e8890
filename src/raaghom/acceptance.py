"""The acceptance suite: twelve desk-scale exact checks of the library.

Every criterion is a pure function returning ``(passed, detail)``; its
number and name are written once, in `CRITERIA`, and `run` pairs them
with its result as a CriterionResult.  The test suite asserts each one
and the ``raaghom report`` command prints them as a table.  Randomised
criteria take an explicit seed and are deterministic for a fixed seed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from pathlib import Path
from typing import Callable, Optional

from .complexes import (
    ChainVector,
    SimplicialComplex,
    barycentric_subdivision,
    boundary_matrix,
    chain_boundary,
    flag_completion,
    is_n_acyclic,
)
from .exact import F2, QQ, FieldSpec, nullspace
from .fibring import CoefficientRing, fibres_fibre_check, kaz_inequality_check, virtually_fpn_fibred
from .kernels import (
    Character,
    InconsistencyError,
    is_fpn,
    living_link,
    push_cycle_to_living,
    kernel_betti,
    torsion_contributions,
)
from .raags import Raag, abelian_quotient, cover_betti, dfg_betti_raag, salvetti_boundary

F3 = FieldSpec.prime_field(3)

RP2_SIX_TRIANGLES = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 5, 6), (3, 4, 6),
]


class CriterionResult:
    """One criterion's number, name, verdict and detail line; immutable."""

    __slots__ = ("number", "name", "passed", "detail")

    def __init__(self, number: int, name: str, passed: bool, detail: str) -> None:
        object.__setattr__(self, "number", number)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


def rp2_flag_triangulation() -> SimplicialComplex:
    return barycentric_subdivision(SimplicialComplex(range(1, 7), RP2_SIX_TRIANGLES))


def _random_flag(rng: random.Random, max_vertices: int, min_vertices: int = 0) -> SimplicialComplex:
    n = rng.randint(min_vertices, max_vertices)
    p = rng.uniform(0.2, 0.8)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return flag_completion(range(n), edges)


# ---------------------------------------------------------------------------
# criteria 1-3: headline value and gradient closed forms
# ---------------------------------------------------------------------------


def criterion_1() -> tuple[bool, str]:
    """Degree-3 skew-field Betti number of the RAAG on a flag RP^2."""
    A = Raag(rp2_flag_triangulation())
    got_f2 = dfg_betti_raag(A, F2, 3)
    got_q = dfg_betti_raag(A, QQ, 3)
    ok = got_f2 == 1 and got_q == 0
    return ok, f"F2 degree 3 -> {got_f2} (want 1), Q -> {got_q} (want 0)"


def criterion_2() -> tuple[bool, str]:
    """Free-group covers: b_1 = n^2 + 1 so the gradient gap is exactly 1/n^2."""
    L = SimplicialComplex("ab", [("a",), ("b",)])
    A = Raag(L)
    closed = dfg_betti_raag(A, QQ, 1)
    rows = []
    ok = closed == 1
    for n in range(1, 9):
        q = abelian_quotient(A, {"a": n, "b": n})
        report = cover_betti(A, q, QQ)
        b1 = report.betti[1]
        gap = report.normalized[1] - closed
        ok = ok and b1 == n * n + 1 and gap == Fraction(1, n * n)
        rows.append(f"n={n}: b_1={b1}")
    return ok, "; ".join(rows)


def criterion_3() -> tuple[bool, str]:
    """Product-of-free-groups covers: b_2 = (n^2 + 1)^2 by Kunneth."""
    square = flag_completion(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    A = Raag(square)
    rows = []
    ok = True
    for n in (1, 2, 3):
        q = abelian_quotient(A, {v: n for v in square.vertices})
        for field in (F2, QQ):
            b2 = cover_betti(A, q, field).betti[2]
            ok = ok and b2 == (n * n + 1) ** 2
            rows.append(f"n={n}/{field.token()}: b_2={b2}")
    return ok, "; ".join(rows)


# ---------------------------------------------------------------------------
# criterion 4: lower bound inequality on random covers
# ---------------------------------------------------------------------------


def criterion_4(seed: int = 0) -> tuple[bool, str]:
    """`kaz_inequality_check` up to degree 3 on 25 random abelian covers.

    A violation is a (complex, quotient) pair that fails the check.
    """
    rng = random.Random(seed + 401)
    covers, max_degree = 25, 3
    violations = 0
    for _ in range(covers):
        L = _random_flag(rng, 6, min_vertices=1)
        A = Raag(L)
        # random abelian quotient of order <= 81, smaller when the complex is big
        cap = 81 if len(L.faces) <= 24 else 16
        moduli = {}
        order = 1
        for v in L.vertices:
            m = rng.choice((1, 1, 2, 2, 3))
            if order * m <= cap:
                moduli[v] = m
                order *= m
        q = abelian_quotient(A, moduli)
        field = rng.choice((F2, F3, QQ))
        violations += not kaz_inequality_check(A, [q], field, max_degree)
    return (
        violations == 0,
        f"{covers * (max_degree + 1)} (complex, quotient, degree) checks, {violations} violations",
    )


# ---------------------------------------------------------------------------
# criterion 5: boundary composition and trivial covers
# ---------------------------------------------------------------------------


def criterion_5(seed: int = 0) -> tuple[bool, str]:
    rng = random.Random(seed + 500)
    ok = True
    for _ in range(100):
        L = _random_flag(rng, 8)
        A = Raag(L)
        field = rng.choice((F2, QQ))
        for k in range(1, L.dim + 2):
            dk = salvetti_boundary(A, k, field)
            dk1 = salvetti_boundary(A, k + 1, field)
            if not dk.composes_to_zero(dk1):
                ok = False
    trivial_ok = True
    for _ in range(15):
        L = _random_flag(rng, 5)
        A = Raag(L)
        report = cover_betti(A, abelian_quotient(A, {}), F2)
        expected = [L.n_faces(k - 1) for k in range(L.dim + 2)]
        if list(report.betti) != expected:
            trivial_ok = False
    simplex_ok = True
    for k in range(1, 6):
        verts = list(range(k))
        L = flag_completion(verts, list(combinations(verts, 2)))
        A = Raag(L)
        report = cover_betti(A, abelian_quotient(A, {}), QQ)
        if list(report.betti) != [comb(k, p) for p in range(k + 1)]:
            simplex_ok = False
    passed = ok and trivial_ok and simplex_ok
    return (
        passed,
        f"100 symbolic compositions zero: {ok}; trivial covers match face counts: "
        f"{trivial_ok}; simplex tori give binomials: {simplex_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 6: kernel Betti formula self-consistency
# ---------------------------------------------------------------------------


def criterion_6(seed: int = 0) -> tuple[bool, str]:
    point = SimplicialComplex("a", [])
    base_ok = kernel_betti(point, Character(point, {"a": 1}), 0, QQ) == 1
    simplex_ok = True
    for k in (2, 3, 4):
        verts = list(range(k))
        L = flag_completion(verts, list(combinations(verts, 2)))
        phi = Character(L, {v: 1 for v in verts})
        for m in range(0, k + 1):
            if kernel_betti(L, phi, m, QQ) != 0:
                simplex_ok = False
    rng = random.Random(seed + 600)
    sign_ok = True
    for _ in range(1000):
        L = _random_flag(rng, 6, min_vertices=1)
        values = [rng.randint(-3, 3) for _ in L.vertices]
        if all(x == 0 for x in values):
            values[rng.randrange(len(values))] = rng.choice((-1, 1))
        phi = Character(L, dict(zip(L.vertices, values)))
        m = rng.randint(0, 3)
        field = rng.choice((QQ, F2))
        if kernel_betti(L, phi, m, field, enforce=False) != kernel_betti(
            L, phi.negate(), m, field, enforce=False
        ):
            sign_ok = False
    passed = base_ok and simplex_ok and sign_ok
    return (
        passed,
        f"point base case: {base_ok}; simplex kernels vanish: {simplex_ok}; "
        f"1000 sign flips invariant: {sign_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 7: finiteness checker calibration on all-living characters
# ---------------------------------------------------------------------------


def criterion_7(seed: int = 0) -> tuple[bool, str]:
    rng = random.Random(seed + 700)
    ok = True
    for _ in range(50):
        L = _random_flag(rng, 6, min_vertices=1)
        phi = Character(L, {v: 1 for v in L.vertices})
        for field in (QQ, F2):
            for n in range(0, 4):
                if is_fpn(L, phi, n, field) != is_n_acyclic(L, n - 1, field):
                    ok = False
    return ok, "50 complexes, n <= 3, fields Q and F2"


# ---------------------------------------------------------------------------
# criterion 8: constructive cycle pushing
# ---------------------------------------------------------------------------


def _octahedron_join(dead_octahedron_vertices: tuple[str, ...]) -> tuple[SimplicialComplex, Character, str]:
    """Octahedron joined with a dead apex v and a living cone vertex u."""
    oct_verts = ["a0", "a1", "b0", "b1", "c0", "c1"]
    edges = [(x, y) for x in oct_verts for y in oct_verts if x < y and x[0] != y[0]]
    verts = ["v", "u"] + oct_verts
    edges += [("v", "u")]
    edges += [("v", x) for x in oct_verts]
    edges += [("u", x) for x in oct_verts]
    L = flag_completion(verts, edges)
    values = {x: 1 for x in oct_verts}
    values["u"] = 1
    values["v"] = 0
    for d in dead_octahedron_vertices:
        values[d] = 0
    return L, Character(L, values), "v"


def _verify_push(L, phi, v, z, result) -> bool:
    if not result.cycle.supported_in(living_link(L, phi, (v,))):
        return False
    if not chain_boundary(result.cycle).is_zero():
        return False
    diff = z.sub(result.cycle)
    bdry = chain_boundary(result.witness)
    lhs = {f: c for f, c in bdry.coefficients.items() if f}
    rhs = {f: c for f, c in diff.coefficients.items() if f}
    return lhs == rhs


def criterion_8(seed: int = 0) -> tuple[bool, str]:
    rng = random.Random(seed + 800)
    verified = 0
    failures = 0
    solver_failures = 0

    def run_instance(L, phi, v, z, n):
        nonlocal verified, failures, solver_failures
        try:
            res = push_cycle_to_living(L, phi, v, z, n)
        except InconsistencyError:
            solver_failures += 1
            return
        if _verify_push(L, phi, v, z, res):
            verified += 1
        else:
            failures += 1

    # structured depth-2 instances: 1-cycles in the link of the dead apex
    for dead in [("c0",), ("b0", "c0"), ("b0",), ("c1",), ("a1", "c0")]:
        L, phi, v = _octahedron_join(dead)
        if not is_fpn(L, phi, 2, QQ):
            continue
        lk = L.link((v,))
        for field in (QQ, F2, F3):
            if not is_fpn(L, phi, 2, field):
                continue
            d1 = boundary_matrix(lk, 1, augmented=False).over_field(field)
            edge_faces = lk.faces_of_dim(1)
            for vec in nullspace(d1):
                z = ChainVector(1, field, {edge_faces[i]: c for i, c in enumerate(vec) if c != 0})
                run_instance(L, phi, v, z, 2)

    # random depth-1 instances: 0-cycles in links of dead vertices
    attempts = 0
    while verified + failures < 100 and attempts < 4000:
        attempts += 1
        L = _random_flag(rng, 6, min_vertices=2)
        values = [rng.choice((0, 0, 1, 1, -1, 2)) for _ in L.vertices]
        if all(x == 0 for x in values):
            continue
        phi = Character(L, dict(zip(L.vertices, values)))
        field = rng.choice((QQ, F2, F3))
        if not is_fpn(L, phi, 1, field):
            continue
        dead = [v for v in L.vertices if phi(v) == 0]
        rng.shuffle(dead)
        for v in dead:
            lk = L.link((v,))
            if len(lk.vertices) < 2:
                continue
            a, b = rng.sample(list(lk.vertices), 2)
            z = ChainVector(0, field, {(a,): field.one, (b,): field.neg(field.one)})
            run_instance(L, phi, v, z, 1)
            break
    total = verified + failures
    passed = total >= 100 and failures == 0 and solver_failures == 0
    return (
        passed,
        f"{verified} pushes verified exactly, {failures} verification failures, "
        f"{solver_failures} solver failures",
    )


# ---------------------------------------------------------------------------
# criterion 9: fibres-fibre agreement, exhaustive over small flag complexes
# ---------------------------------------------------------------------------


def nonisomorphic_graphs(max_vertices: int):
    """One representative edge list per isomorphism class, all vertex counts.

    Edge sets are bitmasks over the vertex pairs.  Masks are scanned in
    ascending order; each one not yet seen is the least of its S_n orbit,
    so it is emitted and its whole orbit is marked as seen.
    """
    for n in range(max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        pair_index = {p: i for i, p in enumerate(pairs)}
        remaps = [
            [pair_index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
            for perm in permutations(range(n))
        ]
        seen = bytearray(1 << len(pairs))
        for mask in range(len(seen)):
            if seen[mask]:
                continue
            edges = [e for e in range(len(pairs)) if mask >> e & 1]
            yield n, tuple(pairs[e] for e in edges)
            for remap in remaps:
                image = 0
                for e in edges:
                    image |= 1 << remap[e]
                seen[image] = 1


def criterion_9() -> tuple[bool, str]:
    counted = 0
    counterexamples = []
    for n_verts, edges in nonisomorphic_graphs(6):
        L = flag_completion(range(n_verts), edges)
        counted += 1
        for field in (QQ, F2):
            for level in (0, 1, 2):
                if not fibres_fibre_check(L, level, field, 2):
                    counterexamples.append((n_verts, edges, field.token(), level))
    ok = not counterexamples and counted == 209  # 1+1+2+4+11+34+156 classes
    return (
        ok,
        f"{counted} isomorphism classes of flag complexes on <= 6 vertices, "
        f"levels 0..2, fields Q and F2; counterexamples: {counterexamples!r}",
    )


# ---------------------------------------------------------------------------
# criteria 10-11: fibring trichotomy and torsion term
# ---------------------------------------------------------------------------


def criterion_10() -> tuple[bool, str]:
    L = rp2_flag_triangulation()
    over_q = virtually_fpn_fibred(L, 2, CoefficientRing.of_field(QQ)).verdict
    over_f2 = virtually_fpn_fibred(L, 2, CoefficientRing.of_field(F2)).verdict
    over_z = virtually_fpn_fibred(L, 2, CoefficientRing.integers()).verdict
    ok = over_q is True and over_f2 is False and over_z is False
    return (
        ok,
        f"Q: {over_q} (want True), F2: {over_f2} (want False), Z: {over_z} (want False)",
    )


def criterion_11() -> tuple[bool, str]:
    rp2 = rp2_flag_triangulation()
    apex = "apex"
    edges = list(rp2.faces_of_dim(1)) + [(apex, w) for w in rp2.vertices]
    L = flag_completion([apex] + list(rp2.vertices), edges)
    values = {w: 1 for w in rp2.vertices}
    values[apex] = 2
    phi = Character(L, values)
    contribution = torsion_contributions(L, phi, 2)[apex]
    ok = contribution == 4
    return ok, f"apex with doubled weight contributes {contribution} (want 4)"


# ---------------------------------------------------------------------------
# criterion 12: CLI determinism
# ---------------------------------------------------------------------------


def _run_cli(args: list[str], cwd: Path) -> tuple[int, bytes, bytes]:
    # The child runs in another directory, so a relative PYTHONPATH entry
    # would no longer find this package: put its absolute root first.
    package_root = str(Path(__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + inherited if inherited else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "raaghom.cli", *args],
        capture_output=True,
        cwd=str(cwd),
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def criterion_12() -> tuple[bool, str]:
    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = Path(tmp)
        rp2 = rp2_flag_triangulation()
        rp2_faces = [
            [str(v) for v in f]
            for k in range(rp2.dim + 1)
            for f in rp2.faces_of_dim(k)
        ]
        (tmpdir / "rp2.json").write_text(
            json.dumps({"vertices": [str(v) for v in rp2.vertices], "faces": rp2_faces})
        )
        (tmpdir / "two_points.json").write_text(json.dumps({"vertices": ["a", "b"], "edges": []}))
        (tmpdir / "simplex3.json").write_text(
            json.dumps({"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [0, 2]]})
        )
        commands = [
            ["betti", "--complex", "rp2.json", "--field", "F2", "--degrees", "0..3"],
            [
                "gradient", "--complex", "two_points.json", "--field", "F2",
                "--chain", "abelian:2,3,4", "--degree", "1", "--format", "csv",
            ],
            ["fibring", "--complex", "simplex3.json", "--ring", "Z", "--n", "2"],
        ]
        details = []
        ok = True
        for cmd in commands:
            code1, out1, err1 = _run_cli(cmd, tmpdir)
            code2, out2, err2 = _run_cli(cmd, tmpdir)
            same = code1 == code2 == 0 and out1 == out2 and err1 == err2
            ok = ok and same
            details.append(f"{cmd[0]}: {'identical' if same else 'DIFFERS'}")
        # spot-check the documented values
        _, out, _ = _run_cli(commands[0], tmpdir)
        betti = json.loads(out)["dfg_betti"]
        ok = ok and betti == [0, 0, 1, 1]
        details.append(f"betti values {betti}")
        _, out, _ = _run_cli(commands[1], tmpdir)
        lines = out.decode().strip().splitlines()
        expected = ["N,b_1,b_1/N", "4,5,5/4", "9,10,10/9", "16,17,17/16"]
        ok = ok and lines == expected
        details.append("gradient rows match" if lines == expected else f"gradient rows {lines!r}")
        _, out, _ = _run_cli(commands[2], tmpdir)
        ok = ok and json.loads(out)["verdict"] is True
    return ok, "; ".join(details)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


CRITERIA: list[tuple[int, str, Callable[..., tuple[bool, str]], bool]] = [
    (1, "rp2-headline", criterion_1, False),
    (2, "gradient-free-group", criterion_2, False),
    (3, "gradient-kunneth", criterion_3, False),
    (4, "lower-bound-inequality", criterion_4, True),
    (5, "salvetti-dd-zero", criterion_5, True),
    (6, "kernel-betti-consistency", criterion_6, True),
    (7, "finiteness-calibration", criterion_7, True),
    (8, "cycle-pushing", criterion_8, True),
    (9, "fibres-fibre-exhaustive", criterion_9, False),
    (10, "rp2-fibring-trichotomy", criterion_10, False),
    (11, "torsion-term", criterion_11, False),
    (12, "cli-determinism", criterion_12, False),
]


def run(numbers: Optional[list[int]] = None, seed: int = 0) -> list[CriterionResult]:
    wanted = set(numbers) if numbers else None
    results = []
    for number, name, fn, seeded in CRITERIA:
        if wanted is not None and number not in wanted:
            continue
        results.append(CriterionResult(number, name, *(fn(seed) if seeded else fn())))
    return results
