"""Seeded inputs for the four benchmark workloads.

``generate(workload, seed)`` returns a plan (the job list with what each
job's output is checked against) and the input files the jobs read.  The
same workload and seed always give byte-identical plans and files.  The
expected values come from closed forms and from ``oracle``, never from
raaghom, so the check is independent of the program under test.

Every workload has a fixed list of job slots, and the degrees and levels
each slot asks for cycle through the same values at every seed; the seed
draws the graphs, permutations, characters, vertex orders and cycles
inside each slot, so the amount of work per run varies little from seed
to seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import prod

from oracle import FlagComplex, bits, orbit_count, prime_factors, surjective

WORKLOADS = ("cover-abelian", "cover-elim", "sweep", "integral")

FIELD_CHAR = {"Q": 0, "F2": 2, "F3": 3, "F5": 5}


def canonical_digest(obj) -> str:
    """Digest of a JSON value, independent of key order and whitespace."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


class Complex:
    """A generated flag complex: labels in complex order plus an oracle copy."""

    def __init__(self, labels: list[str], edges: list[tuple[int, int]]) -> None:
        self.labels = labels
        self.edges = sorted(tuple(sorted(e)) for e in edges)
        self.flag = FlagComplex(len(labels), self.edges)

    def edge_json(self) -> dict:
        return {
            "vertices": self.labels,
            "edges": [[self.labels[u], self.labels[v]] for u, v in self.edges],
        }


def labelled(rng: random.Random, n: int, edges, prefix: str = "v") -> Complex:
    """Give vertices 0..n-1 labels and a random position in the vertex order."""
    order = list(range(n))
    rng.shuffle(order)  # order[i] is the original vertex at position i
    pos = {orig: i for i, orig in enumerate(order)}
    labels = [f"{prefix}{orig}" for orig in order]
    return Complex(labels, [(pos[u], pos[v]) for u, v in edges])


def join_graph(a: int, b: int) -> list[tuple[int, int]]:
    """K_{a,b}: the join of a discrete a-set (0..a-1) and b-set (a..a+b-1)."""
    return [(i, a + j) for i in range(a) for j in range(b)]


# The 6-vertex RP^2, the 7-vertex torus, and a 9-vertex Klein bottle cut
# from a 3x3 grid whose horizontal sides are glued with a flip.
RP2 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
       (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 5, 6), (3, 4, 6)]
TORUS = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    (i, (i + 2) % 7, (i + 3) % 7) for i in range(7)
]


def _klein(a: int = 3, b: int = 3) -> list[tuple[int, int, int]]:
    def vid(i: int, j: int) -> int:
        if i == a:
            i, j = 0, -j
        return i * b + j % b

    tris = []
    for i in range(a):
        for j in range(b):
            p, q, r, s = vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)
            tris += [(p, q, s), (p, r, s)]
    return tris


KLEIN = _klein()

# Reduced integral homology (free rank, torsion) in degrees 0, 1, 2.
SURFACE_HOMOLOGY = {
    "rp2": ((0, ()), (0, (2,)), (0, ())),
    "torus": ((0, ()), (2, ()), (1, ())),
    "klein": ((0, ()), (1, (2,)), (0, ())),
}
SURFACES = {"rp2": RP2, "torus": TORUS, "klein": KLEIN}


def subdivide(triangles) -> tuple[int, list[tuple[int, int, int]]]:
    """Barycentric subdivision of a pure 2-complex: (vertex count, triangles)."""
    cells = set()
    for t in triangles:
        t = tuple(sorted(t))
        for k in (1, 2, 3):
            cells.update(combinations(t, k))
    index = {c: i for i, c in enumerate(sorted(cells, key=lambda c: (len(c), c)))}
    out = []
    for t in triangles:
        t = tuple(sorted(t))
        for e in combinations(t, 2):
            for v in e:
                out.append((index[(v,)], index[e], index[t]))
    return len(index), out


def surface(name: str, times: int) -> tuple[int, list[tuple[int, int, int]]]:
    n, tris = 0, SURFACES[name]
    for _ in range(times):
        n, tris = subdivide(tris)
    return n, tris


def surface_homology(name: str, degree: int) -> tuple[int, tuple[int, ...]]:
    """Reduced integral homology (free rank, torsion) in any degree."""
    return SURFACE_HOMOLOGY[name][degree] if 0 <= degree <= 2 else (0, ())


def field_betti(name: str, p: int, degree: int) -> int:
    """Reduced Betti number of a surface over Q or F_p, by universal coefficients."""
    def tors(d: int) -> int:
        return sum(1 for t in surface_homology(name, d)[1] if p and t % p == 0)

    return surface_homology(name, degree)[0] + tors(degree) + tors(degree - 1)


# ---------------------------------------------------------------------------
# expected reports
# ---------------------------------------------------------------------------


def frac(num: int, den: int) -> str:
    q = Fraction(num, den)
    return f"{q.numerator}/{q.denominator}"


def fibring_report(labels, ring: str, n: int, vanishes) -> dict:
    """The report ``virtually_fpn_fibred`` must give, from ``vanishes(m)``."""
    obstruction = next((m for m in range(n + 1) if not vanishes(m)), None)
    return {
        "verdict": obstruction is None,
        "ring": ring,
        "n": n,
        "witnesses": [] if obstruction is not None else [{x: 1 for x in labels}],
        "obstruction_degree": obstruction,
    }


def ring_primes(ring: str) -> list[int]:
    if ring.startswith("Z/"):
        return prime_factors(int(ring[2:]))
    return [FIELD_CHAR[ring]]


def rose_betti(k: int, n: int, orbits: int) -> tuple[int, int]:
    """b_0, b_1 of a degree-n cover of a wedge of k circles."""
    return orbits, (k - 1) * n + orbits


def kunneth(x: tuple[int, int], y: tuple[int, int]) -> list[int]:
    return [x[0] * y[0], x[0] * y[1] + x[1] * y[0], x[1] * y[1]]


def gradient_exact(field: str, degree: int, orders, betti) -> dict:
    return {
        "field": field,
        "degree": degree,
        "orders": list(orders),
        "betti": list(betti),
        "normalized": [frac(b, n) for b, n in zip(betti, orders)],
    }


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


class Plan:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(f"{workload}:{seed}")
        self.jobs: list[dict] = []
        self.files: dict[str, str] = {}
        self.needed_supports = 0
        self.cache_lookups = 0
        self._searches: set = set()

    def file(self, stem: str, obj) -> str:
        name = f"{stem}-{len(self.files):04d}.json"
        self.files[name] = json.dumps(obj, sort_keys=True) + "\n"
        return name

    def cli(self, argv: list[str], check: dict) -> int:
        self.jobs.append({"argv": argv, "check": check})
        return len(self.jobs) - 1

    def call(self, name: str, obj: dict, check: dict) -> int:
        self.jobs.append({"call": name, "input": self.file(name, obj), "check": check})
        return len(self.jobs) - 1

    def search(self, cpx_file: str, cpx: Complex, field: str, n: int) -> None:
        """Count the supports a character search on (complex, field, n) must decide."""
        key = (cpx_file, field, n)
        if key not in self._searches:
            self._searches.add(key)
            self.needed_supports += (1 << len(cpx.labels)) - 1

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "jobs": self.jobs,
            "needed_supports": self.needed_supports,
            "cache_lookups": self.cache_lookups,
        }


def factorisations(N: int, k: int, allowed) -> list[tuple[int, ...]]:
    """Ordered k-tuples from ``allowed`` with product N."""
    if k == 0:
        return [()] if N == 1 else []
    return [(m,) + rest for m in allowed if N % m == 0
            for rest in factorisations(N // m, k - 1, allowed)]


def pick_moduli(k: int, N: int, p: int, share: float, divisible: bool = False) -> list[int]:
    """Per-vertex moduli <= 16 with product N, prime to p or multiples of it.

    ``share`` in [0, 1) picks one of the factorisations, so a slot's turns
    spread over all of them at every seed; the vertex order, which the
    seed draws, decides which vertex of the graph gets which modulus.
    """
    if divisible:
        allowed = [m for m in range(1, 17) if m == 1 or m % p == 0]
    else:
        allowed = [m for m in range(1, 17) if not p or m % p]
    choices = factorisations(N, k, allowed)
    if not choices:
        raise ValueError(f"no moduli for {k} vertices with product {N}")
    return list(choices[int(share * len(choices))])


def random_flag(rng: random.Random, n: int, edges: int, triangles: int) -> list[tuple[int, int]]:
    """A uniformly random graph with this many vertices, edges and triangles."""
    pairs = list(combinations(range(n), 2))
    while True:
        chosen = set(rng.sample(pairs, edges))
        count = sum(1 for a, b, c in combinations(range(n), 3)
                    if {(a, b), (a, c), (b, c)} <= chosen)
        if count == triangles:
            return sorted(chosen)


def abelian_file(plan: Plan, cpx: Complex, moduli) -> str:
    return plan.file("quotient", {
        "type": "abelian",
        "moduli": {x: m for x, m in zip(cpx.labels, moduli) if m != 1},
    })


# -- cover-abelian ----------------------------------------------------------

# (family, shape, orders of the two quotients).  A shape is a vertex count
# for free groups, join sides for K_{a,b}, and (vertices, edges, triangles)
# for random flag complexes; fixing it keeps the work per slot steady.
# The orders are prime to 3 and 5, so every slot runs over Q, F3 and F5.
ABELIAN_SLOTS = [
    ("free", 2, (32, 112)),
    ("free", 3, (28, 64)),
    ("join", (1, 2), (28, 64)),
    ("join", (2, 2), (16, 32)),
    ("join", (1, 3), (16, 28)),
    ("flag", (4, 4, 1), (16, 32)),
    ("flag", (5, 6, 2), (16, 28)),
    ("kaz", (4, 4, 1), (16, 32)),
]
ABELIAN_FIELDS = ("Q", "F3", "F5")
ABELIAN_ROUNDS = 8  # 8 slots x 3 fields x 8 rounds = 192 jobs


def cover_abelian(plan: Plan) -> None:
    rng = plan.rng
    for r in range(ABELIAN_ROUNDS):
        for family, shape, orders in ABELIAN_SLOTS:
            for fi, field in enumerate(ABELIAN_FIELDS):
                turn = r * len(ABELIAN_FIELDS) + fi
                p = FIELD_CHAR[field]
                if family == "free":
                    cpx = labelled(rng, shape, [])
                elif family == "join":
                    cpx = labelled(rng, sum(shape), join_graph(*shape))
                else:
                    cpx = labelled(rng, shape[0], random_flag(rng, *shape))
                n = len(cpx.labels)
                share = turn / (ABELIAN_ROUNDS * len(ABELIAN_FIELDS))
                quotients = [pick_moduli(n, N, p, share) for N in orders]
                cfile = plan.file("complex", cpx.edge_json())
                qfiles = ",".join(abelian_file(plan, cpx, ms) for ms in quotients)
                if family == "kaz":
                    top = cpx.flag.dim() + 1
                    plan.cli(
                        ["kaz-check", "--complex", cfile, "--field", field,
                         "--quotients", qfiles, "--max-degree", str(top)],
                        {"exact": canonical_digest({
                            "field": field, "max_degree": top, "orders": list(orders),
                            "holds": True,
                        })},
                    )
                    continue
                if family == "free":
                    degree = 1
                    betti = [rose_betti(n, N, 1)[1] for N in orders]
                elif family == "join":
                    degree = 1 + turn % 2
                    a, b = shape
                    betti = []
                    for ms in quotients:
                        # side one is the original vertices 0..a-1, whatever their order
                        n1 = prod(m for x, m in zip(cpx.labels, ms) if int(x[1:]) < a)
                        n2 = prod(ms) // n1
                        betti.append(kunneth(rose_betti(a, n1, 1), rose_betti(b, n2, 1))[degree])
                else:
                    degree = 1 + turn % (cpx.flag.dim() + 1)
                    lower = cpx.flag.betti(cpx.flag.all_vertices, p, degree - 1)
                    plan.cli(
                        ["gradient", "--complex", cfile, "--field", field,
                         "--chain", qfiles, "--degree", str(degree)],
                        {"lower": {"field": field, "degree": degree, "orders": list(orders),
                                   "min_betti": [lower * N for N in orders]}},
                    )
                    continue
                plan.cli(
                    ["gradient", "--complex", cfile, "--field", field,
                     "--chain", qfiles, "--degree", str(degree)],
                    {"exact": canonical_digest(gradient_exact(field, degree, orders, betti))},
                )


# -- cover-elim -------------------------------------------------------------


def random_perm(rng: random.Random, n: int, blocks: int) -> list[int]:
    """A random permutation of 0..n-1 preserving ``blocks`` contiguous blocks."""
    cuts = [n * i // blocks for i in range(blocks + 1)]
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        part = list(range(lo, hi))
        rng.shuffle(part)
        out += part
    return out


def explicit_file(plan: Plan, cpx: Complex, order: int, perms: dict) -> str:
    return plan.file("quotient", {
        "type": "explicit",
        "order": order,
        "action": {x: perms.get(x, list(range(order))) for x in cpx.labels},
    })


# Each slot makes one chain q1 <= q2 <= q3 on one complex and three jobs:
# [q1], [q1, q2], [q1, q2, q3], so the rank cache both writes and rereads.
ELIM_SLOTS = [
    ("free", 2, (20, 45, 90)),
    ("free", 3, (16, 40, 70)),
    ("product", (2, 2), ((3, 4), (4, 5), (5, 6))),
    ("product", (1, 2), ((4, 5), (6, 7), (8, 9))),
    ("abelian", (4, 4, 1), {"F2": (16, 32, 48), "F3": (9, 27, 36)}),
    ("abelian", (5, 6, 2), {"F2": (16, 24, 32), "F3": (9, 18, 27)}),
]
ELIM_FIELDS = {"free": ("Q", "F2", "F3"), "product": ("Q", "F2", "F3"), "abelian": ("F2", "F3")}
ELIM_ROUNDS = 5  # 16 chains x 3 jobs x 5 rounds = 240 jobs


def cover_elim(plan: Plan) -> None:
    rng = plan.rng
    for r in range(ELIM_ROUNDS):
        for family, size, sizes in ELIM_SLOTS:
            for fi, field in enumerate(ELIM_FIELDS[family]):
                turn = r * 3 + fi
                p = FIELD_CHAR[field]
                qfiles, orders, expect, lower = [], [], [], []
                if family == "free":
                    cpx = labelled(rng, size, [])
                    degree = 1
                    for j, N in enumerate(sizes):
                        blocks = (1, 1, 2)[(turn + j) % 3]
                        perms = {x: random_perm(rng, N, blocks) for x in cpx.labels}
                        qfiles.append(explicit_file(plan, cpx, N, perms))
                        orders.append(N)
                        expect.append(rose_betti(size, N, orbit_count(N, perms.values()))[1])
                elif family == "product":
                    a, b = size
                    cpx = labelled(rng, a + b, join_graph(a, b))
                    degree = 1 + turn % 2
                    for n1, n2 in sizes:
                        N = n1 * n2
                        side1 = {x: random_perm(rng, n1, 1) for x in cpx.labels if int(x[1:]) < a}
                        side2 = {x: random_perm(rng, n2, 1) for x in cpx.labels if int(x[1:]) >= a}
                        perms = {x: [s[i] * n2 + j for i in range(n1) for j in range(n2)]
                                 for x, s in side1.items()}
                        perms.update({x: [i * n2 + t[j] for i in range(n1) for j in range(n2)]
                                      for x, t in side2.items()})
                        qfiles.append(explicit_file(plan, cpx, N, perms))
                        orders.append(N)
                        x1 = rose_betti(a, n1, orbit_count(n1, side1.values()))
                        x2 = rose_betti(b, n2, orbit_count(n2, side2.values()))
                        expect.append(kunneth(x1, x2)[degree])
                else:
                    # char | N: no semisimple splitting, so only elimination applies
                    cpx = labelled(rng, size[0], random_flag(rng, *size))
                    degree = 1 + turn % (cpx.flag.dim() + 1)
                    b_lower = cpx.flag.betti(cpx.flag.all_vertices, p, degree - 1)
                    for N in sizes[field]:
                        qfiles.append(abelian_file(plan, cpx, pick_moduli(size[0], N, p, turn / (ELIM_ROUNDS * 3), True)))
                        orders.append(N)
                        lower.append(b_lower * N)
                cfile = plan.file("complex", cpx.edge_json())
                degrees_per_cover = cpx.flag.dim() + 1
                for length in (1, 2, 3):
                    if lower:
                        check = {"lower": {"field": field, "degree": degree,
                                           "orders": orders[:length], "min_betti": lower[:length]}}
                    else:
                        check = {"exact": canonical_digest(
                            gradient_exact(field, degree, orders[:length], expect[:length]))}
                    plan.cli(
                        ["gradient", "--complex", cfile, "--field", field,
                         "--chain", ",".join(qfiles[:length]), "--degree", str(degree),
                         "--cache", "{cache}"],
                        check,
                    )
                    plan.cache_lookups += length * degrees_per_cover


# -- sweep ------------------------------------------------------------------

# (vertices, edges, triangles, character bound, level) per complex; the
# triangle count is the commonest one for a random graph of that size
SWEEP_SLOTS = [(5, 6, 2, 2, 1), (6, 8, 2, 1, 1), (7, 10, 3, 1, 2),
               (5, 7, 3, 2, 2), (6, 9, 4, 1, 2), (7, 12, 6, 1, 1)]
SWEEP_ROUNDS = 5  # 30 complexes x 6 jobs = 180 jobs
SWEEP_RINGS = ("Q", "F2", "Z/6")


def character_list(cpx: Complex, n: int, p: int, bound: int) -> list[dict]:
    """What ``find_characters`` must return, by brute force over supports."""
    fc = cpx.flag
    passes: dict[int, bool] = {}
    out = []
    for values in product(range(-bound, bound + 1), repeat=len(cpx.labels)):
        if not any(values) or not surjective(values):
            continue
        support = sum(1 << i for i, x in enumerate(values) if x)
        if support not in passes:
            passes[support] = fc.fpn_violation(support, n, p) is None
        if passes[support]:
            out.append(values)
    return [dict(zip(cpx.labels, values)) for values in out]


def fibres_fibre(cpx: Complex, n: int, p: int) -> bool:
    """What ``fibres_fibre_check`` must return."""
    fc = cpx.flag
    link_ok = [all(fc.link_betti(v, p, m - 1) == 0 for m in range(n + 1)) for v in range(fc.n)]
    verdicts = set()
    for support in range(1, 1 << fc.n):
        if fc.fpn_violation(support, n, p) is None:
            verdicts.add(all(link_ok[v] for v in bits(support)))
    return len(verdicts) <= 1


def passing_character(rng: random.Random, cpx: Complex, m: int, p: int):
    """A surjective character that is FP_m over F_p, or None."""
    fc = cpx.flag
    for _ in range(200):
        values = [rng.choice((-2, -1, 0, 1, 1, 2)) for _ in cpx.labels]
        if any(values) and surjective(values):
            support = sum(1 << i for i, x in enumerate(values) if x)
            if fc.fpn_violation(support, m, p) is None:
                return values
    return None


def sweep(plan: Plan) -> None:
    rng = plan.rng
    for r in range(SWEEP_ROUNDS):
        for slot, (nv, n_edges, triangles, bound, level) in enumerate(SWEEP_SLOTS):
            cpx = labelled(rng, nv, random_flag(rng, nv, n_edges, triangles))
            fc = cpx.flag
            cfile = plan.file("complex", cpx.edge_json())
            field = ("Q", "F2")[(r + slot) % 2]
            p = FIELD_CHAR[field]
            plan.cli(
                ["characters", "--complex", cfile, "--field", field,
                 "--n", str(level), "--bound", str(bound)],
                {"exact": canonical_digest({
                    "field": field, "n": level, "bound": bound,
                    "characters": character_list(cpx, level, p, bound),
                })},
            )
            plan.search(cfile, cpx, field, level)

            plan.call(
                "fibres_fibre_check",
                {"complex": cpx.edge_json(), "n": level, "field": field, "bound": 2},
                {"exact": canonical_digest(fibres_fibre(cpx, level, p))},
            )
            plan.search(cfile, cpx, field, level)

            values = [rng.choice((-1, 0, 1, 2)) for _ in cpx.labels]
            if not any(values):
                values[0] = 1
            n_fpn = 1 + (r + slot) % 3
            support = sum(1 << i for i, x in enumerate(values) if x)
            bad = fc.fpn_violation(support, n_fpn, p)
            plan.cli(
                ["fpn-check", "--complex", cfile, "--phi",
                 plan.file("phi", {"phi": dict(zip(cpx.labels, values))}),
                 "--field", field, "--n", str(n_fpn)],
                {"exact": canonical_digest({
                    "field": field, "n": n_fpn, "fpn": bad is None,
                    "violating_dead_simplex": None if bad is None else [cpx.labels[i] for i in bad],
                })},
            )

            top = 2
            values = passing_character(rng, cpx, top, p)
            while values is None:
                top -= 1
                values = passing_character(rng, cpx, top, p) if top > 0 else [1] * nv
            kb = [sum(abs(x) * fc.link_betti(v, p, m - 1) for v, x in enumerate(values))
                  for m in range(top + 1)]
            plan.cli(
                ["kernel-betti", "--complex", cfile, "--phi",
                 plan.file("phi", {"phi": dict(zip(cpx.labels, values))}),
                 "--field", field, "--degrees", f"0..{top}"],
                {"exact": canonical_digest({
                    "field": field, "degrees": list(range(top + 1)), "kernel_betti": kb,
                    "phi": dict(zip(cpx.labels, values)),
                })},
            )

            for k in (0, 1):
                ring = SWEEP_RINGS[(r + slot + k) % 3]
                n_fib = 1 + (r + k) % 3
                primes = ring_primes(ring)
                plan.cli(
                    ["fibring", "--complex", cfile, "--ring", ring, "--n", str(n_fib)],
                    {"exact": canonical_digest(fibring_report(
                        cpx.labels, ring, n_fib,
                        lambda m: all(fc.betti(fc.all_vertices, q, m - 1) == 0 for q in primes),
                    ))},
                )


# -- integral ---------------------------------------------------------------

# (surface, subdivisions) for the fibring pairs, Z then Z/6 on one complex
INTEGRAL_FIBRING = [("rp2", 1), ("torus", 1), ("klein", 1)] * 10 + [("rp2", 2)]
INTEGRAL_CONES = [("rp2", 1), ("torus", 1), ("klein", 1)] * 4
INTEGRAL_PUSHES = 30  # 62 + 12 + 30 = 104 jobs


def surface_complex(rng: random.Random, name: str, times: int):
    """Labels in a random vertex order, and triangles as label positions."""
    n, tris = surface(name, times)
    order = list(range(n))
    rng.shuffle(order)
    pos = {orig: i for i, orig in enumerate(order)}
    labels = [f"s{orig}" for orig in order]
    faces = [sorted((pos[a], pos[b], pos[c])) for a, b, c in tris]
    return labels, faces


def octahedron_join(rng: random.Random) -> tuple[Complex, int, int]:
    """Subdivided octahedron joined with a dead apex and a living cone vertex."""
    octa = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    n, tris = subdivide(octa)
    edges = {tuple(sorted(e)) for t in tris for e in combinations(t, 2)}
    apex, cone = n, n + 1
    edges |= {(v, apex) for v in range(n)} | {(v, cone) for v in range(n)} | {(apex, cone)}
    cpx = labelled(rng, n + 2, sorted(edges), prefix="o")
    where = {int(x[1:]): i for i, x in enumerate(cpx.labels)}
    return cpx, where[apex], where[cone]


def random_cycle(rng: random.Random, cpx: Complex, within: int, p: int) -> dict:
    """A nonzero 1-cycle in the full subcomplex on ``within``: closed walks."""
    adj = cpx.flag.adj
    verts = bits(within)
    while True:
        chain: dict[tuple[int, int], int] = {}
        for _ in range(2):
            start = rng.choice(verts)
            walk = [start]
            for _ in range(rng.randint(3, 8)):
                walk.append(rng.choice(bits(adj[walk[-1]] & within)))
            walk += shortest_path(adj, within, walk[-1], start)[1:]
            coef = rng.choice((1, 2, -1, 3)) if p != 2 else 1
            for u, v in zip(walk, walk[1:]):
                key, sign = ((u, v), 1) if u < v else ((v, u), -1)
                chain[key] = chain.get(key, 0) + sign * coef
        chain = {e: c % p if p else c for e, c in chain.items()}
        chain = {e: c for e, c in chain.items() if c}
        if chain:
            return chain


def shortest_path(adj, within: int, src: int, dst: int) -> list[int]:
    prev = {src: None}
    frontier = [src]
    while dst not in prev:
        nxt = []
        for u in frontier:
            for v in bits(adj[u] & within):
                if v not in prev:
                    prev[v] = u
                    nxt.append(v)
        frontier = nxt
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    return path[::-1]


def integral(plan: Plan) -> None:
    rng = plan.rng
    for i, (name, times) in enumerate(INTEGRAL_FIBRING):
        labels, faces = surface_complex(rng, name, times)
        cfile = plan.file("complex", {"vertices": labels, "faces": [[labels[i] for i in f] for f in faces]})
        n_fib = 1 + (i // 3) % 3
        z_job = plan.cli(
            ["fibring", "--complex", cfile, "--ring", "Z", "--n", str(n_fib)],
            {"exact": canonical_digest(fibring_report(
                labels, "Z", n_fib, lambda m: surface_homology(name, m - 1) == (0, ())))},
        )
        plan.cli(
            ["fibring", "--complex", cfile, "--ring", "Z/6", "--n", str(n_fib)],
            {"exact": canonical_digest(fibring_report(
                labels, "Z/6", n_fib,
                lambda m: all(field_betti(name, q, m - 1) == 0 for q in (2, 3)))),
             "z_implies": z_job},
        )

    for name, times in INTEGRAL_CONES:
        labels, faces = surface_complex(rng, name, times)
        apex = "apex"
        values = {x: rng.choice((0, 1, 1, 2, -1)) for x in labels}
        values[apex] = rng.choice((1, 2, 3))
        tors = prod(surface_homology(name, 1)[1])
        expected = sum(abs(x) for k, x in values.items() if k != apex) + abs(values[apex]) * tors
        plan.call(
            "torsion_term",
            {"complex": {"vertices": [apex] + labels,
                         "faces": [[apex] + [labels[i] for i in f] for f in faces]},
             "phi": values, "p": 2},
            {"exact": canonical_digest(expected)},
        )

    for i in range(INTEGRAL_PUSHES):
        cpx, apex, cone = octahedron_join(rng)
        field = ("Q", "F2", "F3")[i % 3]
        p = FIELD_CHAR[field]
        dead = set(rng.sample([v for v in range(len(cpx.labels)) if v not in (apex, cone)],
                              3 + 2 * (i % 4))) | {apex}
        values = {x: (0 if v in dead else rng.choice((1, 1, 2, -1)))
                  for v, x in enumerate(cpx.labels)}
        z = random_cycle(rng, cpx, cpx.flag.adj[apex], p)
        plan.call(
            "push_cycle_to_living",
            {"complex": cpx.edge_json(), "phi": values, "v": cpx.labels[apex], "n": 2,
             "field": field,
             "z": [[[cpx.labels[u], cpx.labels[v]], str(c)] for (u, v), c in sorted(z.items())]},
            {"push": True},
        )


BUILDERS = {
    "cover-abelian": cover_abelian,
    "cover-elim": cover_elim,
    "sweep": sweep,
    "integral": integral,
}


def generate(workload: str, seed: int) -> tuple[dict, dict[str, str]]:
    """(plan, files) for one workload and seed."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    plan = Plan(workload, seed)
    BUILDERS[workload](plan)
    return plan.to_json(), plan.files


def inputs_digest(plan: dict, files: dict[str, str]) -> str:
    h = hashlib.sha256()
    h.update(json.dumps([job.get("argv") or [job["call"], job["input"]] for job in plan["jobs"]]).encode())
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()
