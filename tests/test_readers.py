"""The readers of complex, character and quotient files.

`SimplicialComplex.from_json_dict`, `Character.from_json_dict` and
`FiniteQuotient.from_json_dict` read back what the library writes, and
raise ValueError, and nothing else, on a file they do not accept.  The
fuzz tests start from valid files and break them: wrong types, floats,
booleans, strings, missing, extra or conflicting keys, bad values.
"""

from __future__ import annotations

import json
import tempfile
from math import prod
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raaghom.cli import main
from raaghom.complexes import SimplicialComplex, flag_completion
from raaghom.kernels import Character
from raaghom.raags import FiniteQuotient, Raag, abelian_quotient

from fixtures import c4

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)
_DELETE = object()


def _json_copy(obj):
    return json.loads(json.dumps(obj))


def _set(obj, path, value):
    """A copy of obj with the value at path replaced, or removed for `_DELETE`."""
    obj = _json_copy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


def read(kind: str, K: SimplicialComplex, obj: object):
    if kind == "complex":
        return SimplicialComplex.from_json_dict(obj)
    if kind == "character":
        return Character.from_json_dict(K, obj)
    return FiniteQuotient.from_json_dict(Raag(K), obj)


@st.composite
def flag_complexes(draw) -> SimplicialComplex:
    """A flag complex on 1..5 vertices whose labels mix ints and strings."""
    labels = draw(
        st.lists(
            st.one_of(st.integers(-3, 12), st.text(alphabet="ab1", max_size=2)),
            min_size=1, max_size=5, unique_by=str,
        )
    )
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return flag_completion(labels, [e for e, k in zip(pairs, keep) if k])


@st.composite
def valid_files(draw) -> tuple[str, SimplicialComplex, dict]:
    """(kind, K, a valid file of that kind on K); kind is complex, character, abelian or explicit."""
    K = draw(flag_complexes())
    labels = [str(v) for v in K.vertices]
    kind = draw(st.sampled_from(("complex", "character", "abelian", "explicit")))
    if kind == "complex":
        if draw(st.booleans()):
            return kind, K, K.to_json_dict()
        return kind, K, {"vertices": list(K.vertices), "edges": [list(e) for e in K.faces_of_dim(1)]}
    if kind == "character":
        values = draw(st.lists(st.integers(-3, 3), min_size=len(labels), max_size=len(labels)))
        values[0] = values[0] or 1
        return kind, K, {"phi": dict(zip(labels, values))}
    moduli = draw(st.dictionaries(st.sampled_from(labels), st.integers(1, 3), max_size=3))
    if kind == "abelian":
        return kind, K, {"type": "abelian", "moduli": moduli}
    lookup = {str(v): v for v in K.vertices}
    q = abelian_quotient(Raag(K), {lookup[k]: n for k, n in moduli.items()})
    return kind, K, q.to_json_dict()


def bad_ints(x: int) -> list:
    return [x + 0.5, float(x), True, False, str(x), None, [x], {}]


BAD_LABELS = [1.5, float("nan"), True, False, None, ["a"], {"a": 0}]
BAD_LISTS = [{}, {"a": 1}, "ab", 1, 1.0, None, True]
BAD_OBJECTS = [[], [["0", 1]], "ab", 1, 1.0, None, True]


def broken_files(kind: str, obj: dict) -> list:
    """Files made from a valid one that no reader may accept."""
    bad = [_set(obj, ("name",), "z"), [obj], json.dumps(obj), None, 1]
    bad += [_set(obj, (key,), _DELETE) for key in obj if key not in ("moduli", "edges", "faces")]
    if kind == "complex":
        vertices = obj["vertices"]
        key = "edges" if "edges" in obj else "faces"
        other = "faces" if key == "edges" else "edges"
        bad += [_set(obj, (other,), []), _set(obj, (key,), obj[key] + [[]])]
        bad += [_set(obj, ("vertices",), vertices + [vertices[0]]), _set(obj, ("vertices",), vertices + [str(vertices[0])])]
        bad += [_set(obj, (key,), obj[key] + [["not a vertex"]])]
        bad += [_set(obj, ("vertices",), b) for b in BAD_LISTS]
        bad += [_set(obj, (key,), b) for b in BAD_LISTS]
        bad += [_set(obj, ("vertices", i), b) for i in range(len(vertices)) for b in BAD_LABELS]
        for i, cell in enumerate(obj[key]):
            bad += [_set(obj, (key, i), b) for b in BAD_LISTS + ["".join(map(str, cell))]]
            bad += [_set(obj, (key, i, j), b) for j in range(len(cell)) for b in BAD_LABELS]
        return bad
    name = {"character": "phi", "abelian": "moduli", "explicit": "action"}[kind]
    mapping = obj[name]
    bad += [_set(obj, (name,), b) for b in BAD_OBJECTS]
    bad += [_set(obj, (name, "not a vertex"), 1)]
    if kind == "character":
        bad += [_set(obj, ("phi", k), _DELETE) for k in mapping]
        bad += [_set(obj, ("phi",), {k: 0 for k in mapping})]
        bad += [_set(obj, ("phi", k), b) for k, x in mapping.items() for b in bad_ints(x)]
        return bad
    bad += [_set(obj, ("type",), b) for b in ("Abelian", "", None, 1, ["abelian"], {})]
    if kind == "abelian":
        bad += [_set(obj, ("order",), prod(mapping.values())), _set(obj, ("action",), {})]
        bad += [_set(obj, ("moduli", k), b) for k, x in mapping.items() for b in bad_ints(x) + [0, -x]]
        return bad
    order = obj["order"]
    bad += [_set(obj, ("moduli",), {}), _set(obj, ("order",), 0), _set(obj, ("order",), 10**30)]
    bad += [_set(obj, ("order",), order + 1)] + [_set(obj, ("order",), b) for b in bad_ints(order)]
    bad += [_set(obj, ("action", k), _DELETE) for k in mapping]
    for k, perm in mapping.items():
        bad += [_set(obj, ("action", k), b) for b in BAD_LISTS + [perm + [order]]]
        bad += [_set(obj, ("action", k, i), b) for i, x in enumerate(perm) for b in bad_ints(x) + [order, -1]]
    return bad


@st.composite
def broken_cases(draw) -> tuple[str, SimplicialComplex, object]:
    kind, K, obj = draw(valid_files())
    return kind, K, draw(st.sampled_from(broken_files(kind, obj)))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


class TestFuzz:
    @FUZZ
    @given(valid_files())
    def test_broken_files_raise_value_error(self, case):
        kind, K, obj = case
        for bad in broken_files(kind, obj):
            with pytest.raises(ValueError):
                read(kind, K, bad)

    @FUZZ
    @given(valid_files(), st.data())
    def test_any_value_anywhere_reads_or_raises_value_error(self, case, data):
        kind, K, obj = case
        path = data.draw(st.sampled_from(list(_paths(obj))))
        value = data.draw(json_values)
        try:
            read(kind, K, _set({"root": obj}, ("root",) + path, value)["root"])
        except ValueError:
            pass

    @FUZZ
    @given(valid_files())
    def test_valid_files_are_read(self, case):
        kind, K, obj = case
        read(kind, K, _json_copy(obj))

    @settings(
        max_examples=30, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(broken_cases())
    def test_cli_exits_2_with_one_line_diagnostic(self, capsys, case):
        kind, K, obj = case
        with tempfile.TemporaryDirectory() as tmp:
            complex_path, bad_path = Path(tmp, "k.json"), Path(tmp, "bad.json")
            complex_path.write_text(json.dumps(K.to_json_dict()))
            bad_path.write_text(json.dumps(obj))
            common = ["--field", "Q", "--complex", str(bad_path if kind == "complex" else complex_path)]
            if kind == "complex":
                code = main(["betti", *common, "--degrees", "0..1"])
            elif kind == "character":
                code = main(["fpn-check", *common, "--phi", str(bad_path), "--n", "1"])
            else:
                code = main(["gradient", *common, "--chain", str(bad_path), "--degree", "1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and json.loads(err)["error"]["kind"] == "input"


class TestRoundTrip:
    @FUZZ
    @given(flag_complexes(), st.data())
    def test_character(self, K, data):
        values = data.draw(st.lists(st.integers(-5, 5), min_size=len(K.vertices), max_size=len(K.vertices)))
        values[-1] = values[-1] or -2
        phi = Character(K, dict(zip(K.vertices, values)))
        assert Character.from_json_dict(K, _json_copy(phi.to_json_dict())) == phi

    @FUZZ
    @given(flag_complexes(), st.data())
    def test_quotient(self, K, data):
        A = Raag(K)
        moduli = data.draw(st.dictionaries(st.sampled_from(K.vertices), st.integers(1, 3), max_size=3))
        for q in (abelian_quotient(A, moduli), FiniteQuotient(A, 2, {v: [1, 0] for v in K.vertices})):
            again = FiniteQuotient.from_json_dict(A, _json_copy(q.to_json_dict()))
            assert again.order == q.order and again.action == q.action

    @FUZZ
    @given(flag_complexes())
    def test_complex(self, K):
        assert SimplicialComplex.from_json_dict(_json_copy(K.to_json_dict())) == K

    def test_huge_moduli_and_absent_vertices_are_legal(self):
        A = Raag(c4())
        huge = 2**80 + 1
        q = FiniteQuotient.from_json_dict(A, {"type": "abelian", "moduli": {"0": huge, "2": 3}})
        assert q.moduli == {0: huge, 1: 1, 2: 3, 3: 1} and q.order == 3 * huge
        assert FiniteQuotient.from_json_dict(A, {"type": "abelian"}).order == 1


class TestMessages:
    @pytest.mark.parametrize(
        "kind, obj, fragment",
        [
            ("character", {"phi": {"0": 1, "9": 1}}, "phi: unknown vertex '9'"),
            ("abelian", {"type": "abelian", "moduli": {"9": 2}}, "moduli: unknown vertex '9'"),
            ("explicit", {"type": "explicit", "order": 1, "action": {"9": [0]}}, "action: unknown vertex '9'"),
        ],
    )
    def test_unknown_vertex_is_named(self, kind, obj, fragment):
        with pytest.raises(ValueError) as info:
            read(kind, c4(), obj)
        assert fragment in str(info.value)
