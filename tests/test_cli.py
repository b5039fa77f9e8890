"""CLI tests: commands, formats, exit codes, start-up imports."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raaghom.cli import main
from raaghom.complexes import SimplicialComplex, flag_completion
from raaghom.exact import FieldSpec
from raaghom.fibring import find_characters
from raaghom.raags import FiniteQuotient, Raag, abelian_quotient

from fixtures import BAD_FACE_IDS, BAD_FACES


ROOT = Path(__file__).resolve().parents[1]


def write_regular_quotient(path, vertices, edges, n):
    """The regular action of (Z/n)^vertices, written as an explicit quotient file."""
    A = Raag(flag_completion(vertices, edges))
    path.write_text(json.dumps(abelian_quotient(A, {v: n for v in vertices}).to_json_dict()))


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c4.json").write_text(
        json.dumps({"vertices": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]})
    )
    (tmp_path / "two_points.json").write_text(json.dumps({"vertices": ["a", "b"], "edges": []}))
    (tmp_path / "hollow.json").write_text(
        json.dumps({"vertices": [0, 1, 2], "faces": [[0, 1], [1, 2], [0, 2]]})
    )
    (tmp_path / "phi_ones.json").write_text(json.dumps({"phi": {"0": 1, "1": 1, "2": 1, "3": 1}}))
    write_regular_quotient(tmp_path / "c4_z2.json", range(4), [(0, 1), (1, 2), (2, 3), (3, 0)], 2)
    write_regular_quotient(tmp_path / "two_points_z3.json", "ab", [], 3)
    triangle = [[0, 1], [1, 2], [0, 2]]  # flag: the filled triangle, whose RAAG is Z^3
    (tmp_path / "triangle.json").write_text(json.dumps({"vertices": [0, 1, 2], "edges": triangle}))
    return tmp_path


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def modules_loaded_by_import(names):
    """Which of ``names`` a fresh ``python -S`` interpreter holds once ``raaghom.cli`` is imported."""
    # -S keeps a site .pth file from importing any of them first
    script = f"import sys, raaghom, raaghom.cli\nprint(*sorted({set(names)!r} & sys.modules.keys()))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestStartUp:
    def test_import_loads_no_code_introspection(self):
        # every CLI call pays for what `import raaghom.cli` loads; dataclasses
        # alone, through inspect, ast and dis, cost about 10 ms of it
        assert modules_loaded_by_import({"dataclasses", "inspect", "ast", "dis"}) == []

    def test_import_loads_no_argument_parser_or_hashlib(self):
        # argparse and its gettext cost 2-3 ms of every start, hashlib about 4.6 ms
        assert modules_loaded_by_import({"argparse", "gettext", "hashlib", "_hashlib"}) == []

    def test_gradient_with_cache_loads_no_hashlib(self, workdir):
        # the cache path is read and ignored, so nothing hashes or writes it
        script = (
            "import sys, raaghom.cli\n"
            "code = raaghom.cli.main(['gradient', '--complex', 'c4.json', '--field', 'Q',"
            " '--chain', 'c4_z2.json', '--degree', '1', '--cache', 'cache'])\n"
            "print(code, *sorted({'hashlib', '_hashlib'} & sys.modules.keys()), file=sys.stderr)"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.stderr == "0\n" and json.loads(proc.stdout)["betti"] == [10]
        assert not (workdir / "cache").exists()


class TestBetti:
    def test_json_output(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "betti", "--complex", "c4.json", "--field", "Q", "--degrees", "0..2")
        assert code == 0
        obj = json.loads(out)
        assert obj["dfg_betti"] == [0, 0, 1]

    def test_csv_output(self, workdir, capsys):
        code, out, _ = run_cli(
            capsys, "betti", "--complex", "c4.json", "--field", "F2", "--degrees", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["degree,dfg_betti", "2,1"]

    def test_out_file_written_atomically(self, workdir, capsys):
        out_path = workdir / "report.json"
        code, out, _ = run_cli(
            capsys, "betti", "--complex", "c4.json", "--field", "Q", "--degrees", "0..1",
            "--out", str(out_path),
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["degrees"] == [0, 1]

    def test_out_path_in_missing_directory_is_input_error(self, workdir, capsys):
        code, out, err = run_cli(
            capsys, "betti", "--complex", "c4.json", "--field", "Q", "--degrees", "0..1",
            "--out", str(workdir / "missing" / "dir" / "x.json"),
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["kind"] == "input"

    def test_empty_out_path_is_input_error(self, workdir, capsys):
        code, out, err = run_cli(
            capsys, "betti", "--complex", "c4.json", "--field", "Q", "--degrees", "0..1", "--out", "",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["kind"] == "input"


class TestErrors:
    def test_missing_file_is_input_error(self, workdir, capsys):
        code, _, err = run_cli(capsys, "betti", "--complex", "nope.json", "--field", "Q", "--degrees", "0")
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "input"

    def test_unknown_field_token(self, workdir, capsys):
        code, _, err = run_cli(capsys, "betti", "--complex", "c4.json", "--field", "X2", "--degrees", "0")
        assert code == 2
        assert "token" in json.loads(err)["error"]["message"]
        # a non-prime subscript is malformed input as well
        code, _, err = run_cli(capsys, "betti", "--complex", "c4.json", "--field", "F9", "--degrees", "0")
        assert code == 2
        assert json.loads(err)["error"]["message"]

    def test_long_prime_field_token_is_read_at_once(self, workdir, capsys):
        start = time.process_time()
        code, out, _ = run_cli(
            capsys, "betti", "--complex", "c4.json", "--field", "F1000000000000037", "--degrees", "0",
        )
        assert time.process_time() - start < 0.5
        assert code == 0 and json.loads(out)["field"] == "F1000000000000037"
        # no primality test is proven from 3317044064679887385961981 on
        for field in ("F3317044064679887385961981", "F561", "F41041", "F2047"):
            code, out, err = run_cli(capsys, "betti", "--complex", "c4.json", "--field", field, "--degrees", "0")
            assert code == 2 and out == ""
            assert json.loads(err)["error"]["kind"] == "input"

    def test_non_flag_complex_is_precondition_failure(self, workdir, capsys):
        code, _, err = run_cli(capsys, "betti", "--complex", "hollow.json", "--field", "Q", "--degrees", "0")
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "precondition"

    def test_malformed_json(self, workdir, capsys):
        (workdir / "bad.json").write_text("{not json")
        code, _, err = run_cli(capsys, "betti", "--complex", "bad.json", "--field", "Q", "--degrees", "0")
        assert code == 2

    def test_fpn_precondition_failure_in_kernel_betti(self, workdir, capsys):
        code, _, err = run_cli(
            capsys, "kernel-betti", "--complex", "c4.json", "--phi", "phi_ones.json",
            "--field", "Q", "--degrees", "2..2",
        )
        assert code == 1
        assert "FP_2" in json.loads(err)["error"]["message"]


class TestArguments:
    """Every malformed argument gets the one diagnostic: exit 2 and one JSON line on stderr."""

    @pytest.mark.parametrize(
        "args",
        [
            ("fpn-check", "--complex", "c4.json", "--phi", "phi_ones.json", "--field", "Q", "--n", "1_0"),
            ("fibring", "--complex", "c4.json", "--ring", "Q", "--n", " 2"),
            ("characters", "--complex", "c4.json", "--field", "Q", "--n", "٣", "--bound", "1"),
            ("fibring", "--complex", "c4.json", "--ring", "Q", "--n", "x"),
            ("characters", "--complex", "c4.json", "--field", "Q", "--n", "1", "--bound", "+1"),
            ("betti", "--complex", "c4.json", "--field", "Q", "--degrees", "0..1_0"),
            ("gradient", "--complex", "c4.json", "--field", "Q", "--chain", "abelian:1_0,20", "--degree", "1"),
            ("betti", "--complex", "c4.json", "--field", "F0", "--degrees", "0"),
            ("betti", "--complex", "c4.json", "--field", " Q", "--degrees", "0"),
            ("betti", "--complex", "c4.json", "--field", "F03", "--degrees", "0"),
            ("fibring", "--complex", "c4.json", "--ring", "Z/6_0", "--n", "1"),
            ("fibring", "--complex", "c4.json", "--ring", "Z/ 6", "--n", "1"),
            ("betti", "--complex", "c4.json", "--field", "Q"),
            ("frobnicate", "--complex", "c4.json"),
            ("betti", "--complex", "c4.json", "--field", "Q", "--degrees", "0", "--format", "xml"),
        ],
        ids=[
            "n-underscore",
            "n-space",
            "n-arabic-indic",
            "n-word",
            "bound-plus",
            "degrees-underscore",
            "chain-underscore",
            "field-F0",
            "field-space",
            "field-leading-zero",
            "ring-underscore",
            "ring-space",
            "missing-option",
            "unknown-command",
            "bad-format",
        ],
    )
    def test_malformed_argument_is_input_error(self, workdir, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"]["kind"] == "input"


# well-formed options for each command but report, which runs the acceptance
# suite; kernel-betti's fail a precondition (exit 1), phi_ones is not FP_2 on c4
WELL_FORMED = {
    "betti": ("--complex", "c4.json", "--field", "Q", "--degrees", "0..2"),
    "kernel-betti": ("--complex", "c4.json", "--phi", "phi_ones.json", "--field", "F2", "--degrees", "0..2"),
    "fpn-check": ("--complex", "c4.json", "--phi", "phi_ones.json", "--field", "Q", "--n", "1"),
    "fibring": ("--complex", "c4.json", "--ring", "Z/6", "--n", "1"),
    "gradient": ("--complex", "c4.json", "--field", "F2", "--chain", "abelian:1,2", "--degree", "1"),
    "characters": ("--complex", "c4.json", "--field", "Q", "--n", "1", "--bound", "1"),
    "kaz-check": ("--complex", "c4.json", "--field", "F2", "--quotients", "c4_z2.json", "--max-degree", "1"),
}
BETTI = ("betti", *WELL_FORMED["betti"])


class TestReader:
    """How argv is read: option forms, prefixes, repeats, help, and what is malformed.

    ``report`` must print what `BETTI` prints, ``usage`` a usage text, and
    ``input`` is malformed input: exit 2 with one JSON line on stderr.
    """

    @pytest.mark.parametrize(
        "args, expected",
        [
            (BETTI, "report"),
            (("betti", "--degrees", "0..2", "--field", "Q", "--complex", "c4.json"), "report"),
            (("betti", "--complex=c4.json", "--field=Q", "--degrees=0..2"), "report"),
            (("betti", "--comp", "c4.json", "--fi=Q", "--deg", "0..2"), "report"),
            (BETTI[:4] + ("F2",) + BETTI[3:], "report"),
            (BETTI + ("--format", "csv", "--format=json"), "report"),
            (("kernel-betti", "--complex", "c4.json", "--phi", "phi_ones.json", "--f", "Q", "--degrees", "0"),
             "input"),
            (("kernel-betti", "--complex", "c4.json", "--phi", "phi_ones.json", "--field", "Q",
              "--degrees", "0", "--force=x"), "input"),
            (BETTI + ("--format",), "input"),
            (("fpn-check", "--complex", "c4.json", "--phi", "phi_ones.json", "--field", "Q", "--n", "--out"),
             "input"),
            (BETTI + ("c4.json",), "input"),
            (BETTI + ("--",), "input"),
            (("--", *BETTI), "input"),
            (("betti", "--phi", "phi_ones.json", *BETTI[1:]), "input"),
            (("--complex", "c4.json", "betti"), "input"),
            ((), "input"),
            (("-h",), "usage"),
            (("--help",), "usage"),
            (("gradient", "--help"), "usage"),
            (BETTI + ("-h",), "usage"),
        ],
        ids=[
            "canonical",
            "any-order",
            "equals",
            "unique-prefix",
            "last-field-wins",
            "last-format-wins",
            "ambiguous-prefix",
            "flag-with-value",
            "no-value-at-end",
            "option-for-value",
            "stray-positional",
            "double-dash",
            "double-dash-first",
            "other-commands-option",
            "option-before-command",
            "empty",
            "h",
            "help",
            "command-help",
            "help-after-options",
        ],
    )
    def test_argv(self, workdir, capsys, args, expected):
        code, out, err = run_cli(capsys, *args)
        if expected == "input":
            assert code == 2 and out == "" and err.count("\n") == 1
            assert json.loads(err)["error"]["kind"] == "input"
            return
        assert code == 0 and err == ""
        if expected == "usage":
            assert out.startswith("usage: raaghom ")
        else:
            assert out == run_cli(capsys, *BETTI)[1]

    def test_command_usage_marks_required_options(self, workdir, capsys):
        code, out, err = run_cli(capsys, "gradient", "-h")
        assert code == 0 and err == ""
        assert "  --chain CHAIN (required)\n" in out and "  --cache CACHE\n" in out
        code, out, _ = run_cli(capsys, "-h")
        assert code == 0 and all(f"  {c} " in out for c in (*WELL_FORMED, "report"))


OPTION_TOKENS = (
    "--complex", "--phi", "--field", "--ring", "--degrees", "--degree", "--max-degree", "--n",
    "--bound", "--chain", "--quotients", "--cache", "--force", "--seed", "--criteria", "--out",
    "--format", "--comp", "--f", "--deg", "--", "-h", "-x",
)
VALUE_TOKENS = (
    "c4.json", "phi_ones.json", "c4_z2.json", "triangle.json", "hollow.json", "missing.json",
    "out.json", "cache",
    "Q", "F2", "F4", "Z", "Z/6", "0", "1", "2", "-1", "1.5", "+1", "0..2", "2..1", "abelian:1,2",
    "abelian:2,1", "c4_z2.json,c4_z2.json", "json", "csv", "xml", "", "-",
)


@st.composite
def argvs(draw):
    """A command, now and then none, and maybe its well-formed options, with options,
    values and the two joined by ``=`` put in at drawn places."""
    command = draw(st.sampled_from(list(WELL_FORMED)))
    # half the options drawn are the command's own required ones
    options = st.sampled_from(OPTION_TOKENS) | st.sampled_from(WELL_FORMED[command][::2])
    values = st.sampled_from(VALUE_TOKENS)
    argv = list(WELL_FORMED[command]) if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.integers(0, 5))
        if kind < 2:
            tokens = [draw(options), draw(values)]
        elif kind < 4:
            tokens = [f"{draw(options)}={draw(values)}"]
        else:
            tokens = [draw(options) if kind == 4 else draw(values)]
        # between two options' tokens, or anywhere
        at = draw(st.integers(0, len(argv) // 2)) * 2 if kind < 4 else draw(st.integers(0, len(argv)))
        argv[at:at] = tokens
    return ([command] if draw(st.sampled_from([True] * 9 + [False])) else []) + argv


@pytest.fixture()
def restore_inputs(workdir):
    """Writes the input files back: a drawn ``--out`` may have replaced one with a report."""
    saved = {path: path.read_bytes() for path in workdir.iterdir()}

    def restore():
        for path, data in saved.items():
            path.write_bytes(data)

    return restore


class TestAnyArgv:
    @settings(
        max_examples=300, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argvs())
    def test_gets_a_clean_answer(self, workdir, capsys, restore_inputs, argv):
        restore_inputs()
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2)
        if code == 0:
            assert err == ""
            return
        assert out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["kind"] == ("input" if code == 2 else "precondition")


class TestKernelCommands:
    def test_kernel_betti_values(self, workdir, capsys):
        code, out, _ = run_cli(
            capsys, "kernel-betti", "--complex", "c4.json", "--phi", "phi_ones.json",
            "--field", "F2", "--degrees", "0..1",
        )
        assert code == 0
        assert json.loads(out)["kernel_betti"] == [0, 4]

    def test_fpn_check_reports_violation(self, workdir, capsys):
        code, out, _ = run_cli(
            capsys, "fpn-check", "--complex", "c4.json", "--phi", "phi_ones.json",
            "--field", "Q", "--n", "2",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["fpn"] is False
        assert obj["violating_dead_simplex"] == []

    def test_fpn_check_positive(self, workdir, capsys):
        code, out, _ = run_cli(
            capsys, "fpn-check", "--complex", "c4.json", "--phi", "phi_ones.json",
            "--field", "Q", "--n", "1",
        )
        assert code == 0
        assert json.loads(out)["fpn"] is True


class TestFibringAndCharacters:
    def test_fibring_verdicts(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "fibring", "--complex", "c4.json", "--ring", "Z/6", "--n", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"] is True and obj["ring"] == "Z/6"

    def test_huge_zmod_returns_at_once(self, workdir, capsys):
        # 10**30 + 57 has no factor below 10**6: deciding Z/m must not factor it
        start = time.process_time()
        code, out, _ = run_cli(
            capsys, "fibring", "--complex", "c4.json", "--ring", "Z/1000000000000000000000000000057", "--n", "2"
        )
        assert time.process_time() - start < 1.0
        assert code == 0
        obj = json.loads(out)
        assert obj["ring"] == "Z/1000000000000000000000000000057"
        assert obj["verdict"] is False and obj["obstruction_degree"] == 2

    def test_characters_list(self, workdir, capsys):
        code, out, _ = run_cli(
            capsys, "characters", "--complex", "two_points.json", "--field", "Q", "--n", "1", "--bound", "1"
        )
        assert code == 0
        assert json.loads(out)["characters"] == []

    def test_kaz_check(self, workdir, capsys):
        code, out, _ = run_cli(
            capsys, "kaz-check", "--complex", "two_points.json", "--field", "F2",
            "--quotients", "abelian:1,2,3", "--max-degree", "1",
        )
        assert code == 0
        assert json.loads(out)["holds"] is True

    @pytest.mark.parametrize(
        "args",
        [
            ("characters", "--complex", "two_points.json", "--field", "Q", "--n", "1", "--bound", "0"),
            ("fibring", "--complex", "c4.json", "--ring", "Q", "--n", "-1"),
            (
                "kaz-check", "--complex", "two_points.json", "--field", "F2",
                "--quotients", "abelian:2", "--max-degree", "-1",
            ),
            ("fpn-check", "--complex", "c4.json", "--phi", "phi_ones.json", "--field", "Q", "--n", "-1"),
            ("characters", "--complex", "c4.json", "--field", "Q", "--n", "-1", "--bound", "1"),
        ],
        ids=["characters-bound", "fibring-n", "kaz-check-max-degree", "fpn-check-n", "characters-n"],
    )
    def test_out_of_range_argument_is_input_error(self, workdir, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "input" and "must be >=" in error["message"]

    @pytest.mark.parametrize(
        "args, key",
        [
            (("fpn-check", "--complex", "{complex}", "--phi", "{phi}", "--field", "Q", "--n"), "n"),
            (("fibring", "--complex", "{complex}", "--ring", "Z", "--n"), "n"),
            (("fibring", "--complex", "{complex}", "--ring", "Z/6", "--n"), "n"),
            (("characters", "--complex", "{complex}", "--field", "F2", "--bound", "1", "--n"), "n"),
            (
                ("kaz-check", "--complex", "{complex}", "--field", "Q",
                 "--quotients", "abelian:1,2", "--max-degree"),
                "max_degree",
            ),
        ],
        ids=["fpn-check", "fibring-Z", "fibring-Z/6", "characters", "kaz-check"],
    )
    @pytest.mark.parametrize("name", ["path", "c4"])
    def test_levels_above_the_dimension_add_nothing(self, workdir, capsys, args, key, name):
        # levels above dim + 1 impose no conditions, so a huge level gives
        # the report of level dim + 2 and still finishes at once
        if name == "path":
            (workdir / "path.json").write_text(
                json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]})
            )
            (workdir / "path_phi.json").write_text(json.dumps({"phi": {"a": 1, "b": 0, "c": 1}}))
            files = {"complex": "path.json", "phi": "path_phi.json"}
        else:
            files = {"complex": "c4.json", "phi": "phi_ones.json"}
        argv = [a.format(**files) for a in args]
        code, small, _ = run_cli(capsys, *argv, "3")  # both complexes have dimension 1
        assert code == 0 and small.count(f'"{key}": 3') == 1
        code, big, _ = run_cli(capsys, *argv, str(10**12))
        assert code == 0
        assert big == small.replace(f'"{key}": 3', f'"{key}": {10**12}')


class TestGradient:
    def test_gradient_json(self, workdir, capsys):
        code, out, _ = run_cli(
            capsys, "gradient", "--complex", "two_points.json", "--field", "Q",
            "--chain", "abelian:1,2", "--degree", "1",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["betti"] == [2, 5]
        assert obj["normalized"] == ["2/1", "5/4"]

    @pytest.mark.parametrize(
        "complex_, field, chain, degree, betti",
        [
            ("c4.json", "Q", "c4_z2.json", "1", [10]),
            ("two_points.json", "Q", "two_points_z3.json", "1", [10]),  # (2 - 1) * 9 + 1 orbit
            ("c4.json", "F2", "abelian:2,3", "2", [25, 100]),  # (n^2 + 1)^2
        ],
        ids=["explicit", "free-group", "abelian"],
    )
    def test_cache_option_is_ignored(self, workdir, capsys, complex_, field, chain, degree, betti):
        argv = ("gradient", "--complex", complex_, "--field", field, "--chain", chain, "--degree", degree)
        code, plain, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(plain)["betti"] == betti
        code, out, err = run_cli(capsys, *argv, "--cache", str(workdir / "cache"))
        assert code == 0 and out == plain and err == ""
        assert not (workdir / "cache").exists()

    def test_empty_cache_path_is_input_error(self, workdir, capsys):
        code, out, err = run_cli(
            capsys, "gradient", "--complex", "c4.json", "--field", "Q",
            "--chain", "c4_z2.json", "--degree", "1", "--cache", "",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["kind"] == "input"
        assert not list(workdir.rglob("rank-*.json"))

    @pytest.mark.parametrize("files", [",c4_z2.json", "c4_z2.json,,c4_z2.json", "c4_z2.json,"],
                             ids=["leading", "inner", "trailing"])
    @pytest.mark.parametrize("command, option, last", [("gradient", "--chain", ("--degree", "1")),
                                                       ("kaz-check", "--quotients", ("--max-degree", "1"))],
                             ids=["gradient", "kaz-check"])
    def test_empty_file_entry_is_input_error(self, workdir, capsys, files, command, option, last):
        code, out, err = run_cli(capsys, command, "--complex", "c4.json", "--field", "F2", option, files, *last)
        assert code == 2 and out == ""
        message = f"argument {option}: a path must not be empty"
        assert json.loads(err)["error"] == {"kind": "input", "message": message}

    def test_abelian_chain_with_char_dividing_order(self, workdir, capsys):
        # N = n^4 reaches 2^40: only the character sum can take this chain
        ns = [2 ** i for i in range(1, 11)]
        start = time.process_time()
        code, out, _ = run_cli(
            capsys, "gradient", "--complex", "c4.json", "--field", "F2",
            "--chain", "abelian:" + ",".join(map(str, ns)), "--degree", "2",
        )
        assert time.process_time() - start < 1.0
        assert code == 0
        obj = json.loads(out)
        assert obj["orders"] == [n ** 4 for n in ns]
        code, out, _ = run_cli(
            capsys, "gradient", "--complex", "c4.json", "--field", "F2",
            "--chain", "c4_z2.json", "--degree", "2",
        )
        assert code == 0
        eliminated = json.loads(out)
        assert (obj["betti"][0], obj["normalized"][0]) == (eliminated["betti"][0], eliminated["normalized"][0])

    def test_negative_degree_is_input_error(self, workdir, capsys):
        code, out, err = run_cli(
            capsys, "gradient", "--complex", "two_points.json", "--field", "Q",
            "--chain", "abelian:2", "--degree", "-1",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["kind"] == "input"

    def test_decreasing_chain_is_input_error(self, workdir, capsys):
        code, out, err = run_cli(
            capsys, "gradient", "--complex", "two_points.json", "--field", "Q",
            "--chain", "abelian:3,2", "--degree", "1",
        )
        assert code == 2 and out == ""
        assert "nondecreasing" in json.loads(err)["error"]["message"]

    def test_explicit_quotient_file(self, workdir, capsys):
        (workdir / "q.json").write_text(
            json.dumps({"type": "explicit", "order": 2, "action": {"a": [1, 0], "b": [0, 1]}})
        )
        code, out, _ = run_cli(
            capsys, "gradient", "--complex", "two_points.json", "--field", "Q",
            "--chain", "q.json", "--degree", "1",
        )
        assert code == 0
        assert json.loads(out)["betti"] == [3]  # index-2 cover of the figure eight

    def test_bad_chain_spec(self, workdir, capsys):
        code, _, err = run_cli(
            capsys, "gradient", "--complex", "two_points.json", "--field", "Q",
            "--chain", "abelian:0", "--degree", "1",
        )
        assert code == 2
        # an empty entry is not read as absent: abelian:2,,3 gave the orders [4, 9]
        for chain in ("abelian:2,,3", "abelian:2,", "abelian:"):
            code, out, err = run_cli(
                capsys, "gradient", "--complex", "two_points.json", "--field", "Q",
                "--chain", chain, "--degree", "1",
            )
            assert code == 2 and out == "" and json.loads(err)["error"]["kind"] == "input"


class TestStrictIntegers:
    """Only JSON integers, booleans excluded, are read as numbers in input files."""

    @pytest.mark.parametrize("bad", [1.5, True, "x", None])
    def test_phi(self, workdir, capsys, bad):
        (workdir / "phi_bad.json").write_text(json.dumps({"phi": {"0": bad, "1": 1, "2": 1, "3": 1}}))
        code, out, err = run_cli(
            capsys, "fpn-check", "--complex", "c4.json", "--phi", "phi_bad.json", "--field", "Q", "--n", "1"
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "input" and "phi of '0'" in error["message"]

    @pytest.mark.parametrize(
        "fragment, quotient",
        [
            ("modulus", {"type": "abelian", "moduli": {"0": 2.7, "1": 2}}),
            ("modulus", {"type": "abelian", "moduli": {"0": "3"}}),
            ("modulus", {"type": "abelian", "moduli": {"0": True}}),
            ("moduli", {"type": "abelian", "moduli": [2, 2]}),
            ("order", {"type": "explicit", "order": 2.0, "action": {"0": [1, 0]}}),
            ("order", {"type": "explicit", "order": True, "action": {"0": [1, 0]}}),
            ("order", {"type": "explicit", "action": {"0": [1, 0]}}),
            ("action", {"type": "explicit", "order": 2, "action": {"0": [1.0, 0]}}),
            ("action", {"type": "explicit", "order": 2, "action": {"0": [True, False]}}),
            ("action", {"type": "explicit", "order": 2, "action": {"0": 1}}),
            ("action", {"type": "explicit", "order": 2, "action": [[1, 0]]}),
        ],
    )
    def test_quotient_fields(self, workdir, capsys, fragment, quotient):
        (workdir / "q_bad.json").write_text(json.dumps(quotient))
        code, out, err = run_cli(
            capsys, "gradient", "--complex", "c4.json", "--field", "Q", "--chain", "q_bad.json", "--degree", "1"
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "input" and fragment in error["message"]

    def test_integer_moduli_still_read(self, workdir, capsys):
        (workdir / "q.json").write_text(json.dumps({"type": "abelian", "moduli": {"0": 2}}))
        code, out, _ = run_cli(
            capsys, "gradient", "--complex", "c4.json", "--field", "Q", "--chain", "q.json", "--degree", "1"
        )
        assert code == 0 and json.loads(out)["orders"] == [2]


class TestUnknownKeys:
    """Character and quotient files take only their own keys: a misspelt key is not read as absent."""

    @pytest.mark.parametrize(
        "quotient",
        [
            {"type": "abelian", "modulii": {"0": 2, "1": 2, "2": 2, "3": 2}},
            {"type": "abelian", "moduli": {"0": 2}, "order": 2},
            {"type": "explicit", "order": 2, "action": {"0": [1, 0]}, "moduli": {"0": 2}},
            {"type": "explicit", "order": 2, "action": {"0": [1, 0]}, "name": "z2"},
        ],
    )
    def test_quotient(self, workdir, capsys, quotient):
        (workdir / "q_bad.json").write_text(json.dumps(quotient))
        code, out, err = run_cli(
            capsys, "gradient", "--complex", "c4.json", "--field", "Q", "--chain", "q_bad.json", "--degree", "1"
        )
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["kind"] == "input" and "unknown keys" in error["message"]

    def test_phi(self, workdir, capsys):
        (workdir / "phi_extra.json").write_text(json.dumps({"phi": {"0": 1, "1": 1, "2": 1, "3": 1}, "n": 1}))
        code, out, err = run_cli(
            capsys, "fpn-check", "--complex", "c4.json", "--phi", "phi_extra.json", "--field", "Q", "--n", "1"
        )
        assert code == 2 and out == "" and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["kind"] == "input" and "only a 'phi' mapping" in error["message"]

    def test_written_quotients_are_read_back(self, workdir, capsys):
        A = Raag(flag_completion(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)]))
        regular = abelian_quotient(A, {0: 2, 1: 3})
        swap = FiniteQuotient(A, 2, {0: [1, 0], 1: [0, 1], 2: [1, 0], 3: [0, 1]})
        (workdir / "q_abelian.json").write_text(json.dumps({"type": "abelian", "moduli": {"0": 2, "1": 3}}))
        for name, q in (("regular", regular), ("swap", swap)):
            (workdir / f"q_{name}.json").write_text(json.dumps(q.to_json_dict()))
        reports = {}
        for name in ("abelian", "regular", "swap"):
            code, out, _ = run_cli(
                capsys, "gradient", "--complex", "c4.json", "--field", "Q", "--chain", f"q_{name}.json", "--degree", "1"
            )
            assert code == 0
            reports[name] = json.loads(out)
        assert reports["regular"] == reports["abelian"] and reports["regular"]["orders"] == [6]
        assert reports["swap"]["orders"] == [2]


class TestComplexFiles:
    def test_edges_and_faces_together_are_input_error(self, workdir, capsys):
        (workdir / "both.json").write_text(
            json.dumps({"vertices": [0, 1, 2], "edges": [[0, 1]], "faces": [[0, 1, 2]]})
        )
        code, out, err = run_cli(capsys, "betti", "--complex", "both.json", "--field", "Q", "--degrees", "0")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["kind"] == "input"

    @pytest.mark.parametrize(
        "complex_obj",
        [
            {"vertices": [0, 1], "edge": [[0, 1]]},
            {"vertices": [0, 1], "edges": [[0, 1]], "name": "segment"},
            {"vertices": [1, "1", 2], "edges": [[1, 2]]},
            {"vertices": [True, "True"], "faces": []},
        ],
        ids=["misspelled-edges", "extra-key", "int-and-string-label", "bool-and-string-label"],
    )
    def test_unknown_key_or_colliding_labels_are_input_error(self, workdir, capsys, complex_obj):
        (workdir / "bad.json").write_text(json.dumps(complex_obj))
        code, out, err = run_cli(
            capsys, "characters", "--complex", "bad.json", "--field", "Q", "--n", "1", "--bound", "1"
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["kind"] == "input"

    @pytest.mark.parametrize(
        "complex_obj",
        [
            {"vertices": "abc", "edges": [["a", "b"]]},
            {"vertices": {"a": 0, "b": 1}},
            {"vertices": ["a", "b"], "faces": {"ab": 1}},
            {"vertices": ["a", "b"], "edges": {"ab": 1}},
            {"vertices": ["a", "b"], "edges": ["ab"]},
            {"vertices": ["a", "b"], "faces": [{"a": 0, "b": 1}]},
            {"vertices": ["a", "b"], "faces": [["a", "b"], "ab"]},
            {"vertices": ["a", "b"], "faces": [[]]},
        ],
        ids=[
            "vertices-string",
            "vertices-object",
            "faces-object",
            "edges-object",
            "edge-string",
            "face-object",
            "face-string",
            "face-empty",
        ],
    )
    def test_non_list_vertices_edges_or_faces_are_input_error(self, workdir, capsys, complex_obj):
        (workdir / "bad.json").write_text(json.dumps(complex_obj))
        code, out, err = run_cli(capsys, "betti", "--complex", "bad.json", "--field", "Q", "--degrees", "0..2")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["kind"] == "input"

    @pytest.mark.parametrize(
        "vertices",
        ['[null, "a"]', "[1.5, 2]", "[true, 2]", "[NaN, 2]", "[-Infinity, 2]", '[["x"], 2]'],
        ids=["null", "float", "bool", "nan", "infinity", "list"],
    )
    def test_labels_other_than_strings_and_integers_are_input_error(self, workdir, capsys, vertices):
        (workdir / "bad.json").write_text('{"vertices": %s, "edges": []}' % vertices)
        code, out, err = run_cli(capsys, "betti", "--complex", "bad.json", "--field", "Q", "--degrees", "0..1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and json.loads(err)["error"]["kind"] == "input"

    @pytest.mark.parametrize("face, message", BAD_FACES, ids=BAD_FACE_IDS)
    def test_bad_face_is_input_error_naming_it(self, workdir, capsys, face, message):
        (workdir / "bad.json").write_text(json.dumps({"vertices": ["a", "b"], "faces": [["a", "b"], face]}))
        code, out, err = run_cli(capsys, "betti", "--complex", "bad.json", "--field", "Q", "--degrees", "0..1")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err) == {"error": {"kind": "input", "message": f"bad.json: {message}"}}

    def test_file_that_is_not_utf8_is_input_error(self, workdir, capsys):
        (workdir / "bad.json").write_bytes(b'{"vertices": ["\xff"], "edges": []}')
        code, out, err = run_cli(capsys, "betti", "--complex", "bad.json", "--field", "Q", "--degrees", "0..1")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["kind"] == "input"


def characters_report(complex_obj, field, n, bound):
    """The characters report as the stdlib encoder writes it, from the report's definition."""
    K = SimplicialComplex.from_json_dict(complex_obj)
    rows = find_characters(K, n, FieldSpec.from_token(field), bound)
    report = {
        "field": field,
        "n": n,
        "bound": bound,
        "characters": [{str(v): x for v, x in zip(K.vertices, values)} for values in rows],
    }
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def cli_characters(workdir, capsys, complex_obj, field, n, bound):
    (workdir / "k.json").write_text(json.dumps(complex_obj))
    code, out, err = run_cli(
        capsys, "characters", "--complex", "k.json", "--field", field, "--n", str(n), "--bound", str(bound)
    )
    assert code == 0, err
    return out


def lines(text):
    """Reports are compared as line lists: pytest's diff of two long unequal strings can take minutes."""
    return text.splitlines(keepends=True)


@st.composite
def labelled_flag_complexes(draw):
    """A flag complex on 1..6 vertices whose labels mix ints and strings needing escapes."""
    labels = draw(
        st.lists(
            st.one_of(st.integers(-3, 12), st.text(alphabet='a1é"\\{}%\nΩ', max_size=3)),
            min_size=1, max_size=6, unique_by=str,
        )
    )
    pairs = [[u, v] for i, u in enumerate(labels) for v in labels[i + 1 :]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return {"vertices": labels, "edges": [e for e, k in zip(pairs, keep) if k]}


class TestCharactersReportBytes:
    """The characters list is written without the json encoder; its bytes must match it."""

    @pytest.mark.parametrize(
        "complex_obj",
        [
            # string order differs from vertex order, ints and strings mixed
            {"vertices": [2, 10, "b", 1, "a"], "edges": [[2, 10], [10, "b"], ["b", 1], [1, "a"], ["a", 2]]},
            # labels that need escaping
            {
                "vertices": ["é", 'q"', "b\\s", "{x}", "5%d"],
                "edges": [["é", 'q"'], ['q"', "b\\s"], ["b\\s", "{x}"], ["{x}", "5%d"]],
            },
            {"vertices": [7], "edges": []},
            {"vertices": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
            # sorted as strings: "10", "2", "a", "b"
            {"vertices": ["b", "a", 10, 2], "edges": [["b", "a"], ["a", 10], [10, 2]]},
            # format specifiers as labels, which must come out as written
            {"vertices": ["%", "%%", "%d", "a%s"], "edges": [["%", "%%"], ["%%", "%d"], ["%d", "a%s"]]},
        ],
        ids=["string-order", "escapes", "one-vertex", "c4", "sorted-order-differs", "percent"],
    )
    @pytest.mark.parametrize("field", ["Q", "F2"])
    @pytest.mark.parametrize("bound", [1, 2])
    def test_matches_stdlib_encoder(self, workdir, capsys, complex_obj, field, bound):
        for n in (0, 1):
            expected = characters_report(complex_obj, field, n, bound)
            assert json.loads(expected)["characters"]
            assert lines(cli_characters(workdir, capsys, complex_obj, field, n, bound)) == lines(expected)

    def test_empty_list(self, workdir, capsys):
        two_points = {"vertices": ["a", "b"], "edges": []}
        out = cli_characters(workdir, capsys, two_points, "Q", 1, 1)
        assert lines(out) == lines(characters_report(two_points, "Q", 1, 1))
        assert '"characters": [],' in out

    @settings(
        max_examples=40, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        labelled_flag_complexes(), st.sampled_from(("Q", "F2")), st.integers(0, 2), st.integers(1, 2)
    )
    def test_flag_complexes(self, workdir, capsys, complex_obj, field, n, bound):
        expected = characters_report(complex_obj, field, n, bound)
        assert lines(cli_characters(workdir, capsys, complex_obj, field, n, bound)) == lines(expected)


class TestReportCommand:
    def test_report_subset(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "report", "--criteria", "1,10,11")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all("PASS" in line for line in lines[:3])
        assert lines[3] == "3/3 criteria passed"

    @pytest.mark.parametrize("criteria", ["99", "1,99", "0", "01", ""])
    def test_unknown_criterion_is_input_error(self, workdir, capsys, criteria):
        # a run that names no criterion checks nothing, so it must not pass
        code, out, err = run_cli(capsys, "report", "--criteria", criteria)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"]["kind"] == "input"


class TestRoundTrip:
    def test_every_json_report_is_in_stdlib_form(self, workdir, capsys):
        for args in [
            ("betti", "--complex", "c4.json", "--field", "Q", "--degrees", "0..3"),
            (
                "kernel-betti", "--complex", "c4.json", "--phi", "phi_ones.json",
                "--field", "Q", "--degrees", "0..1",
            ),
            ("fpn-check", "--complex", "c4.json", "--phi", "phi_ones.json", "--field", "Q", "--n", "1"),
            ("fibring", "--complex", "c4.json", "--ring", "Z/6", "--n", "1"),
            ("gradient", "--complex", "c4.json", "--field", "F2", "--chain", "abelian:2,4", "--degree", "1"),
            ("characters", "--complex", "c4.json", "--field", "Q", "--n", "1", "--bound", "2"),
            (
                "kaz-check", "--complex", "c4.json", "--field", "F2",
                "--quotients", "abelian:2,3", "--max-degree", "2",
            ),
        ]:
            code, out, err = run_cli(capsys, *args)
            assert code == 0, err
            assert lines(out) == lines(json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"), args[0]

    def test_reports_reparse(self, workdir, capsys):
        for args in [
            ("betti", "--complex", "c4.json", "--field", "Q", "--degrees", "0..3"),
            ("fibring", "--complex", "c4.json", "--ring", "Q", "--n", "1"),
            ("fpn-check", "--complex", "c4.json", "--phi", "phi_ones.json", "--field", "Q", "--n", "1"),
        ]:
            code, out, _ = run_cli(capsys, *args)
            assert code == 0
            obj = json.loads(out)
            assert isinstance(obj, dict) and obj
