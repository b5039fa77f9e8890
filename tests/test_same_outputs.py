"""tools/same_outputs.py finds the first job whose (exit code, stdout) differs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)
first_difference = same_outputs.first_difference

OUTCOMES = [(0, "a\n"), (2, ""), (0, "b\n"), (-1, "")]


def test_equal_lists_agree():
    assert first_difference(OUTCOMES, list(OUTCOMES)) is None
    assert first_difference([], []) is None


def test_json_pairs_compare_like_tuples():
    # outcomes read back from JSON are lists, not tuples
    assert first_difference(OUTCOMES, [list(o) for o in OUTCOMES]) is None


def test_a_changed_stdout_or_exit_code_is_found_first():
    for i in range(len(OUTCOMES)):
        code, stdout = OUTCOMES[i]
        for planted in ((code, stdout + " "), (code + 1, stdout)):
            change = OUTCOMES[:i] + [planted] + OUTCOMES[i + 1 :]
            assert first_difference(OUTCOMES, change) == i
    later = [(0, "a\n"), (2, ""), (0, "B\n"), (0, "")]  # jobs 2 and 3 differ
    assert first_difference(OUTCOMES, later) == 2


def test_a_shorter_list_differs_where_it_ends():
    assert first_difference(OUTCOMES, OUTCOMES[:2]) == 2
    assert first_difference(OUTCOMES[:3], OUTCOMES) == 3
    assert first_difference([], OUTCOMES) == 0


def test_jobs_are_named_by_argv_or_call():
    argv = ["betti", "--complex", "c.json"]
    assert same_outputs.job_name({"argv": argv, "check": {}}) == argv
    call = {"call": "torsion_term", "input": "t-0001.json", "check": {}}
    assert same_outputs.job_name(call) == ["torsion_term", "t-0001.json"]
