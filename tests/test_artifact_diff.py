"""The numeric artifact diff: equal files, moved floats, exact fields, one-sided files."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("artifact_diff", ROOT / "tools" / "artifact_diff.py")
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)

SAMPLES = "sample_index,m_value\n0,1.5\n1,2.25\n2,3.0\n"
SUMMARY = {"mean": 2.25, "std": 0.6123724356957945, "n_samples": 3, "policy": "RAND"}


def write_tree(root: Path, samples: str = SAMPLES, summary: dict = SUMMARY) -> Path:
    (root / "run").mkdir(parents=True)
    (root / "run" / "samples.csv").write_text(samples)
    (root / "run" / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return root


def diff(capsys, a: Path, b: Path) -> tuple[int, list]:
    code = artifact_diff.main([str(a), str(b)])
    return code, capsys.readouterr().out.splitlines()


def test_identical_trees_are_equal_file_by_file(tmp_path, capsys):
    a, b = write_tree(tmp_path / "a"), write_tree(tmp_path / "b")
    (a / "notes.txt").write_text("not an artifact")
    code, lines = diff(capsys, a, b)
    assert code == 0
    assert lines == ["run/samples.csv: equal", "run/summary.json: equal"]


def test_moved_floats_are_counted_with_their_largest_change(tmp_path, capsys):
    a = write_tree(tmp_path / "a")
    moved = SAMPLES.replace("2.25", "2.2500000000000004").replace("3.0", "3.003")
    b = write_tree(tmp_path / "b", moved, SUMMARY | {"std": 0.6123724356957946})
    code, lines = diff(capsys, a, b)
    assert code == 1
    assert lines == [
        "run/samples.csv: 2 of 3 floats moved, largest relative change 0.001, absolute 0.003",
        "run/summary.json: 1 of 2 floats moved, largest relative change 1.81e-16, "
        "absolute 1.11e-16",
    ]


def test_a_byte_difference_with_no_moved_float_counts_none(tmp_path, capsys):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", SAMPLES.replace("3.0", "3.00"))
    code, lines = diff(capsys, a, b)
    assert code == 1
    assert lines == ["run/samples.csv: 0 of 3 floats moved", "run/summary.json: equal"]


@pytest.mark.parametrize(
    "samples, summary, place",
    [
        (SAMPLES.replace("m_value", "M"), SUMMARY, "samples.csv: differs at [0][1]: 'm_value' "
         "!= 'M'"),
        (SAMPLES.replace("\n1,", "\n7,"), SUMMARY, "samples.csv: differs at [2][0]: 1 != 7"),
        (SAMPLES + "3,1.0\n", SUMMARY, "samples.csv: differs at top: 4 != 5 items"),
        (SAMPLES, SUMMARY | {"n_samples": 3.0}, "summary.json: differs at .n_samples: 3 != 3.0"),
        (SAMPLES, SUMMARY | {"n_samples": True}, "summary.json: differs at .n_samples: 3 != True"),
        (SAMPLES, SUMMARY | {"policy": "FIXED"}, "summary.json: differs at .policy: 'RAND' != "
         "'FIXED'"),
        (SAMPLES, {"std": 0.5} | SUMMARY, "summary.json: differs at top: keys ['mean', 'std', "
         "'n_samples', 'policy'] != ['std', 'mean', 'n_samples', 'policy']"),
    ],
    ids=["header", "integer", "rows", "int-float", "int-bool", "string", "key-order"],
)
def test_anything_but_a_float_must_match_exactly(tmp_path, capsys, samples, summary, place):
    a, b = write_tree(tmp_path / "a"), write_tree(tmp_path / "b", samples, summary)
    code, lines = diff(capsys, a, b)
    assert code == 1 and f"run/{place}" in lines


def test_a_file_on_one_side_is_named(tmp_path, capsys):
    a, b = write_tree(tmp_path / "a"), write_tree(tmp_path / "b")
    (b / "run" / "histogram.csv").write_text("bin_center,density\n")
    code, lines = diff(capsys, a, b)
    assert code == 1 and lines[0] == f"run/histogram.csv: only in {b}"


def test_relative_change_of_special_values():
    change = artifact_diff.relative_change
    assert change(float("nan"), float("nan")) == 0.0
    assert change(0.0, -0.0) == 0.0
    assert change(0.0, 1e-300) == float("inf")
    assert change(float("inf"), 1.0) == float("inf")
    assert change(-2.0, -2.5) == 0.25


def test_digests_keep_refuses_a_directory_that_is_not_empty(tmp_path):
    (tmp_path / "stale.json").write_text("{}")
    script = ROOT / "tools" / "artifact_digests.sh"
    run = subprocess.run([script, "--keep", tmp_path, ROOT], capture_output=True, text=True)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == f"error: {tmp_path} is not empty\n"
