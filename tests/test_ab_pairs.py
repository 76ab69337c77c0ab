"""The A/B pair runner: its summary of committed runs, its run order, and failed runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_summary_reproduces_every_committed_entry(path):
    record = json.loads(path.read_text())
    better = ab_pairs.declared_directions(ROOT)
    assert ab_pairs.summarize(record["runs"], better) == record["summary"]


def test_dry_run_alternates_which_side_runs_first(capsys):
    argv = ["--parent", "p", "--change", "c", "--tag", "t", "--workloads", "w1", "w2",
            "--seeds", "0", "5", "--pairs", "3", "--dry-run"]
    assert ab_pairs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * 2 * 3 * 2
    sides = [line.split()[2] for line in lines[:6]]
    assert sides == ["parent", "change", "change", "parent", "parent", "change"]
    assert all("w1 seed 0" in line for line in lines[:6])
    assert all("w2 seed 5" in line for line in lines[-6:])


def _stub_perfbench(monkeypatch, returncode, correct, failed):
    result = {"correct": correct, "attempted": 5, "failed": failed, "metrics": {}}
    stdout = 'fingerprint {"python": "3"}\n' + json.dumps(result) + "\n"

    def fake_run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, returncode, stdout=stdout, stderr="")

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    return result


def test_a_passing_run_is_kept(monkeypatch):
    expected = _stub_perfbench(monkeypatch, 0, True, 0)
    result, software = ab_pairs.perfbench(Path("."), "opt-uni-ns16", 0, 1.0, trace=0)
    assert result == expected and software["python"] == "3"


@pytest.mark.parametrize(
    "returncode, correct, failed",
    [(1, True, 0), (0, False, 0), (0, True, 2)],
    ids=["nonzero-exit", "incorrect", "failed-ops"],
)
def test_a_failed_run_stops_the_runner(monkeypatch, returncode, correct, failed):
    _stub_perfbench(monkeypatch, returncode, correct, failed)
    with pytest.raises(SystemExit, match="error: .*opt-uni-ns16 seed 0"):
        ab_pairs.perfbench(Path("."), "opt-uni-ns16", 0, 1.0, trace=0)
