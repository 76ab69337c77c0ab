"""The A/B pair runner: its summary of committed runs, its regression flags, its run order,
and failed runs."""

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
    better = ab_pairs.declared(ROOT, "better")
    assert ab_pairs.summarize(record["runs"], better) == record["summary"]


def hand_made_runs(parent: dict, change: dict, pairs=10) -> list:
    """Alternated pairs whose every run reads the given end-to-end metric values, the
    parent's setup_s spread around its value."""
    spread = (-0.02, -0.01, -0.005, 0.0, 0.0, 0.0, 0.002, 0.01, 0.02, 0.03)
    runs = []
    for pair in range(1, pairs + 1):
        for side, values in (("parent", parent), ("change", change)):
            metrics = {name: {"value": value} for name, value in values.items()}
            if side == "parent":
                metrics["setup_s"]["value"] += spread[pair - 1]
            runs.append({
                "workload": "mc-toggle-ns16", "seed": 0, "pair": pair, "side": side,
                "result": {"metrics": metrics}, "code": "final",
            })
    return runs


@pytest.mark.parametrize(
    "setup_rise, ops_drop, flagged",
    [(0.256, 0.0, ["setup_s"]), (0.24, 0.0, []), (0.0, 0.03, []), (0.0, 0.26, ["ops_per_s"])],
)
def test_regressions_flag_only_a_median_worse_than_its_bound(setup_rise, ops_drop, flagged):
    parent = {"setup_s": 0.178, "wall_s": 20.0, "ops_per_s": 100.0, "peak_rss_mb": 47.0}
    change = parent | {"setup_s": 0.178 * (1 + setup_rise), "ops_per_s": 100.0 * (1 - ops_drop)}
    better, bounds = ab_pairs.declared(ROOT, "better"), ab_pairs.declared(ROOT, "bound")
    summary = ab_pairs.summarize(hand_made_runs(parent, change), better)
    flags = ab_pairs.regressions(summary, better, bounds)
    assert [flag["metric"] for flag in flags] == flagged
    for flag in flags:
        assert flag["worsening"] == pytest.approx(setup_rise or ops_drop)
        assert flag["bound"] == 0.25
        q = summary[0]["metrics"][flag["metric"]]["parent"]
        assert flag["parent_iqr"] == (q["q3"] - q["q1"]) / q["median"]


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
