"""The benchmark's own test, on token-sized inputs.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["mc-model-ns64", "mc-toggle-ns16", "opt-uni-ns16", "validate-sweep"]

# The eight end-to-end figures every workload prints by name, with a unit
# or n/a where the workload has no such figure.
NAMED = (
    "setup_s", "wall_s", "samples_per_s", "solve_s",
    "best_objective", "trials_per_s", "peak_rss_mb", "fail_frac",
)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def test_declared_workloads():
    assert [w["name"] for w in DECLARED["workloads"]] == WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0.01",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name in NAMED:
        assert f"\n  {name} " in proc.stdout, name
    assert "reference values recorded" in proc.stdout


@pytest.mark.parametrize("workload", ["mc-model-ns64", "opt-uni-ns16", "validate-sweep"])
def test_a_wrong_reference_value_fails_the_check(workload, tmp_path):
    sys.path.insert(0, str(HERE))
    import run

    cli = run.import_program()
    from workloads import make_workloads

    spec = make_workloads(smoke=True)[workload]
    refs = json.loads((HERE / "references.json").read_text())["smoke"][workload]
    ref_key = spec.reference_key(0, 0)

    good = run.Bench(cli, spec, 0, refs, tmp_path).invoke(0)
    assert good.problems == []

    wrong = {ref_key: {name: value * 1.05 for name, value in refs[ref_key].items()}}
    bad = run.Bench(cli, spec, 0, wrong, tmp_path).invoke(0)
    assert any("recorded" in problem for problem in bad.problems), bad.problems


def test_all_exits_nonzero_when_a_check_fails(tmp_path):
    copy = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    refs = json.loads((HERE / "references.json").read_text())
    ref = refs["smoke"]["validate-sweep"]["0"]
    ref["max_fd_relative_error"] *= 2.0
    (copy / "perfbench" / "references.json").write_text(json.dumps(refs))
    proc = bench("--workload", "all", "--seed", "0", "--seconds", "0.01", "--smoke", cwd=copy)
    assert proc.returncode != 0
    assert "FAILED CHECK" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "mc-model-ns64", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
