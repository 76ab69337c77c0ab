"""End-to-end CLI tests; every invocation goes through main(), in process except where
a test blocks a module in a fresh interpreter."""

import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bsdof.cli
import bsdof.network
import bsdof.sampling
from bsdof.cli import build_parser, jacobian_validation_sweep, main
from bsdof.errors import SingularityError
from bsdof.loads import LOAD_MAG_TOL, LoadConstraint
from bsdof.metrics import benchmark_eemdof
from bsdof.network import (
    ScatteringSystem,
    closed_form_jacobian,
    complex_to_pairs,
    extract_blocks,
    load_system,
    save_system,
)
from bsdof.sampling import (
    IlluminationPolicy,
    histogram,
    sample_distribution,
    sample_random_illumination,
)
from bsdof.streams import substream

from synthetic import system_for


def make_system_file(tmp_path, n_t, n_r, n_s, seed, eta=0.9, mc=1.0, name="system.json"):
    path = tmp_path / name
    save_system(system_for(n_t, n_r, n_s, seed, eta, mc), path)
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


def exit_code(argv):
    """main's exit code, argparse's own exits included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_synth_env_defaults(tmp_path):
    out = tmp_path / "env"
    assert main(["synth-env", "--out-dir", str(out)]) == 0
    system = load_system(out / "system.json")
    assert system.n_total == 71
    assert system.tx_ports == (0, 1, 2)
    assert len(system.bs_ports) == 64
    config = read_json(out / "config.json")
    assert config["command"] == "synth-env"
    assert config["eta"] == 0.9


def test_synth_env_mc_zero_kills_the_coupling_block(tmp_path):
    out = tmp_path / "env"
    rc = main(
        ["synth-env", "--nt", "2", "--nr", "2", "--ns", "6", "--mc", "0", "--out-dir", str(out)]
    )
    assert rc == 0
    blocks = extract_blocks(load_system(out / "system.json"))
    assert np.array_equal(blocks.s_ss, np.zeros((6, 6)))


def test_synth_env_config_replay_is_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    args = ["synth-env", "--nt", "2", "--nr", "3", "--ns", "8", "--seed", "5"]
    assert main(args + ["--out-dir", str(first)]) == 0
    assert main(["replay", str(first / "config.json"), "--out-dir", str(second)]) == 0
    for name in ("config.json", "system.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("synth-env", ["--nt", "2", "--nr", "3", "--ns", "4", "--seed", "5"]),
        ("benchmark", ["--rx-ports", "3"]),
        ("bs-dist", ["--policy", "fixed", "--mode", "toggle", "--n", "50", "--seed", "2"]),
        ("optimize-x", ["--starts", "1", "--objective-samples", "20", "--final-n", "20"]),
        ("validate-jacobian", ["--trials", "20"]),
    ],
)
def test_every_subcommand_replays_byte_for_byte(tmp_path, monkeypatch, command, flags):
    if command not in ("synth-env", "validate-jacobian"):
        flags = ["--system", make_system_file(tmp_path, 2, 2, 4, seed=1), *flags]
    first, second = tmp_path / "a", tmp_path / "b"
    assert main([command, *flags, "--out-dir", str(first)]) == 0
    assert main(["replay", str(first / "config.json"), "--out-dir", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert "config.json" in names and len(names) > 1
    assert sorted(p.name for p in second.iterdir()) == names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    # without --out-dir a replay runs and writes nothing
    monkeypatch.chdir(tmp_path)
    written = sorted(tmp_path.rglob("*"))
    assert main(["replay", str(first / "config.json")]) == 0
    assert sorted(tmp_path.rglob("*")) == written


def test_readme_cli_examples_parse():
    """Every `bsdof ...` line of README's sh blocks parses, and each subcommand has one."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    examples = [shlex.split(line)[1:] for line in lines if line.startswith("bsdof ")]
    parser = build_parser()
    commands = {parser.parse_args(argv).command for argv in examples}
    assert commands == {"replay", *parser.parse_args(["replay", "config.json"]).runs}


def orthonormal_rows_system(tmp_path):
    # 8 ports: rx-to-load block has two orthonormal rows, so the benchmark
    # metric sits exactly at its cap of 2
    matrix = np.zeros((8, 8), dtype=complex)
    matrix[2, 4:] = [0.5, 0.5, 0.5, 0.5]
    matrix[3, 4:] = [0.5, -0.5, 0.5, -0.5]
    system = ScatteringSystem(
        n_total=8,
        matrix=matrix,
        tx_ports=(0, 1),
        rx_ports=(2, 3),
        bs_ports=(4, 5, 6, 7),
    )
    path = tmp_path / "flat.json"
    save_system(system, path)
    return str(path)


def test_benchmark_hits_the_cap_on_orthonormal_rows(tmp_path):
    out = tmp_path / "bench"
    path = orthonormal_rows_system(tmp_path)
    assert main(["benchmark", "--system", path, "--out-dir", str(out)]) == 0
    report = read_json(out / "benchmark.json")
    assert abs(report["m"] - 2.0) < 1e-12
    assert report["n_tilde"] == 2
    assert len(report["singular_values"]) == 2


def test_benchmark_rank_one_coupling(tmp_path):
    matrix = np.zeros((7, 7), dtype=complex)
    matrix[1, 3:] = 0.3 * np.array([0.5, 0.5, 0.5, 0.5])
    matrix[2, 3:] = 0.4 * np.array([0.5, 0.5, 0.5, 0.5])
    system = ScatteringSystem(
        n_total=7, matrix=matrix, tx_ports=(0,), rx_ports=(1, 2), bs_ports=(3, 4, 5, 6)
    )
    path = tmp_path / "rank1.json"
    save_system(system, path)
    out = tmp_path / "bench"
    assert main(["benchmark", "--system", str(path), "--out-dir", str(out)]) == 0
    assert abs(read_json(out / "benchmark.json")["m"] - 1.0) < 1e-12


def test_benchmark_port_overrides_apply_echo_and_replay(tmp_path, capsys):
    path = make_system_file(tmp_path, 1, 3, 4, seed=2)  # tx (0,), rx (1, 2, 3)
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["benchmark", "--system", path, "--rx-ports", "2,3", "--out-dir", str(first)]) == 0
    expected = benchmark_eemdof(extract_blocks(replace(load_system(path), rx_ports=(2, 3))))
    assert read_json(first / "benchmark.json") == {
        "m": expected.m,
        "n_tilde": expected.n_tilde,
        "singular_values": [float(s) for s in expected.singular_values],
    }
    assert read_json(first / "config.json")["rx_ports"] == [2, 3]
    assert main(["replay", str(first / "config.json"), "--out-dir", str(second)]) == 0
    for name in ("config.json", "benchmark.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    # 0 is the transmit port, and a port index must be an integer
    for ports in ("0,3", "2,x"):
        capsys.readouterr()
        argv = ["benchmark", "--system", path, "--rx-ports", ports]
        assert main([*argv, "--out-dir", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("key", ["tx_ports", "rx_ports", "bs_ports"])
def test_benchmark_replay_refuses_an_empty_port_list(tmp_path, capsys, key):
    path = make_system_file(tmp_path, 1, 3, 4, seed=2)
    first, again = tmp_path / "a", tmp_path / "b"
    assert main(["benchmark", "--system", path, "--out-dir", str(first)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(read_json(first / "config.json") | {key: []}))
    capsys.readouterr()
    assert main(["replay", str(bad), "--out-dir", str(again)]) == 1
    assert capsys.readouterr().err == f"error: {key} is empty\n"
    assert not again.exists()


def test_bs_dist_reruns_byte_identically(tmp_path):
    path = make_system_file(tmp_path, 2, 2, 8, seed=1)
    dirs = tmp_path / "a", tmp_path / "b"
    for d in dirs:
        rc = main(
            ["bs-dist", "--system", path, "--n", "400", "--seed", "7", "--out-dir", str(d)]
        )
        assert rc == 0
    for name in ("samples.csv", "summary.json", "histogram.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_bs_dist_materializes_the_default_fixed_illumination(tmp_path):
    path = make_system_file(tmp_path, 3, 2, 8, seed=2)
    first, second = tmp_path / "a", tmp_path / "b"
    rc = main(
        [
            "bs-dist", "--system", path, "--policy", "fixed",
            "--n", "300", "--seed", "9", "--out-dir", str(first),
        ]
    )
    assert rc == 0
    config = read_json(first / "config.json")
    # drawn once from the seed's (3, 0) substream, echoed for replay
    expected = complex_to_pairs(sample_random_illumination(3, substream(9, 3, 0)))
    assert config["fixed_x"] == expected
    assert main(["replay", str(first / "config.json"), "--out-dir", str(second)]) == 0
    for name in ("config.json", "samples.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()



def test_rand_policy_rejects_a_fixed_illumination(tmp_path, capsys, monkeypatch):
    path = make_system_file(tmp_path, 2, 2, 4, seed=1)
    first = tmp_path / "first"
    assert main(["bs-dist", "--system", path, "--n", "20", "--out-dir", str(first)]) == 0
    pairs = [[1.0, 0.0], [0.0, 0.0]]
    x_path, replay = tmp_path / "x.json", tmp_path / "replay.json"
    x_path.write_text(json.dumps(pairs))
    replay.write_text(json.dumps(read_json(first / "config.json") | {"fixed_x": pairs}))

    def no_draw(*args, **kwargs):
        raise AssertionError("the run drew before checking its policy")

    monkeypatch.setattr(bsdof.cli, "sample_distribution", no_draw)
    flag = ["bs-dist", "--system", path, "--policy", "rand", "--fixed-x", str(x_path)]
    for source in (flag, ["replay", str(replay)]):
        out = tmp_path / "again"
        capsys.readouterr()
        assert main([*source, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: fixed_x")
        assert not out.exists()


def test_bs_dist_fixed_without_coupling_is_deterministic(tmp_path):
    path = make_system_file(tmp_path, 2, 2, 8, seed=3, mc=0.0)
    out = tmp_path / "dist"
    rc = main(
        [
            "bs-dist", "--system", path, "--policy", "fixed",
            "--n", "500", "--seed", "4", "--out-dir", str(out),
        ]
    )
    assert rc == 0
    assert read_json(out / "summary.json")["std"] < 1e-12


def test_bs_dist_toggle_mode(tmp_path):
    path = make_system_file(tmp_path, 2, 2, 8, seed=4)
    out = tmp_path / "dist"
    rc = main(
        [
            "bs-dist", "--system", path, "--mode", "toggle",
            "--n", "200", "--seed", "5", "--out-dir", str(out),
        ]
    )
    assert rc == 0
    assert read_json(out / "summary.json")["mode"] == "toggle"


def test_bs_dist_worker_count_is_invisible(tmp_path, monkeypatch):
    path = make_system_file(tmp_path, 2, 2, 8, seed=1)
    outputs = []
    for threads, name in (("1", "a"), ("4", "b")):
        monkeypatch.setenv("BSDOF_THREADS", threads)
        out = tmp_path / name
        rc = main(
            ["bs-dist", "--system", path, "--n", "600", "--seed", "7", "--out-dir", str(out)]
        )
        assert rc == 0
        outputs.append(out)
    for name in ("samples.csv", "summary.json", "histogram.csv"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()


def pin_rand_run(tmp_path, *flags):
    """bs-dist PIN RAND, n = 50 at seed 11 on a (2, 2, 8) system, through main; returns the
    output directory, the system path and the in-process distribution of the same run."""
    path = make_system_file(tmp_path, 2, 2, 8, seed=3)
    out = tmp_path / "dist"
    argv = ["bs-dist", "--system", path, "--n", "50", "--seed", "11", *flags]
    assert main([*argv, "--out-dir", str(out)]) == 0
    policy, pin = IlluminationPolicy.rand(), LoadConstraint.pin()
    return out, path, sample_distribution(load_system(path), policy, pin, 50, seed=11)


def test_sample_writer_round_trips_exactly(tmp_path):
    out, _, dist = pin_rand_run(tmp_path)
    text = (out / "samples.csv").read_text()
    rows = "".join(f"{i},{v!r}\n" for i, v in enumerate(dist.samples.tolist()))
    assert text == "sample_index,m_value\n" + rows
    lines = text.splitlines()
    assert len(lines) == 51
    for i, line in enumerate(lines[1:]):
        index, value = line.split(",")
        assert int(index) == i
        # repr serialization: parsing back recovers the exact float
        assert float(value) == dist.samples[i]


def test_summary_writer_keys(tmp_path):
    out, path, dist = pin_rand_run(tmp_path)
    payload = read_json(out / "summary.json")
    assert list(payload) == [
        "mean",
        "std",
        "n_samples",
        "n_tilde",
        "seed",
        "redraw_count",
        "constraint",
        "policy",
        "mode",
        "system",
    ]
    assert payload["mean"] == dist.mean and payload["std"] == dist.std
    assert (payload["n_samples"], payload["n_tilde"], payload["seed"]) == (50, 2, 11)
    assert payload["constraint"] == "PIN"
    assert payload["policy"] == "RAND"
    assert (payload["mode"], payload["system"]) == ("model", path)


def test_histogram_writer_header(tmp_path):
    out, _, dist = pin_rand_run(tmp_path, "--bins", "8")
    lines = (out / "histogram.csv").read_text().splitlines()
    assert lines[0] == "bin_center,density"
    assert len(lines) == 9
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert rows == list(zip(*(a.tolist() for a in histogram(dist, 8))))


def optimize_args(path, direction, out, seed="11"):
    return [
        "optimize-x", "--system", path, "--constraint", "uni",
        "--direction", direction, "--objective-samples", "200",
        "--starts", "2", "--max-iterations", "400",
        "--final-n", "800", "--seed", seed, "--out-dir", str(out),
    ]


def test_optimize_x_brackets_and_reports(tmp_path):
    path = make_system_file(tmp_path, 2, 2, 8, seed=6)
    top_dir, bottom_dir = tmp_path / "max", tmp_path / "min"
    assert main(optimize_args(path, "max", top_dir)) == 0
    assert main(optimize_args(path, "min", bottom_dir)) == 0
    top = read_json(top_dir / "optimization.json")
    bottom = read_json(bottom_dir / "optimization.json")
    assert top["best_objective"] >= bottom["best_objective"]
    assert top["direction"] == "MAX"
    assert len(top["per_start_trace"]) == 2
    assert top["hyperparameters"]["n_objective_samples"] == 200
    assert top["load_set_redraws"] == 0
    assert len(read_json(top_dir / "best_x.json")) == 2

    # final distribution is evaluated at the optimum on the follow-up seed
    summary = read_json(top_dir / "summary.json")
    assert summary["n_samples"] == 800
    assert summary["seed"] == 12
    assert summary["policy"] == "FIXED"


def test_optimize_x_cannot_beat_random_with_one_tx_port(tmp_path):
    """One tx port leaves only a global phase to tune, so the optimized
    final distribution and a plain random-illumination run must agree
    statistically."""
    path = make_system_file(tmp_path, 1, 2, 8, seed=7)
    opt_dir, rand_dir = tmp_path / "opt", tmp_path / "rand"
    assert main(optimize_args(path, "max", opt_dir, seed="20")) == 0
    rc = main(
        ["bs-dist", "--system", path, "--constraint", "uni",
         "--n", "800", "--seed", "40", "--out-dir", str(rand_dir)]
    )
    assert rc == 0
    opt = read_json(opt_dir / "summary.json")
    rand = read_json(rand_dir / "summary.json")
    pooled = np.hypot(
        opt["std"] / np.sqrt(opt["n_samples"]), rand["std"] / np.sqrt(rand["n_samples"])
    )
    assert abs(opt["mean"] - rand["mean"]) <= 3.0 * pooled


def test_optimize_x_rejects_a_pathological_load_set_before_searching(tmp_path, capsys):
    # spike coupling resonates whenever load 0 is ON: half of all draws
    matrix = np.zeros((11, 11), dtype=complex)
    matrix[4, 0] = 0.5
    matrix[1:3, 4] = [0.3, 0.4]
    matrix[3, 3] = 1.0 - 1e-13
    system = ScatteringSystem(
        n_total=11, matrix=matrix, tx_ports=(0,), rx_ports=(1, 2), bs_ports=tuple(range(3, 11))
    )
    path = tmp_path / "spike.json"
    save_system(system, path)
    out = tmp_path / "opt"
    argv = [
        "optimize-x", "--system", str(path), "--constraint", "pm", "--objective-samples", "200",
        "--starts", "1", "--final-n", "200", "--out-dir", str(out),
    ]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_optimize_x_rejects_a_nan_tolerance(tmp_path, capsys):
    path = make_system_file(tmp_path, 2, 2, 4, seed=1)
    out = tmp_path / "opt"
    argv = ["optimize-x", "--system", path, "--objective-samples", "20", "--starts", "1"]
    capsys.readouterr()
    assert main([*argv, "--f-tol", "nan", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "error: f_tolerance must be positive\n"
    assert not out.exists()


def test_optimize_x_failing_after_its_search_writes_nothing(tmp_path, capsys, monkeypatch):
    # the search succeeds; the final distribution, the run's last step, raises
    def singular(*args, **kwargs):
        raise SingularityError("final distribution is singular")

    monkeypatch.setattr(bsdof.cli, "sample_distribution", singular)
    out = tmp_path / "opt"
    capsys.readouterr()
    assert main(optimize_args(make_system_file(tmp_path, 2, 2, 4, seed=1), "max", out)) == 1
    assert capsys.readouterr().err == "error: final distribution is singular\n"
    assert not out.exists()


@pytest.mark.parametrize("policy", ["rand", "fixed"])
def test_negative_seed_is_named_and_writes_nothing(tmp_path, capsys, policy):
    path = make_system_file(tmp_path, 2, 2, 4, seed=1)
    out = tmp_path / "out"
    argv = ["bs-dist", "--system", path, "--policy", policy, "--n", "20", "--seed", "-1"]
    capsys.readouterr()
    assert main([*argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: seed must be a nonnegative integer")
    assert not out.exists()


def test_validate_jacobian_passes_and_writes_report(tmp_path):
    out = tmp_path / "validation"
    rc = main(["validate-jacobian", "--trials", "5", "--seed", "1", "--out-dir", str(out)])
    assert rc == 0
    report = read_json(out / "validation.json")
    assert report["trials"] == 5
    assert report["max_fd_relative_error"] < 1e-6
    assert report["max_column_space_residual"] < 1e-10


def test_validate_jacobian_without_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["validate-jacobian", "--trials", "3", "--seed", "2"]) == 0
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--trials", "0", "error: trials must be at least 1, got 0"),
        ("--trials", "-1", "error: trials must be at least 1, got -1"),
        ("--step", "nan", "error: step must be finite and positive, got nan"),
        ("--step", "inf", "error: step must be finite and positive, got inf"),
    ],
)
def test_validate_jacobian_names_a_bad_input_and_writes_nothing(
    tmp_path, capsys, option, value, message
):
    out = tmp_path / "validation"
    argv = ["validate-jacobian", "--trials", "2", "--seed", "0", option, value]
    capsys.readouterr()
    assert main([*argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_validate_jacobian_refuses_a_step_above_the_probe_bound(tmp_path, capsys, monkeypatch):
    # above LOAD_MAG_TOL / 4 a probe load may leave the admissible disk: step 1 pushes
    # trial 0's probes past |r| = 1, and step 1e-4 pushes trial 205's at seed 7
    def no_draw(*args):
        raise AssertionError("the sweep drew before checking its step")

    monkeypatch.setattr(bsdof.cli, "substream_uniforms", no_draw)
    out = tmp_path / "validation"
    for step in ("1", "1e-4"):
        argv = ["validate-jacobian", "--trials", "300", "--seed", "7", "--step", step]
        capsys.readouterr()
        assert main([*argv, "--out-dir", str(out)]) == 1
        expected = f"error: step {float(step)!r} exceeds LOAD_MAG_TOL / 4 = 2.5e-05\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()


def test_sweep_runs_through_at_the_step_bound(tmp_path):
    # every probe stays admissible, and the O(step) truncation already misses the tolerance;
    # the miss exits 1 and still writes the run's config and report
    out = tmp_path / "validation"
    argv = ["validate-jacobian", "--trials", "300", "--seed", "7", "--step", repr(LOAD_MAG_TOL / 4)]
    assert main([*argv, "--out-dir", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "validation.json"]
    assert read_json(out / "config.json")["step"] == LOAD_MAG_TOL / 4
    report = read_json(out / "validation.json")
    assert report["fd_tolerance"] < report["max_fd_relative_error"] < 1e-4
    assert report["max_column_space_residual"] < report["residual_tolerance"]


@pytest.mark.parametrize(
    "trials, seed, fd_error, residual",
    [
        (100, 0, 5.02678906281755e-07, 1.4408916298249371e-15),
        (5, 1, 3.8787467533338106e-07, 6.839603488522893e-16),
        (300, 2, 5.899583439422721e-07, 1.1431423781901125e-15),
        (4000, 0, 1.228695855996658e-06, 1.811671635439842e-15),
        (4000, 1, 1.303682423983933e-06, 1.892512425636481e-15),
    ],
)
def test_validation_sweep_numbers_are_pinned(trials, seed, fd_error, residual):
    report = jacobian_validation_sweep(trials, seed)
    assert report["max_fd_relative_error"] == fd_error
    assert report["max_column_space_residual"] == residual


def test_sweep_reads_its_trial_words_without_the_draw_loop(monkeypatch):
    # no trial can be rejected, so neither the redraw loop nor its pool is needed
    def unused(*args, **kwargs):
        raise AssertionError("the sweep must not call the draw loop or its pool")

    monkeypatch.setattr(bsdof.sampling, "_draw_members", unused)
    monkeypatch.setattr(bsdof.sampling, "_pool_map", unused)
    rows = {}
    validation_slice = bsdof.cli._validation_slice

    def slice_recording(seed, index, u, shape, step):
        rows.update(zip(index.tolist(), u))
        return validation_slice(seed, index, u, shape, step)

    monkeypatch.setattr(bsdof.cli, "_validation_slice", slice_recording)
    assert jacobian_validation_sweep(300, 2)["max_fd_relative_error"] == 5.899583439422721e-07
    assert sorted(rows) == list(range(300))
    for t in (0, 1, 255, 256, 299):  # both sides of the first window boundary
        assert np.array_equal(rows[t], substream(2, 4, t).random(44))


def test_sweep_certifies_its_systems_from_their_norms(monkeypatch):
    # ||S_SS||_2 <= ||S||_2 <= 0.9: synth_matrices' norms certify every slice without an SVD
    def no_svd(*args):
        raise AssertionError("the sweep computed an S_SS certificate")

    monkeypatch.setattr(bsdof.network, "rcond_floor", no_svd)
    assert jacobian_validation_sweep(300, 2)["max_fd_relative_error"] == 5.899583439422721e-07


def test_sweep_runs_through_an_all_zero_magnitude_row(monkeypatch):
    validation_slice = bsdof.cli._validation_slice

    def run():
        # one closed-form call per slice: pair its rows with the slice's trial indices
        indices, stacks = [], []

        def slice_recording(seed, index, u, shape, step):
            indices.append(index)
            return validation_slice(seed, index, u, shape, step)

        def recording(blocks, r0, x):
            stacks.append((r0, x))
            return closed_form_jacobian(blocks, r0, x)

        monkeypatch.setattr(bsdof.cli, "_validation_slice", slice_recording)
        monkeypatch.setattr(bsdof.cli, "closed_form_jacobian", recording)
        report = jacobian_validation_sweep(260, 2)
        assert len(indices) == len(stacks)
        drawn = {
            t: (r, x)
            for index, (r0, x0) in zip(indices, stacks)
            for t, r, x in zip(index.tolist(), r0, x0)
        }
        assert sorted(drawn) == list(range(len(drawn)))
        return report, [drawn[t] for t in sorted(drawn)]

    expected, expected_draws = run()
    batched = bsdof.cli.substream_uniforms

    def zero_magnitudes(seed, prefix, index, k):
        # trial 257's n_t magnitude words follow its 4 shape and 2 n_s load words;
        # the sweep reads every trial's words itself, in windows of CHUNK trials
        u = batched(seed, prefix, index, k)
        for row in np.flatnonzero(np.asarray(index) == 257):
            n_t, n_s = 1 + int(u[row, 0] * 4), 1 + int(u[row, 2] * 16)
            u[row, 4 + 2 * n_s : 4 + 2 * n_s + n_t] = 0.0
        return u

    words = substream(2, 4, 257).random(44)
    n_t, n_s = 1 + int(words[0] * 4), 1 + int(words[2] * 16)
    phases = words[4 + 2 * n_s + n_t : 4 + 2 * n_s + 2 * n_t]
    x_257 = np.exp(2j * np.pi * phases) / np.sqrt(n_t)
    monkeypatch.setattr(bsdof.cli, "substream_uniforms", zero_magnitudes)
    report, draws = run()
    assert report["max_fd_relative_error"] < report["fd_tolerance"]
    assert report["max_column_space_residual"] < report["residual_tolerance"]
    assert len(draws) == len(expected_draws) == 260
    for t, ((r, x), (r_ref, x_ref)) in enumerate(zip(draws, expected_draws)):
        assert np.array_equal(r, r_ref)
        assert np.array_equal(x, x_ref) == (t != 257)
    assert np.allclose(draws[257][1], x_257, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bs-dist", "--n", "20", "--bins", "0"], "bins must be at least 1, got 0"),
        (
            ["optimize-x", "--objective-samples", "20", "--starts", "1", "--final-n", "0"],
            "final_n must be at least 1, got 0",
        ),
        (
            ["optimize-x", "--objective-samples", "20", "--starts", "1", "--bins", "0"],
            "bins must be at least 1, got 0",
        ),
    ],
    ids=["bs-dist-bins", "optimize-x-final-n", "optimize-x-bins"],
)
def test_a_count_below_one_is_named_before_any_draw(tmp_path, capsys, monkeypatch, argv, message):
    def no_draw(*args, **kwargs):
        raise AssertionError("the run drew before checking its counts")

    monkeypatch.setattr(bsdof.cli, "sample_distribution", no_draw)
    monkeypatch.setattr(bsdof.cli, "optimize_illumination", no_draw)
    path = make_system_file(tmp_path, 2, 2, 4, seed=1)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--system", path, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["bs-dist", "--n", "10", "--out-dir", "OUT"], 2, id="argv0"),  # no system
        pytest.param(["synth-env", "--eta", "1.5", "--out-dir", "OUT"], 1, id="argv1"),
        pytest.param(["benchmark", "--system", "no-such.json", "--out-dir", "OUT"], 1, id="argv2"),
        # replaying is the replay subcommand's job
        pytest.param(["validate-jacobian", "--config", "c", "--out-dir", "OUT"], 2, id="argv3"),
    ],
)
def test_bad_invocations_exit_nonzero(tmp_path, argv, code):
    out = tmp_path / "out"
    assert exit_code([a if a != "OUT" else str(out) for a in argv]) == code
    assert not out.exists()


@pytest.mark.parametrize("command", ["benchmark", "bs-dist", "optimize-x"])
def test_a_missing_system_is_an_argparse_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    capsys.readouterr()
    assert exit_code([command, "--out-dir", str(out)]) == 2
    assert "the following arguments are required: --system" in capsys.readouterr().err
    assert not out.exists()


def test_config_command_mismatch_exits_nonzero(tmp_path, capsys):
    # replay runs the subcommand its file names; a file naming none is refused
    out = tmp_path / "env"
    assert main(["synth-env", "--nt", "1", "--nr", "1", "--ns", "2", "--out-dir", str(out)]) == 0
    config = read_json(out / "config.json")
    for command in ("replay", "bs_dist", None, ["synth-env"]):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config | {"command": command}))
        capsys.readouterr()
        assert main(["replay", str(bad), "--out-dir", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: config file {bad} names no run subcommand: command={command!r}\n"
        assert not (tmp_path / "d").exists()
    bad.write_text(json.dumps({k: v for k, v in config.items() if k != "command"}))
    assert main(["replay", str(bad), "--out-dir", str(tmp_path / "d")]) == 1
    assert not (tmp_path / "d").exists()


def test_config_keys_and_order_are_pinned(tmp_path):
    """config.json holds each subcommand's options in parser order, no more and no less."""
    path = make_system_file(tmp_path, 2, 2, 4, seed=1)
    runs = {
        "synth-env": (
            ["--nt", "1", "--nr", "1", "--ns", "2"],
            ["command", "nt", "nr", "ns", "eta", "mc", "reciprocal", "seed"],
        ),
        "benchmark": (
            ["--system", path],
            ["command", "system", "tx_ports", "rx_ports", "bs_ports"],
        ),
        "bs-dist": (
            ["--system", path, "--n", "20"],
            ["command", "system", "constraint", "policy", "fixed_x", "n", "seed", "mode", "bins"],
        ),
        "optimize-x": (
            ["--system", path, "--objective-samples", "10", "--starts", "1",
             "--max-iterations", "5", "--final-n", "20"],
            ["command", "system", "constraint", "direction", "n_objective_samples", "n_starts",
             "max_iterations", "f_tolerance", "seed", "final_n", "bins"],
        ),
        "validate-jacobian": (
            ["--trials", "1"],
            ["command", "trials", "seed", "step"],
        ),
    }
    for command, (flags, keys) in runs.items():
        out = tmp_path / command
        assert main([command, *flags, "--out-dir", str(out)]) == 0
        assert list(read_json(out / "config.json")) == keys, command


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2],
        {"command": "validate-jacobian", "trials": 1, "step": 1e-6},
        {"command": "validate-jacobian", "trials": 1, "seed": 0, "step": 1e-6, "bins": 8},
    ],
    ids=["not-an-object", "missing-key", "unexpected-key"],
)
def test_malformed_config_exits_nonzero(tmp_path, capsys, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    rc = main(["replay", str(path), "--out-dir", str(tmp_path / "v")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "command, flags, key, value, code",
    [
        ("validate-jacobian", ["--trials", "1"], "trials", "3", 1),
        ("validate-jacobian", ["--trials", "1"], "trials", True, 1),
        ("synth-env", ["--nt", "1", "--nr", "1", "--ns", "2"], "seed", "0", 1),
        ("bs-dist", ["--n", "20"], "policy", "x", 1),
        ("synth-env", ["--nt", "1", "--nr", "1", "--ns", "2"], "mc", 0, 0),
    ],
    ids=["string-for-int", "bool-for-int", "string-seed", "unknown-choice", "int-for-float"],
)
def test_config_values_must_fit_their_options(tmp_path, capsys, command, flags, key, value, code):
    if command == "bs-dist":
        flags = ["--system", make_system_file(tmp_path, 2, 2, 4, seed=1), *flags]
    first = tmp_path / "first"
    assert main([command, *flags, "--out-dir", str(first)]) == 0
    config = read_json(first / "config.json")
    config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["replay", str(path), "--out-dir", str(tmp_path / "again")]) == code
    assert capsys.readouterr().err.startswith("error:") == bool(code)


def refuses_replay_options(tmp_path, capsys, flags, *run_flags):
    """replay with flags beside its file is argparse's error: exit 2, no output directory."""
    path = make_system_file(tmp_path, 2, 2, 4, seed=1)
    first, again = tmp_path / "first", tmp_path / "again"
    argv = ["bs-dist", "--system", path, "--n", "20", *run_flags, "--out-dir", str(first)]
    assert main(argv) == 0
    capsys.readouterr()
    replay = ["replay", str(first / "config.json"), *flags]
    assert exit_code([*replay, "--out-dir", str(again)]) == 2
    assert f"error: unrecognized arguments: {' '.join(flags)}\n" in capsys.readouterr().err
    assert not again.exists()


@pytest.mark.parametrize(
    "flags",
    [["--n", "7"], ["--seed", "3"], ["--on=0.5,0"], ["--off=-0.5"], ["--system", "other.json"]],
    ids=["n", "seed", "on", "off", "system"],
)
def test_config_replay_refuses_any_other_run_option(tmp_path, capsys, flags):
    refuses_replay_options(tmp_path, capsys, flags)


@pytest.mark.parametrize(
    "flags",
    [["--seed", "0"], ["--n", "10000"], ["--constraint", "pin"], ["--bins=64"]],
    ids=["seed", "n", "constraint", "bins"],
)
def test_config_replay_refuses_an_option_restated_at_its_default(tmp_path, capsys, flags):
    refuses_replay_options(tmp_path, capsys, flags, "--seed", "3")


def test_the_runtime_needs_no_scipy(tmp_path):
    script = f"""
import sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now raises
from bsdof.cli import main
out = {str(tmp_path)!r}
assert main(["synth-env", "--nt", "2", "--nr", "2", "--ns", "4", "--out-dir", out + "/env"]) == 0
system = ["--system", out + "/env/system.json"]
assert main(["optimize-x", *system, "--constraint", "uni", "--starts", "2",
             "--objective-samples", "50", "--final-n", "50", "--out-dir", out + "/opt"]) == 0
assert main(["bs-dist", *system, "--n", "50", "--out-dir", out + "/dist"]) == 0
"""
    env = os.environ | {"PYTHONPATH": str(Path(bsdof.cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "opt" / "best_x.json").exists()


def test_negative_real_part_takes_the_equals_form(tmp_path):
    path = make_system_file(tmp_path, 2, 2, 4, seed=1)
    out = tmp_path / "dist"
    argv = ["bs-dist", "--system", path, "--off=-0.5,0.2", "--n", "20", "--out-dir", str(out)]
    assert main(argv) == 0
    assert read_json(out / "config.json")["constraint"]["off"] == [-0.5, 0.2]


def test_uni_rejects_state_values_and_writes_nothing(tmp_path, capsys):
    path = make_system_file(tmp_path, 2, 2, 4, seed=1)
    out = tmp_path / "dist"
    capsys.readouterr()
    # PM is exactly +1 / -1, so it rejects custom states too
    for kind in ("uni", "pm"):
        argv = ["bs-dist", "--system", path, "--constraint", kind, "--on=0.5,0", "--n", "20"]
        assert main([*argv, "--out-dir", str(out)]) == 1
        expected = f"error: {kind.upper()} constraint takes no on/off values\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()


def test_real_only_state_replays(tmp_path):
    path = make_system_file(tmp_path, 2, 2, 4, seed=1)
    first, second = tmp_path / "a", tmp_path / "b"
    argv = ["bs-dist", "--system", path, "--on", "0.5", "--n", "20", "--out-dir", str(first)]
    assert main(argv) == 0
    assert read_json(first / "config.json")["constraint"]["on"] == [0.5]
    assert main(["replay", str(first / "config.json"), "--out-dir", str(second)]) == 0
    assert (first / "samples.csv").read_bytes() == (second / "samples.csv").read_bytes()


@pytest.mark.parametrize(
    "target, edit",
    [
        ("config", lambda c: c | {"system": 5}),
        ("config", lambda c: c | {"system": None}),
        ("config", lambda c: c | {"constraint": "pin"}),
        ("config", lambda c: c | {"constraint": {}}),
        ("config", lambda c: c | {"policy": "fixed", "fixed_x": 3}),
        ("system", lambda s: [s]),
        ("system", lambda s: {k: v for k, v in s.items() if k != "matrix"}),
        ("system", lambda s: s | {"matrix": 3}),
        ("system", lambda s: s | {"tx_ports": "01"}),
        ("system", lambda s: s | {"n_total": 8.7}),
        ("config", lambda c: c | {"constraint": {"kind": "PIN", "on": "1"}}),
        ("config", lambda c: c | {"constraint": {"kind": "PIN", "on": []}}),
        ("config", lambda c: c | {"constraint": {"kind": "PIN", "on": [True]}}),
        ("config", lambda c: c | {"constraint": {"kind": "UNI", "on": [0.5]}}),
        ("config", lambda c: c | {"policy": "fixed", "fixed_x": [[True, False], [0.0, 0.0]]}),
        ("config", lambda c: c | {"constraint": {"kind": "FOO"}}),
        ("system", lambda s: s | {"matrix": [[float("nan"), 0.0], *s["matrix"][1:]]}),
        ("system", lambda s: s | {"tx_ports": []}),
        ("system", lambda s: s | {"n_total": s["n_total"] + 1}),
    ],
    ids=[
        "config-system-int", "config-system-null", "config-constraint-string",
        "config-constraint-empty", "config-fixed-x-int", "system-list", "system-no-matrix",
        "system-matrix-int", "system-ports-string", "system-n-total-fraction",
        "config-state-string", "config-state-empty", "config-state-bool", "config-uni-state",
        "config-fixed-x-bool", "config-constraint-kind", "system-matrix-nan",
        "system-ports-empty", "system-n-total-mismatch",
    ],
)
def test_wrong_json_types_exit_with_an_error(tmp_path, capsys, target, edit):
    path = make_system_file(tmp_path, 2, 2, 4, seed=1)
    first = tmp_path / "first"
    assert main(["bs-dist", "--system", path, "--n", "20", "--out-dir", str(first)]) == 0
    source = first / "config.json" if target == "config" else tmp_path / "system.json"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(read_json(source))))
    capsys.readouterr()
    run = ["bs-dist", "--system", str(bad), "--n", "20"]
    argv = ["replay", str(bad)] if target == "config" else run
    assert main([*argv, "--out-dir", str(tmp_path / "again")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "again").exists()


def zero_rx_bs_system_file(tmp_path):
    system = system_for(2, 2, 4, seed=1)
    matrix = system.matrix.copy()
    matrix[np.ix_(system.rx_ports, system.bs_ports)] = 0.0
    # zeroing a block can raise the spectral norm, so halve the matrix to stay passive
    save_system(replace(system, matrix=0.5 * matrix), tmp_path / "system.json")
    return str(tmp_path / "system.json")


@pytest.mark.parametrize(
    "threads, make_system, message",
    [
        ("-1", lambda p: make_system_file(p, 2, 2, 4, seed=1), "BSDOF_THREADS must be nonnegative"),
        ("0", zero_rx_bs_system_file, "zero Jacobian; participation undefined"),
    ],
    ids=["threads-negative", "zero-rx-bs-block"],
)
def test_a_failing_run_exits_with_an_error_and_writes_nothing(
    tmp_path, capsys, monkeypatch, threads, make_system, message
):
    monkeypatch.setenv("BSDOF_THREADS", threads)
    path = make_system(tmp_path)
    out = tmp_path / "dist"
    capsys.readouterr()
    assert main(["bs-dist", "--system", path, "--n", "20", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
