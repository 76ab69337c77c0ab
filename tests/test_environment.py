"""Synthetic environment factory tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bsdof
from bsdof.environment import (
    EnvironmentSpec,
    environment_ladder,
    synth_environment,
    synth_matrices,
    zero_mc,
)
from bsdof.network import extract_blocks, spectral_norm
from bsdof.streams import standard_complex_gaussian, substream


def one_at_a_time(spec):
    """The recipe on one spec: draw, rescale, scale the loaded block, rescale if over."""
    n = spec.n_total
    a = standard_complex_gaussian(substream(spec.seed), (n, n))
    if spec.reciprocal:
        a = 0.5 * (a + a.T)
    a = a * (spec.scattering_strength / spectral_norm(a))
    bs = slice(spec.n_t + spec.n_r, n)
    a[bs, bs] = a[bs, bs] * spec.mc_strength
    after = spectral_norm(a)
    if after > spec.scattering_strength:
        return a * (spec.scattering_strength / after), True
    return a, False


def test_no_coupling_block_is_exactly_zero():
    system = synth_environment(EnvironmentSpec(2, 2, 6, 0.9, 0.0, seed=0))
    assert np.array_equal(extract_blocks(system).s_ss, np.zeros((6, 6)))


def test_reciprocal_flag_symmetrizes():
    system = synth_environment(EnvironmentSpec(2, 2, 6, 0.9, 1.0, reciprocal=True, seed=1))
    assert np.array_equal(system.matrix, system.matrix.T)
    system = synth_environment(EnvironmentSpec(2, 2, 6, 0.9, 1.0, seed=1))
    assert not np.array_equal(system.matrix, system.matrix.T)


@pytest.mark.parametrize("seed", range(5))
def test_spectral_norm_hits_target(seed):
    system = synth_environment(EnvironmentSpec(3, 4, 16, 0.9, 1.0, seed=seed))
    assert abs(np.linalg.norm(system.matrix, 2) - 0.9) < 1e-9


@pytest.mark.parametrize(
    "reciprocal, mc", [(False, 1.0), (True, 1.0), (False, 0.4), (True, 0.0)]
)
def test_stack_matches_the_one_item_wrapper_byte_for_byte(reciprocal, mc):
    specs = [
        EnvironmentSpec(2, 3, 5, eta, mc, reciprocal, seed=seed)
        for seed, eta in ((0, 0.9), (3, 0.9), (100, 0.3), (101, 0.6), (102, 0.05))
    ]
    matrices, norms = synth_matrices(specs)
    assert matrices.shape == (5, 10, 10) and norms.shape == (5,)
    rescaled = []
    for spec, a, norm in zip(specs, matrices, norms):
        reference, again = one_at_a_time(spec)
        rescaled.append(again)
        assert a.tobytes() == synth_environment(spec).matrix.tobytes() == reference.tobytes()
        # the norm the system's own passivity check takes
        assert norm == spectral_norm(a)
    # seeds 0 and 3 overshoot their target by rounding and take the second rescale
    assert rescaled[:2] == [not reciprocal and mc == 1.0] * 2


def test_stack_needs_one_shape():
    with pytest.raises(ValueError, match="one shape"):
        synth_matrices([EnvironmentSpec(2, 3, 5, 0.9), EnvironmentSpec(2, 3, 4, 0.9)])
    with pytest.raises(ValueError, match="one shape"):
        synth_matrices([EnvironmentSpec(2, 3, 5, 0.9), EnvironmentSpec(2, 3, 5, 0.9, 1.0, True)])


def test_seed_determinism():
    spec = EnvironmentSpec(2, 3, 5, 0.8, 0.7, seed=9)
    assert np.array_equal(synth_environment(spec).matrix, synth_environment(spec).matrix)
    other = synth_environment(EnvironmentSpec(2, 3, 5, 0.8, 0.7, seed=10))
    assert not np.array_equal(synth_environment(spec).matrix, other.matrix)


def test_port_layout_is_contiguous():
    system = synth_environment(EnvironmentSpec(2, 3, 4, 0.9, 1.0, seed=2))
    assert system.tx_ports == (0, 1)
    assert system.rx_ports == (2, 3, 4)
    assert system.bs_ports == (5, 6, 7, 8)
    assert system.n_total == 9


def test_zero_mc_is_idempotent_and_local():
    system = synth_environment(EnvironmentSpec(2, 2, 5, 0.9, 1.0, seed=3))
    once = zero_mc(system)
    twice = zero_mc(once)
    assert np.array_equal(once.matrix, twice.matrix)
    assert np.array_equal(extract_blocks(once).s_ss, np.zeros((5, 5)))
    # everything outside the coupled block survives untouched
    mask = np.ones((9, 9), dtype=bool)
    mask[np.ix_(system.bs_ports, system.bs_ports)] = False
    assert np.array_equal(once.matrix[mask], system.matrix[mask])


def test_ladder_singleton_matches_direct_synthesis():
    spec = EnvironmentSpec(2, 2, 6, 0.85, 0.9, seed=4)
    (rung,) = environment_ladder(spec, (0.85,))
    assert np.array_equal(rung.matrix, synth_environment(spec).matrix)


def test_ladder_shares_draw_and_scales_coupling():
    base = EnvironmentSpec(2, 2, 6, 0.9, 0.8, seed=5)
    rungs = environment_ladder(base, (0.9, 0.45))
    assert np.array_equal(rungs[0].matrix, synth_environment(base).matrix)
    # second rung: half the strength, coupling multiplier scaled in proportion
    expected = synth_environment(EnvironmentSpec(2, 2, 6, 0.45, 0.4, seed=5))
    assert np.array_equal(rungs[1].matrix, expected.matrix)


def test_ladder_rejects_bad_strengths():
    base = EnvironmentSpec(2, 2, 6, 0.9, 1.0, seed=6)
    with pytest.raises(ValueError):
        environment_ladder(base, (0.4, 0.7))
    with pytest.raises(ValueError):
        environment_ladder(base, ())
    with pytest.raises(ValueError, match="leading strength must be positive"):
        environment_ladder(base, (0.0, 0.0))


def test_spec_validation():
    with pytest.raises(ValueError):
        EnvironmentSpec(0, 2, 4, 0.9, 1.0, seed=0)
    with pytest.raises(ValueError):
        EnvironmentSpec(2, 2, 4, 1.0, 1.0, seed=0)
    with pytest.raises(ValueError):
        EnvironmentSpec(2, 2, 4, 0.9, 1.5, seed=0)
    with pytest.raises(ValueError):
        EnvironmentSpec(2, 2, 4, 0.9, 1.0, seed=-1)


def test_synth_env_bytes_do_not_depend_on_blas_threads(tmp_path):
    # from N = 68 up, threaded OpenBLAS can move the SVD behind the rescale by an ulp;
    # the count is read when numpy loads, so each setting needs a fresh process
    path = os.pathsep.join([str(Path(bsdof.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    written = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, **dict.fromkeys(blas, threads))
        out = tmp_path / threads
        argv = ["synth-env", "--nt", "3", "--nr", "4", "--ns", "64", "--seed", "0"]
        subprocess.run(
            [sys.executable, "-m", "bsdof.cli", *argv, "--out-dir", str(out)],
            env=env, check=True, timeout=120,
        )
        written.append((out / "system.json").read_bytes())
    assert written[0] == written[1]
