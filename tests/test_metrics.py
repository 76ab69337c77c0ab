"""Participation-number metric tests against independently computed spectra."""

import numpy as np
import pytest

from bsdof.errors import DegenerateInputError
from bsdof.fd import ChannelMap, complex_step_jacobian
from bsdof.loads import LoadConstraint, sample_loads
from bsdof.metrics import (
    benchmark_eemdof,
    bs_eemdof_point,
    column_space_residual,
    participation_from_singular_values,
    participation_number,
)
from bsdof.network import ScatteringBlocks, closed_form_jacobian
from bsdof.sampling import sample_random_illumination
from bsdof.streams import standard_complex_gaussian, substream

from synthetic import blocks_for


def test_equal_singular_values_attain_cap():
    res = participation_number(np.eye(4))
    assert res.m == 4.0
    assert res.n_tilde == 4
    assert participation_from_singular_values((1.0, 1.0, 1.0, 1.0)).m == 4.0


def test_rank_one_matrix_has_one_mode():
    gen = substream(30)
    a = np.outer(standard_complex_gaussian(gen, 5), standard_complex_gaussian(gen, 3))
    assert abs(participation_number(a).m - 1.0) < 1e-12


def test_two_one_spectrum_hand_value():
    res = participation_from_singular_values((2.0, 1.0))
    assert abs(res.m - (4 + 1) ** 2 / (16 + 1)) < 1e-12
    # order of the spectrum is immaterial
    assert participation_from_singular_values((1.0, 2.0)).m == res.m


def test_bounds_on_random_matrices():
    gen = substream(31)
    for _ in range(300):
        n_r = int(gen.integers(1, 6))
        n_c = int(gen.integers(1, 6))
        res = participation_number(standard_complex_gaussian(gen, (n_r, n_c)))
        assert 1.0 - 1e-12 <= res.m <= min(n_r, n_c) + 1e-9


def test_scale_invariance():
    gen = substream(32)
    a = standard_complex_gaussian(gen, (4, 6))
    m0 = participation_number(a).m
    for _ in range(100):
        c = 10.0 ** gen.uniform(-100, 100) * np.exp(2j * np.pi * gen.random())
        assert abs(participation_number(c * a).m - m0) < 1e-12


def test_unitary_invariance():
    gen = substream(33)
    a = standard_complex_gaussian(gen, (4, 6))
    m0 = participation_number(a).m
    for _ in range(20):
        u = np.linalg.qr(standard_complex_gaussian(gen, (4, 4)))[0]
        v = np.linalg.qr(standard_complex_gaussian(gen, (6, 6)))[0]
        assert abs(participation_number(u @ a @ v).m - m0) < 1e-10


def test_cap_attained_only_by_flat_spectra():
    assert participation_from_singular_values((3.0, 3.0, 3.0)).m == 3.0
    assert participation_from_singular_values((3.0, 3.0, 2.999)).m < 3.0
    assert participation_from_singular_values((1.0, 0.0, 0.0)).m == 1.0


def test_zero_input_is_an_error():
    with pytest.raises(DegenerateInputError):
        participation_number(np.zeros((3, 3)))
    with pytest.raises(DegenerateInputError):
        participation_from_singular_values((0.0, 0.0))


def test_negative_singular_values_are_rejected():
    with pytest.raises(ValueError, match="singular values must be nonnegative"):
        participation_from_singular_values([-1.0])


def test_conventional_eemdof_matches_eigenvalue_oracle():
    assert participation_number(np.eye(4)).m == 4.0

    one_row = np.zeros((3, 4), dtype=complex)
    one_row[1] = standard_complex_gaussian(substream(34), 4)
    assert abs(participation_number(one_row).m - 1.0) < 1e-12

    h = standard_complex_gaussian(substream(35), (4, 3))
    lam = np.clip(np.linalg.eigvalsh(h.conj().T @ h), 0.0, None)
    m_oracle = lam.sum() ** 2 / (lam @ lam)
    assert abs(participation_number(h).m - m_oracle) < 1e-12


def test_benchmark_eemdof_uses_receive_coupling_block():
    q = np.linalg.qr(standard_complex_gaussian(substream(36), (8, 8)))[0]
    # orthonormal rows: every mode carries equal weight
    blocks = ScatteringBlocks(
        s_rt=np.zeros((4, 2)), s_rs=q[:, :4].conj().T,
        s_ss=np.zeros((8, 8)), s_st=np.zeros((8, 2)),
    )
    assert abs(benchmark_eemdof(blocks).m - 4.0) < 1e-12

    rank1 = ScatteringBlocks(
        s_rt=np.zeros((4, 2)),
        s_rs=np.outer(standard_complex_gaussian(substream(37), 4),
                      standard_complex_gaussian(substream(38), 8)),
        s_ss=np.zeros((8, 8)), s_st=np.zeros((8, 2)),
    )
    assert abs(benchmark_eemdof(rank1).m - 1.0) < 1e-12


def test_benchmark_near_cap_in_rich_environments():
    # 64 loads against 4 rx ports: an i.i.d. draw is far from rank deficient
    for seed in range(10):
        result = benchmark_eemdof(blocks_for(3, 4, 64, seed=seed))
        assert result.n_tilde == 4
        assert result.m >= 0.85 * 4


def test_bs_point_single_receiver_is_one():
    blocks = blocks_for(2, 1, 6, seed=40)
    r = sample_loads(LoadConstraint.pin(), 6, substream(41))
    x = sample_random_illumination(2, substream(42))
    assert bs_eemdof_point(blocks, r, x).m == 1.0


def test_bs_point_without_coupling_is_load_independent():
    blocks = blocks_for(2, 3, 5, seed=43)
    no_mc = ScatteringBlocks(
        s_rt=blocks.s_rt, s_rs=blocks.s_rs, s_ss=np.zeros((5, 5)), s_st=blocks.s_st
    )
    x = sample_random_illumination(2, substream(44))
    r1 = sample_loads(LoadConstraint.uni(), 5, substream(45))
    r2 = sample_loads(LoadConstraint.uni(), 5, substream(46))
    assert bs_eemdof_point(no_mc, r1, x).m == bs_eemdof_point(no_mc, r2, x).m


def test_bs_point_agrees_with_fd_oracle():
    blocks = blocks_for(3, 3, 6, seed=47)
    r = sample_loads(LoadConstraint.uni(), 6, substream(48))
    x = sample_random_illumination(3, substream(49))
    m_closed = bs_eemdof_point(blocks, r, x).m
    probe = complex_step_jacobian(ChannelMap.from_blocks(blocks), r, x)
    m_fd = participation_from_singular_values(probe.singular_values).m
    assert abs(m_closed - m_fd) < 1e-6


def test_column_space_residual():
    blocks = blocks_for(3, 4, 8, seed=50)
    r = sample_loads(LoadConstraint.uni(), 8, substream(51))
    x = sample_random_illumination(3, substream(52))
    jac = closed_form_jacobian(blocks, r, x)
    assert column_space_residual(jac.matrix, blocks.s_rs) < 1e-10
    assert column_space_residual(blocks.s_rs, blocks.s_rs) < 1e-14

    # rank-1 receive coupling cannot contain a generic full-rank Jacobian
    gen = substream(53)
    s_rs = np.outer(standard_complex_gaussian(gen, 4), standard_complex_gaussian(gen, 8))
    rogue = standard_complex_gaussian(gen, (4, 8))
    assert column_space_residual(rogue, s_rs) > 0.1

    with pytest.raises(DegenerateInputError):
        column_space_residual(np.zeros((4, 8)), s_rs)


def test_stacked_residual_equals_the_single_pair_one_at_mixed_ranks():
    gen = substream(54)
    full = [standard_complex_gaussian(gen, (4, 8)) for _ in range(2)]
    rank1 = np.outer(standard_complex_gaussian(gen, 4), standard_complex_gaussian(gen, 8))
    rank2 = standard_complex_gaussian(gen, (4, 2)) @ standard_complex_gaussian(gen, (2, 8))
    s_rs = np.stack([full[0], rank1, rank2, np.zeros((4, 8)), full[1]])
    # contained, generic, and contained in the rank-2 space
    jac = np.stack([
        full[0] @ standard_complex_gaussian(gen, (8, 8)),
        standard_complex_gaussian(gen, (4, 8)),
        rank2 @ standard_complex_gaussian(gen, (8, 8)),
        standard_complex_gaussian(gen, (4, 8)),
        standard_complex_gaussian(gen, (4, 8)),
    ])
    residuals = column_space_residual(jac, s_rs)
    assert residuals.shape == (5,)
    singles = [column_space_residual(j, s) for j, s in zip(jac, s_rs)]
    assert all(type(r) is float for r in singles)
    assert np.array_equal(residuals, singles)
    assert residuals[[0, 2, 4]].max() < 1e-14 and residuals[1] > 0.1 and residuals[3] == 1.0

    jac[3] = 0.0
    with pytest.raises(DegenerateInputError):
        column_space_residual(jac, s_rs)
