"""Finite-difference oracles versus the closed-form Jacobian."""

import numpy as np
import pytest

import bsdof.network
from bsdof.errors import InconsistentStateError, OracleError, UnsupportedOperationError
from bsdof.fd import (
    ChannelMap,
    complex_step_jacobian,
    discrete_toggle_jacobian,
    linear_map_fd_jacobian,
)
from bsdof.loads import LoadConstraint, sample_loads
from bsdof.metrics import participation_from_singular_values
from bsdof.network import (
    ScatteringBlocks,
    ScatteringSystem,
    channel,
    closed_form_jacobian,
    extract_blocks,
)
from bsdof.sampling import sample_random_illumination
from bsdof.streams import standard_complex_gaussian, substream

from synthetic import blocks_for


def uni_loads(n_s, stream):
    return sample_loads(LoadConstraint.uni(), n_s, stream)


def rel_frobenius(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_forward_difference_is_exact_on_affine_map():
    # without load coupling the channel is affine in r, so any step works
    blocks = blocks_for(2, 3, 6, seed=11, mc=0.0)
    r0 = uni_loads(6, substream(30))
    x = sample_random_illumination(2, substream(31))
    fd = complex_step_jacobian(ChannelMap.from_blocks(blocks), r0, x, step=1e-2)
    closed = closed_form_jacobian(blocks, r0, x)
    assert np.allclose(fd.matrix, closed.matrix, rtol=0.0, atol=1e-12)


def test_scalar_hand_derivative():
    """One tunable port: d/dr of s_rt + s_rs r s_st / (1 - s_ss r)."""
    matrix = np.array(
        [
            [0.0, 0.0, 0.3],
            [0.2, 0.0, 0.5],
            [0.3, 0.5, 0.4],
        ],
        dtype=complex,
    )
    system = ScatteringSystem(
        n_total=3, matrix=matrix, tx_ports=(0,), rx_ports=(1,), bs_ports=(2,)
    )
    blocks = extract_blocks(system)
    r0 = np.array([0.5 + 0.0j])
    x = np.array([1.0 + 0.0j])
    fd = complex_step_jacobian(ChannelMap.from_blocks(blocks), r0, x, step=1e-6)
    exact = 0.5 * 0.3 / (1.0 - 0.4 * 0.5) ** 2
    assert abs(fd.matrix[0, 0] - exact) / abs(exact) < 1e-5


def test_forward_difference_tracks_closed_form_when_coupled():
    blocks = blocks_for(4, 4, 8, seed=3)
    r0 = uni_loads(8, substream(50))
    x = sample_random_illumination(4, substream(51))
    fd = complex_step_jacobian(ChannelMap.from_blocks(blocks), r0, x)
    closed = closed_form_jacobian(blocks, r0, x)
    assert rel_frobenius(fd.matrix, closed.matrix) < 1e-6


def test_halving_the_step_halves_the_error():
    blocks = blocks_for(4, 4, 8, seed=3)
    r0 = uni_loads(8, substream(50))
    x = sample_random_illumination(4, substream(51))
    channel_map = ChannelMap.from_blocks(blocks)
    closed = closed_form_jacobian(blocks, r0, x).matrix
    err = rel_frobenius(complex_step_jacobian(channel_map, r0, x, step=1e-4).matrix, closed)
    err_half = rel_frobenius(
        complex_step_jacobian(channel_map, r0, x, step=5e-5).matrix, closed
    )
    assert 1.8 < err / err_half < 2.2


def test_probe_failure_names_the_column():
    r_base = np.zeros(4, dtype=complex)

    def fragile(r):
        # a stack map: the configuration that moved entry 2 reads NaN
        h = np.zeros((len(r), 2, 3), dtype=complex)
        h[r[:, 2] != r_base[2]] = np.nan
        return h

    channel_map = ChannelMap(fragile)
    with pytest.raises(OracleError, match="column 2"):
        complex_step_jacobian(channel_map, r_base, np.ones(3) / np.sqrt(3))


def diagonal_blocks():
    """Two loads with S_SS = diag(1, 0.5): turning load 0 to r = 1 makes A singular."""
    return ScatteringBlocks(
        s_rt=np.zeros((1, 1)),
        s_rs=np.ones((1, 2)),
        s_ss=np.diag([1.0, 0.5]),
        s_st=np.ones((2, 1)),
    )


@pytest.mark.parametrize(
    "r0, where", [([0.0, 0.0], "toggled column 0"), ([1.0, 0.0], "base point")]
)
def test_singular_configuration_is_named(r0, where):
    channel_map = ChannelMap.from_blocks(diagonal_blocks())
    constraint = LoadConstraint.pin(on=1.0, off=0.0)
    x = np.ones(1, dtype=complex)
    with pytest.raises(OracleError, match=where):
        discrete_toggle_jacobian(channel_map, np.array(r0, dtype=complex), x, constraint)


def test_a_raising_map_becomes_an_oracle_error():
    def refusing(r):
        raise RuntimeError("hardware refused")

    with pytest.raises(OracleError, match="hardware refused"):
        complex_step_jacobian(ChannelMap(refusing), np.zeros(2), np.ones(1))


def single_row_output(channel_map, r, x):
    """H(r) x through a one-row stack."""
    return (channel_map(r[None]) @ x[:, None])[0, :, 0]


def test_stacked_probe_equals_single_row_evaluations():
    """Each column of the one-stack oracle is bit for bit the secant of two
    single-row evaluations of the map."""
    for trial in range(50):
        u = substream(70, trial).random(4)
        n_t, n_r, n_s = 1 + int(u[0] * 4), 1 + int(u[1] * 4), 2 + int(u[2] * 15)
        eta = (0.3, 0.6, 0.9)[int(u[3] * 3)]
        blocks = blocks_for(n_t, n_r, n_s, seed=trial, eta=eta)
        r0 = uni_loads(n_s, substream(71, trial))
        x = sample_random_illumination(n_t, substream(72, trial))
        channel_map = ChannelMap.from_blocks(blocks)
        base = single_row_output(channel_map, r0, x)
        h = 1e-6 * (1.0 + np.hypot(r0.real, r0.imag))
        expected = np.empty((n_r, n_s), dtype=complex)
        for i in range(n_s):
            r = r0.copy()
            r[i] += h[i]
            expected[:, i] = (single_row_output(channel_map, r, x) - base) / h[i]
        fd = complex_step_jacobian(channel_map, r0, x).matrix
        assert np.array_equal(fd, expected)


def stack_blocks(systems):
    names = ("s_rt", "s_rs", "s_ss", "s_st")
    return ScatteringBlocks(*(np.stack([getattr(b, k) for b in systems]) for k in names))


@pytest.mark.parametrize("n_s", [2, 3, 9, 16])
def test_stacked_probe_equals_per_system_probes(n_s):
    etas = (0.3, 0.9, 0.6)
    systems = [blocks_for(3, 2, n_s, seed=80 + i, eta=eta) for i, eta in enumerate(etas)]
    r0 = np.stack([uni_loads(n_s, substream(81, i)) for i in range(3)])
    x = np.stack([sample_random_illumination(3, substream(82, i)) for i in range(3)])
    fd = complex_step_jacobian(ChannelMap.from_blocks(stack_blocks(systems)), r0, x).matrix
    assert fd.shape == (3, 2, n_s)
    for i, blocks in enumerate(systems):
        one = complex_step_jacobian(ChannelMap.from_blocks(blocks), r0[i], x[i]).matrix
        assert np.array_equal(fd[i], one)


def test_stacked_probe_failure_names_the_item():
    # item 1 sits at the resonance r = 1 of diagonal_blocks, items 0 and 2 do not;
    # the mixed stack puts it between two certified systems of the same shape
    blocks = diagonal_blocks()
    certified = [blocks_for(1, 1, 2, seed=83 + i) for i in range(2)]
    r0 = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]], dtype=complex)
    x = np.ones((3, 1), dtype=complex)
    rows = np.array([[0.0, 0.0], [0.5, 0.0], [0.2j, -0.3]])
    for items in ([blocks] * 2, certified):
        channel_map = ChannelMap.from_blocks(stack_blocks([items[0], blocks, items[1]]))
        with pytest.raises(OracleError, match="at base point of item 1: non-finite"):
            complex_step_jacobian(channel_map, r0, x, step=1e-6)
        # one uncertified item puts every item of the stack on the gated path
        h = channel_map(np.stack([rows] * 3))
        for i, system in ((0, items[0]), (2, items[1])):
            system.certified = False
            assert np.array_equal(h[i], channel(system, rows)[0])


def test_channel_map_broadcasts_over_two_stacking_axes():
    # blocks stacked (2, 3, ...) map loads (2, 3, k, n_s) as six per-system maps, on both paths
    systems = [[blocks_for(2, 3, 4, seed=88 + 3 * i + j) for j in range(3)] for i in range(2)]
    names = ("s_rt", "s_rs", "s_ss", "s_st")
    stacked = ScatteringBlocks(
        *(np.array([[getattr(b, k) for b in row] for row in systems]) for k in names)
    )
    r = np.array([uni_loads(4, substream(89, *ijl)) for ijl in np.ndindex(2, 3, 5)])
    r = r.reshape(2, 3, 5, 4)
    for certified in (True, False):
        stacked.certified = certified
        mapped = ChannelMap.from_blocks(stacked)(r)
        assert mapped.shape == (2, 3, 5, 3, 2)
        for i, j in np.ndindex(2, 3):
            systems[i][j].certified = certified
            assert np.array_equal(mapped[i, j], ChannelMap.from_blocks(systems[i][j])(r[i, j]))


def test_channel_map_takes_the_certificate_of_its_blocks(monkeypatch):
    # a certificate the caller has set costs the map no SVD, and picks its branch
    blocks = blocks_for(2, 3, 4, seed=86)
    r = np.stack([uni_loads(4, substream(87, j)) for j in range(5)])

    def no_svd(*args):
        raise AssertionError("the map computed its own certificate")

    calls = []
    resolvent = bsdof.network.resolvent
    monkeypatch.setattr(bsdof.network, "rcond_floor", no_svd)
    monkeypatch.setattr(bsdof.network, "resolvent", lambda *a: calls.append(1) or resolvent(*a))
    for certified in (True, False):
        blocks.certified = certified
        h = ChannelMap.from_blocks(blocks)(r)
        assert len(calls) == (0 if certified else 1)
        assert np.array_equal(h, channel(blocks, r)[0])
        calls.clear()


@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 2, 1), (2, 3, 4), (4, 4, 16)])
def test_certified_channel_rows_equal_the_scalar_channel(shape):
    etas = (0.3, 0.6, 0.9)
    systems = [blocks_for(*shape, seed=84 + i, eta=eta) for i, eta in enumerate(etas)]
    stacked = stack_blocks(systems)
    assert stacked.certified
    n_s = shape[2]
    r = np.stack([[uni_loads(n_s, substream(85, i, j)) for j in range(5)] for i in range(3)])
    mapped = ChannelMap.from_blocks(stacked)(r)
    for i, blocks in enumerate(systems):
        h, ok = channel(blocks, r[i])
        assert ok.shape == (5,) and ok.all()
        gated = ScatteringBlocks(blocks.s_rt, blocks.s_rs, blocks.s_ss, blocks.s_st)
        gated.certified = False  # channel from resolvent's G
        for j in range(5):
            ref = channel(gated, r[i, j])[0]
            for got in (h[j], mapped[i, j]):
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_toggle_secant_without_coupling_matches_closed_form():
    blocks = blocks_for(2, 2, 8, seed=12, mc=0.0)
    constraint = LoadConstraint.pin()
    r0 = sample_loads(constraint, 8, substream(32))
    x = sample_random_illumination(2, substream(33))
    channel_map = ChannelMap.from_blocks(blocks)
    closed = closed_form_jacobian(blocks, r0, x)
    swing = constraint.on_value - constraint.off_value

    by_reflection = discrete_toggle_jacobian(channel_map, r0, x, constraint, wrt="reflection")
    assert np.allclose(by_reflection.matrix, closed.matrix, rtol=0.0, atol=1e-12)

    by_controls = discrete_toggle_jacobian(channel_map, r0, x, constraint, wrt="controls")
    assert np.allclose(by_controls.matrix, closed.matrix * swing, rtol=0.0, atol=1e-12)


def test_toggle_variants_differ_by_the_state_swing_only():
    # holds with coupling too: the secant numerators are shared
    blocks = blocks_for(2, 2, 8, seed=13)
    constraint = LoadConstraint.pin()
    r0 = sample_loads(constraint, 8, substream(34))
    x = sample_random_illumination(2, substream(35))
    channel_map = ChannelMap.from_blocks(blocks)
    by_controls = discrete_toggle_jacobian(channel_map, r0, x, constraint, wrt="controls")
    by_reflection = discrete_toggle_jacobian(channel_map, r0, x, constraint, wrt="reflection")
    swing = constraint.on_value - constraint.off_value
    assert rel_frobenius(by_controls.matrix, by_reflection.matrix * swing) < 1e-12

    m_controls = participation_from_singular_values(by_controls.singular_values).m
    m_reflection = participation_from_singular_values(by_reflection.singular_values).m
    assert abs(m_controls - m_reflection) < 1e-12


def test_toggle_needs_a_two_state_family():
    blocks = blocks_for(2, 2, 4, seed=14)
    r0 = uni_loads(4, substream(36))
    x = sample_random_illumination(2, substream(37))
    with pytest.raises(UnsupportedOperationError, match="needs a two-state constraint"):
        discrete_toggle_jacobian(
            ChannelMap.from_blocks(blocks), r0, x, LoadConstraint.uni()
        )


def test_toggle_rejects_a_stray_load_before_calling_the_map():
    calls = []
    channel_map = ChannelMap(lambda r: calls.append(r) or np.zeros(r.shape[:-1] + (1, 1)))
    for constraint in (LoadConstraint.pin(), LoadConstraint.pm()):
        r0 = np.array([constraint.on_value, 0.5, constraint.off_value])
        with pytest.raises(InconsistentStateError, match=r"load \(1,\) value"):
            discrete_toggle_jacobian(channel_map, r0, np.ones(1), constraint)
    assert calls == []


def test_wrt_must_be_a_known_axis():
    blocks = blocks_for(2, 2, 4, seed=14)
    constraint = LoadConstraint.pin()
    r0 = sample_loads(constraint, 4, substream(38))
    x = sample_random_illumination(2, substream(39))
    with pytest.raises(ValueError):
        discrete_toggle_jacobian(
            ChannelMap.from_blocks(blocks), r0, x, constraint, wrt="loads"
        )


def test_secant_dof_stays_near_tangent_dof():
    """Toggle secants average the model over a finite state swing, so their
    participation number drifts from the tangent value; on a moderately
    coupled 16-element array the drift stays well under half a mode."""
    blocks = blocks_for(2, 2, 16, seed=5)
    constraint = LoadConstraint.pin()
    r0 = sample_loads(constraint, 16, substream(40))
    x = sample_random_illumination(2, substream(41))
    secant = discrete_toggle_jacobian(
        ChannelMap.from_blocks(blocks), r0, x, constraint, wrt="reflection"
    )
    tangent = closed_form_jacobian(blocks, r0, x)
    m_secant = participation_from_singular_values(secant.singular_values).m
    m_tangent = participation_from_singular_values(tangent.singular_values).m
    assert abs(m_secant - m_tangent) < 0.5


def test_fixed_channel_has_a_constant_jacobian():
    h = standard_complex_gaussian(substream(60), (4, 3))
    for x0 in (np.zeros(3, dtype=complex), standard_complex_gaussian(substream(61), 3)):
        assert np.allclose(linear_map_fd_jacobian(h, x0), h, rtol=0.0, atol=1e-10)
