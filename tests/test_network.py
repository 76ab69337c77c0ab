"""Multiport model tests: block extraction, resolvent, channel map, Jacobian.

Closed-form values are checked against independent arithmetic (scalar hand
formulas, brute-force summation) rather than against the functions under
test.
"""

import itertools

import numpy as np
import pytest

import bsdof.network
from bsdof.environment import EnvironmentSpec, synth_environment
from bsdof.errors import (
    InconsistentStateError,
    PartitionError,
    PassivityError,
    SingularityError,
)
from bsdof.loads import (
    LOAD_MAG_TOL,
    PIN_OFF,
    LoadConstraint,
    loads_from_uniforms,
    sample_loads,
    validate_loads,
)
from bsdof.metrics import bs_eemdof_point, participation_from_jacobians
from bsdof.network import (
    RCOND_MIN,
    Jacobian,
    ScatteringBlocks,
    ScatteringSystem,
    channel,
    closed_form_jacobian,
    coupling_resolvent,
    extract_blocks,
    factors,
    frobenius_norm,
    incident_drive,
    jacobian_factors,
    load_jacobian,
    load_system,
    norm_floor,
    partition,
    rcond_floor,
    require_passive,
    resolvent,
    save_system,
    spectral_norm,
    system_from_dict,
    system_to_dict,
    toggle_factors,
    two_state_factors,
    validate_illumination,
    woodbury_channel_update,
)
from bsdof.sampling import (
    CHUNK,
    IlluminationPolicy,
    illuminations_from_uniforms,
    sample_distribution,
    sample_random_illumination,
)
from bsdof.streams import standard_complex_gaussian, substream, substream_uniforms

from synthetic import blocks_for, system_for


def incident_map(blocks, r):
    """W(r) from the scalar resolvent and the factor kernel."""
    return jacobian_factors(blocks, coupling_resolvent(blocks.s_ss, r), r)[1]


def load_factor(blocks, r0, x):
    """B = G(r0) diag(W(r0) x), the load-side factor of J = S_RS B."""
    g = coupling_resolvent(blocks.s_ss, r0)
    return g * incident_drive(jacobian_factors(blocks, g, r0)[1], x)[None, :]


def scalar_blocks(s_rt, s_rs, s_ss, s_st):
    one = lambda v: np.array([[v]], dtype=complex)
    return ScatteringBlocks(s_rt=one(s_rt), s_rs=one(s_rs), s_ss=one(s_ss), s_st=one(s_st))


def test_extract_blocks_preserves_declared_port_order():
    gen = substream(11)
    s = 0.1 * standard_complex_gaussian(gen, (7, 7))
    system = ScatteringSystem(
        n_total=7, matrix=s, tx_ports=(2, 4, 5), rx_ports=(0, 6), bs_ports=(1, 3)
    )
    blocks = extract_blocks(system)
    for i, p in enumerate((0, 6)):
        for j, q in enumerate((2, 4, 5)):
            assert blocks.s_rt[i, j] == s[p, q]
        for j, q in enumerate((1, 3)):
            assert blocks.s_rs[i, j] == s[p, q]
    for i, p in enumerate((1, 3)):
        for j, q in enumerate((2, 4, 5)):
            assert blocks.s_st[i, j] == s[p, q]
        for j, q in enumerate((1, 3)):
            assert blocks.s_ss[i, j] == s[p, q]
    assert (blocks.n_tx, blocks.n_rx, blocks.n_bs) == (3, 2, 2)


def test_resolvent_trivial_limits():
    r = np.array([0.3 + 0.1j, -0.5j, 0.8])
    assert np.array_equal(coupling_resolvent(np.zeros((3, 3)), r), np.eye(3))
    s_ss = 0.2 * standard_complex_gaussian(substream(1), (3, 3))
    assert np.array_equal(coupling_resolvent(s_ss, np.zeros(3)), np.eye(3))


def test_resolvent_scalar_hand_value():
    g = coupling_resolvent(np.array([[0.4 + 0j]]), np.array([0.5 + 0j]))
    assert abs(g[0, 0] - 1.25) < 1e-12
    assert abs(g[0, 0] - 1.0 / (1.0 - 0.5 * 0.4)) < 1e-15


def test_resolvent_inverse_identity():
    system = system_for(2, 2, 12, seed=3)
    blocks = extract_blocks(system)
    r = sample_loads(LoadConstraint.uni(), 12, substream(8))
    g = coupling_resolvent(blocks.s_ss, r)
    lhs = (np.eye(12) - r[:, None] * blocks.s_ss) @ g
    assert np.linalg.norm(lhs - np.eye(12)) < 1e-10


def test_resolvent_singular_loop_fails_fast():
    # a lossless reflective pair with unit loads is exactly resonant
    s_ss = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(SingularityError) as err:
        coupling_resolvent(s_ss, np.array([1.0 + 0j, 1.0 + 0j]))
    assert err.value.rcond < 1e-12


def test_batched_resolvent_matches_the_scalar_one_per_configuration():
    blocks = blocks_for(2, 2, 6, seed=21)
    gen = substream(22)
    r = np.stack([sample_loads(LoadConstraint.uni(), 6, gen) for _ in range(6)]).reshape(2, 3, 6)
    g, rcond = resolvent(blocks.s_ss, r)
    assert g.shape == (2, 3, 6, 6) and rcond.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(g[idx], coupling_resolvent(blocks.s_ss, r[idx]))
        assert np.all(rcond[idx] >= RCOND_MIN)


def test_exactly_singular_member_gets_rcond_zero_in_a_stack():
    s_ss = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    r = np.array([[0.5, 0.5j], [1.0, 1.0], [-0.3, 0.2]], dtype=complex)
    g, rcond = resolvent(s_ss, r)
    assert rcond[1] == 0.0 and not g[1].any()
    for i in (0, 2):
        assert rcond[i] >= RCOND_MIN
        assert np.array_equal(g[i], coupling_resolvent(s_ss, r[i]))


def test_stacked_coupling_with_a_singular_member_solves_the_others_alone():
    # member 1 pairs a lossless reflective pair with unit loads: exactly resonant
    s_ss = np.stack([
        0.3 * standard_complex_gaussian(substream(23), (2, 2)),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        0.3 * standard_complex_gaussian(substream(24), (2, 2)),
    ])
    r = np.array([[0.5, 0.5j], [1.0, 1.0], [-0.3, 0.2]], dtype=complex)
    g, rcond = resolvent(s_ss, r)
    assert g.shape == (3, 2, 2) and rcond.shape == (3,)
    assert rcond[1] == 0.0 and not g[1].any()
    for i in (0, 2):
        g_one, rcond_one = resolvent(s_ss[i], r[i])
        assert np.array_equal(g[i], g_one) and rcond[i] == rcond_one


@pytest.mark.parametrize("bad", [1.01, np.nan])
def test_loads_outside_the_unit_disk_are_rejected(bad):
    blocks = blocks_for(2, 2, 3, seed=23)
    x = sample_random_illumination(2, substream(24))
    r = np.array([0.2, bad, -0.4j], dtype=complex)
    with pytest.raises(ValueError):
        coupling_resolvent(blocks.s_ss, r)
    with pytest.raises(ValueError):
        channel(blocks, r)
    with pytest.raises(ValueError):
        closed_form_jacobian(blocks, r, x)
    # measured coefficients a rounding step above 1 stay admissible
    assert abs(PIN_OFF) > 1.0
    closed_form_jacobian(blocks, np.full(3, PIN_OFF), x)


@pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan), np.inf])
def test_non_finite_illuminations_are_rejected(bad):
    blocks = blocks_for(3, 2, 3, seed=23)
    r = sample_loads(LoadConstraint.uni(), 3, substream(24))
    x = np.array([bad, 1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="not 1"):
        validate_illumination(x, 3)
    with pytest.raises(ValueError, match="not 1"):
        closed_form_jacobian(blocks, r, x)
    with pytest.raises(ValueError, match="not 1"):
        IlluminationPolicy.fixed(x)
    with pytest.raises(ValueError, match="not 1"):
        bs_eemdof_point(blocks, r, x)


RHO = 1.0 + LOAD_MAG_TOL


def passive_coupling(n_s, eta, gen):
    """A random S_SS with spectral norm exactly eta."""
    s_ss = standard_complex_gaussian(gen, (n_s, n_s))
    return eta * s_ss / np.linalg.norm(s_ss, 2)


# |r| = RHO, less the ulps by which rounding a phase factor can overshoot it
RIM = RHO * (1.0 - 1e-15)


def admissible_loads(n_s, gen):
    """Loads in the disk of radius RHO, a third of them on its rim."""
    r = np.sqrt(gen.random(n_s)) * RIM * np.exp(2j * np.pi * gen.random(n_s))
    rim = gen.random(n_s) < 1.0 / 3.0
    r[rim] = RIM * np.exp(1j * np.angle(r[rim]))
    return r


@pytest.mark.parametrize("n_s", [1, 2, 5, 12])
def test_passivity_certificate_bounds_rcond_and_toggle_denominators(n_s):
    gen = substream(60, n_s)
    for eta in (0.3, 0.9, 0.999, (1.0 - 1e-6) / RHO):
        s_ss = passive_coupling(n_s, eta, gen)
        floor = rcond_floor(s_ss)
        assert floor == pytest.approx((1 - RHO * eta) / (n_s * (1 + RHO * eta)), rel=1e-12)
        # the floor from the norm alone, and from an upper bound on it, which certifies less
        assert norm_floor(spectral_norm(s_ss), n_s) == floor
        assert norm_floor(1.01 * spectral_norm(s_ss), n_s) < floor
        margin = (1 - RHO * eta) / (1 + RHO * eta)
        for _ in range(20):
            r = admissible_loads(n_s, gen)
            g, rcond = resolvent(s_ss, r)
            assert rcond >= floor
            # every single-load flip to another admissible value
            flipped = admissible_loads(n_s, gen)
            t_diag = np.diag(s_ss @ g)
            assert np.all(np.abs(1.0 - (flipped - r) * t_diag) >= margin)
    # every load on the rim of a Hermitian rank-1 coupling: sigma_min(A) = 1 - RIM*eta
    u = standard_complex_gaussian(gen, n_s)
    s_ss = eta * np.outer(u, u.conj()) / np.vdot(u, u).real
    r = np.full(n_s, RIM, dtype=complex)
    assert np.linalg.svd(np.eye(n_s) - r[:, None] * s_ss, compute_uv=False)[-1] < 2e-6
    assert resolvent(s_ss, r)[1] >= rcond_floor(s_ss) > 0.0


def test_passivity_certificate_is_void_at_the_lossless_limit():
    assert rcond_floor(np.array([[0.0, 1.0], [1.0, 0.0]])) == 0.0
    assert rcond_floor(np.full((4, 4), 1.0 / (4.0 * RHO))) == 0.0
    assert rcond_floor(np.zeros((3, 3))) == pytest.approx(1.0 / 3.0)
    # a stack gives each item's own floor, bit for bit, void items included
    gen = substream(66)
    for lossless in (np.array([[0.0, 1.0], [1.0, 0.0]]), np.full((4, 4), 1.0 / (4.0 * RHO))):
        n_s = lossless.shape[-1]
        items = [lossless, np.zeros((n_s, n_s))]
        items += [passive_coupling(n_s, eta, gen) for eta in (0.3, 0.9, 1.0 / RHO, 1.0)]
        singles = [rcond_floor(a) for a in items]
        assert all(type(f) is float for f in singles)
        assert singles[0] == singles[-1] == 0.0 and singles[1] == pytest.approx(1.0 / n_s)
        floors = rcond_floor(np.stack(items).reshape(2, 3, n_s, n_s))
        assert floors.shape == (2, 3) and np.array_equal(floors.ravel(), singles)


def test_blocks_certify_every_stacked_system_with_one_svd(monkeypatch):
    systems = [system_for(2, 3, 4, seed=67 + i, eta=eta) for i, eta in enumerate((0.3, 0.9))]
    ports = (systems[0].tx_ports, systems[0].rx_ports, systems[0].bs_ports)
    stack = partition(np.stack([s.matrix for s in systems]), *ports)
    floors = rcond_floor(stack.s_ss)
    assert floors.shape == (2,) and np.all(floors >= RCOND_MIN)
    calls = []
    counted = lambda s_ss: calls.append(s_ss.shape) or rcond_floor(s_ss)
    monkeypatch.setattr(bsdof.network, "rcond_floor", counted)
    assert stack.certified and stack.certified and calls == [(2, 4, 4)]
    # one lossless item voids the certificate of the whole stack
    s_ss = stack.s_ss.copy()
    s_ss[1] = np.eye(4)[::-1]
    assert not ScatteringBlocks(stack.s_rt, stack.s_rs, s_ss, stack.s_st).certified


def test_spectral_norm_equals_the_matrix_2_norm():
    gen = substream(63)
    matrices = [standard_complex_gaussian(gen, (n, m)) for n, m in ((3, 3), (5, 9), (24, 7))]
    matrices += [gen.standard_normal((6, 6)), np.zeros((4, 4), dtype=complex)]
    for a in matrices:
        assert spectral_norm(a) == np.linalg.norm(a, 2)
        assert type(spectral_norm(a)) is float
    stack = np.stack([standard_complex_gaussian(gen, (4, 5)) for _ in range(3)])
    assert np.array_equal(spectral_norm(stack), [spectral_norm(a) for a in stack])


def test_frobenius_norm_rounds_as_the_numpy_norm():
    gen = substream(64)
    for n in range(1, 65):
        x = standard_complex_gaussian(gen, (3, n))
        assert np.array_equal(frobenius_norm(x, 1), [np.linalg.norm(row) for row in x])
        assert frobenius_norm(x) == np.linalg.norm(x)


def test_stack_with_one_non_passive_matrix_is_rejected():
    stack = np.stack([0.5 * np.eye(3), 1.2 * np.eye(3), np.zeros((3, 3))])
    with pytest.raises(PassivityError, match="1.2 exceeds 1"):
        require_passive(spectral_norm(stack))
    require_passive(spectral_norm(stack[[0, 2]]))


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
def test_solved_factors_equal_the_resolvent_ones(stacked):
    blocks = blocks_for(3, 4, 7, seed=61)
    gen = substream(62)
    stack = np.array([sample_loads(LoadConstraint.uni(), 7, gen) for _ in range(5)])
    r = stack if stacked else stack[0]
    assert blocks.certified
    rx_factor, w, ok = factors(blocks, r)
    assert ok.shape == r.shape[:-1] and ok.all()
    g = resolvent(blocks.s_ss, r)[0]
    rx_ref, w_ref = jacobian_factors(blocks, g, r)
    assert rx_factor.shape == rx_ref.shape and w.shape == w_ref.shape
    for idx in np.ndindex(r.shape[:-1]):
        for got, ref in ((rx_factor[idx], rx_ref[idx]), (w[idx], w_ref[idx])):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize(
    "bad, message",
    [
        ([[0.2, 0.1j, 0.0], [0.2, 1.01, -0.4j]], "finite and at most 1"),
        ([[0.2, 0.1j, 0.0], [0.2, np.nan, -0.4j]], "finite and at most 1"),
        ([[0.2, 0.1j], [0.2, -0.4j]], r"expected loads of shape \(\.\.\., 3\)"),
    ],
    ids=["1.01", "nan", "width"],
)
def test_solved_factors_reject_inadmissible_loads(bad, message):
    blocks = blocks_for(2, 2, 3, seed=63)
    for certified, solve in itertools.product((True, False), (factors, channel)):
        blocks.certified = certified  # the gated branch too, on the same blocks
        with pytest.raises(ValueError, match=message):
            solve(blocks, np.array(bad))


def test_each_solve_validates_its_loads_once(monkeypatch):
    blocks = blocks_for(2, 2, 3, seed=63)
    calls = []
    counted = lambda r, n_s: calls.append(n_s) or validate_loads(r, n_s)
    monkeypatch.setattr(bsdof.network, "validate_loads", counted)
    for certified, solve in itertools.product((True, False), (factors, channel)):
        blocks.certified = certified
        solve(blocks, np.array([[0.2, 0.1j, 0.0], [0.2, 0.5, -0.4j]]))
    assert calls == [3] * 4


def test_uncertified_factors_gate_on_the_exact_rcond():
    # the flat rank-1 coupling resonates when every load is ON
    u = np.ones(4) / 2.0
    gen = substream(64)
    blocks = ScatteringBlocks(
        s_rt=np.zeros((2, 1)),
        s_rs=0.3 * gen.standard_normal((2, 4)),
        s_ss=(1.0 - 1e-13) * np.outer(u, u),
        s_st=0.3 * gen.standard_normal((4, 1)),
    )
    assert not blocks.certified
    r = np.array([[1.0, -1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [0.5j, 0.0, -0.3, 1.0]])
    rx_factor, w, ok = factors(blocks, r)
    g, rcond = resolvent(blocks.s_ss, r)
    assert ok.tolist() == [True, False, True] and np.array_equal(ok, rcond >= RCOND_MIN)
    rx_ref, w_ref = jacobian_factors(blocks, g, r)
    assert np.array_equal(rx_factor, rx_ref) and np.array_equal(w, w_ref)


def toggle_draws(dims, constraint, seed):
    """Certified blocks of an environment at dims, 256 two-state draws and their toggle steps."""
    blocks = blocks_for(*dims, seed=seed)
    n_words = constraint.uniforms_per_draw(dims[2])
    r = loads_from_uniforms(constraint, substream_uniforms(seed, (), range(256), n_words))
    on, off = constraint.on_value, constraint.off_value
    return blocks, r, np.where(r == on, off, on) - r


TOGGLE_CASES = list(
    itertools.product([(1, 1, 2), (2, 2, 8), (3, 4, 16), (3, 4, 64)], ["pin", "pm"])
)


@pytest.mark.parametrize("dims, kind", TOGGLE_CASES)
def test_certified_toggle_factors_agree_with_the_gated_ones(dims, kind, monkeypatch):
    constraint = getattr(LoadConstraint, kind)()
    states = constraint.on_value, constraint.off_value
    blocks, r, _ = toggle_draws(dims, constraint, seed=sum(dims))
    assert blocks.certified
    gated = ScatteringBlocks(blocks.s_rt, blocks.s_rs, blocks.s_ss, blocks.s_st)
    gated.certified = False
    reference = toggle_factors(gated, r, *states)

    def no_inverse(*args):
        raise AssertionError("the dense resolvent was formed")

    monkeypatch.setattr(bsdof.network.np.linalg, "inv", no_inverse)
    monkeypatch.setattr(bsdof.network, "resolvent", no_inverse)
    got = toggle_factors(blocks, r, *states)
    assert got[3].shape == (256,) and got[3].all() and reference[3].all()
    for value, ref in zip(got[:3], reference[:3]):
        assert value.shape == ref.shape
        assert np.abs(value - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("dims, kind", TOGGLE_CASES)
def test_gated_toggle_factors_keep_the_resolvent_bits(dims, kind):
    constraint = getattr(LoadConstraint, kind)()
    blocks, r, delta = toggle_draws(dims, constraint, seed=sum(dims))
    blocks.certified = False
    rx_factor, w, denom, ok = toggle_factors(blocks, r, constraint.on_value, constraint.off_value)
    g, rcond = resolvent(blocks.s_ss, r)
    rx_ref, w_ref = jacobian_factors(blocks, g, r)
    assert np.array_equal(rx_factor, rx_ref) and np.array_equal(w, w_ref)
    # outside the assert, whose rewriting keeps every temporary alive: only here does numpy
    # reuse a large einsum result as the product's output, with the operands swapped, and
    # a complex product rounds differently in the other order
    denom_ref = 1.0 - delta * np.einsum("kj,cjk->ck", blocks.s_ss, g)
    assert np.array_equal(denom, denom_ref)
    assert np.array_equal(ok, rcond >= RCOND_MIN)
    assert np.array_equal(ok, (rcond >= RCOND_MIN) & (np.abs(denom_ref).min(axis=1) >= RCOND_MIN))


def test_toggle_factors_gate_on_their_denominators():
    # seven of eight PM loads on: A is regular (rcond 0.1), but toggling the eighth one on
    # makes every load on, where the flat rank-1 coupling resonates
    u = np.ones(8) / np.sqrt(8.0)
    gen = substream(72)
    s_rs, s_st = 0.3 * gen.standard_normal((2, 8)), 0.3 * gen.standard_normal((8, 1))
    pm = LoadConstraint.pm()
    r = np.array([[pm.on_value] * 7 + [pm.off_value], [pm.on_value, pm.off_value] * 4])
    resonant = ScatteringBlocks(np.zeros((2, 1)), s_rs, (1.0 - 1e-13) * np.outer(u, u), s_st)
    assert not resonant.certified
    _, _, denom, ok = toggle_factors(resonant, r, pm.on_value, pm.off_value)
    assert np.all(resolvent(resonant.s_ss, r)[1] > 0.09)
    assert np.abs(denom[0]).min() < RCOND_MIN <= np.abs(denom[1]).min()
    assert ok.tolist() == [False, True]
    # a certified coupling clears every denominator, so its mask stays all True
    damped = ScatteringBlocks(np.zeros((2, 1)), s_rs, 0.5 * np.outer(u, u), s_st)
    assert damped.certified
    assert toggle_factors(damped, r, pm.on_value, pm.off_value)[3].all()


TWO_STATES = {
    "pin": LoadConstraint.pin(),
    "pm": LoadConstraint.pm(),
    "custom": LoadConstraint("PIN", 0.3 + 0.4j, -0.9j),
}


def two_state_draws(dims, constraint, seed, eta=0.9):
    """Certified blocks at dims and 256 draws of the constraint, led by all on and all off."""
    blocks = blocks_for(*dims, seed=seed, eta=eta)
    u = substream_uniforms(seed, (), range(254), dims[2])
    states = np.repeat([[constraint.on_value], [constraint.off_value]], dims[2], axis=1)
    return blocks, np.concatenate([states, loads_from_uniforms(constraint, u)])


@pytest.mark.parametrize("eta", [0.5, 0.95])
@pytest.mark.parametrize("kind", TWO_STATES)
@pytest.mark.parametrize("dims", [(1, 1, 1), (1, 1, 2), (2, 2, 8), (3, 4, 16), (3, 4, 64)])
def test_two_state_factors_agree_with_the_solved_ones(dims, kind, eta, monkeypatch):
    constraint = TWO_STATES[kind]
    blocks, r = two_state_draws(dims, constraint, seed=sum(dims), eta=eta)
    assert blocks.certified
    gated = ScatteringBlocks(blocks.s_rt, blocks.s_rs, blocks.s_ss, blocks.s_st)
    gated.certified = False
    reference = factors(gated, r)

    def no_inverse(*args):
        raise AssertionError("the dense resolvent was formed")

    monkeypatch.setattr(bsdof.network.np.linalg, "inv", no_inverse)
    monkeypatch.setattr(bsdof.network, "resolvent", no_inverse)
    got = two_state_factors(blocks, r, constraint.on_value, constraint.off_value)
    assert got[2].shape == (256,) and got[2].all() and reference[2].all()
    for value, ref in zip(got[:2], reference[:2]):
        assert value.shape == ref.shape
        assert np.abs(value - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("dims", [(1, 1, 2), (3, 4, 16), (3, 4, 64)])
def test_two_state_factor_rows_do_not_depend_on_their_stack(dims):
    pin = TWO_STATES["pin"]
    blocks, r = two_state_draws(dims, pin, seed=66)
    whole = two_state_factors(blocks, r, pin.on_value, pin.off_value)
    subset = np.sort(substream(67).choice(len(r), 37, replace=False))
    for rows in [subset, *([i] for i in range(len(r)))]:
        part = two_state_factors(blocks, r[rows], pin.on_value, pin.off_value)
        for got, full in zip(part, whole):
            assert np.array_equal(got, full[rows])


def test_two_state_factors_reject_loads_off_the_two_states():
    pin = TWO_STATES["pin"]
    blocks, r = two_state_draws((2, 2, 4), pin, seed=68)
    stray = np.where(r == pin.on_value, 0.5, r)
    # both two-state solves, on both branches, check their loads alike
    for solve, certified in itertools.product((two_state_factors, toggle_factors), (True, False)):
        blocks.certified = certified
        for bad in (r[:, :3], r[0], stray):
            with pytest.raises(ValueError, match="two states"):
                solve(blocks, bad, pin.on_value, pin.off_value)
        with pytest.raises(InconsistentStateError, match=r"load \(0, 0\)"):
            solve(blocks, stray, pin.on_value, pin.off_value)
        with pytest.raises(ValueError, match="finite and at most 1"):
            solve(blocks, r, pin.on_value, np.nan)
        with pytest.raises(InconsistentStateError, match="must differ"):
            solve(blocks, np.full_like(r, pin.on_value), pin.on_value, pin.on_value)


@pytest.mark.parametrize("kind, certified", [("uni", True), ("uni", False), ("pin", False)])
def test_solved_factor_samples_keep_their_bits(kind, certified, monkeypatch):
    # UNI draws and uncertified blocks sample through factors, chunk by chunk
    system = system_for(3, 4, 8, seed=69)
    constraint = LoadConstraint.from_dict({"kind": kind.upper()})
    if not certified:
        monkeypatch.setattr(ScatteringBlocks, "certified", False)
    dist = sample_distribution(system, IlluminationPolicy.rand(), constraint, 300, seed=70)
    blocks, n_load = extract_blocks(system), constraint.uniforms_per_draw(8)
    u = substream_uniforms(70, (), range(300), n_load + 6)
    expected = []
    for chunk in (u[:CHUNK], u[CHUNK:]):
        rx, w, ok = factors(blocks, loads_from_uniforms(constraint, chunk[:, :n_load]))
        x = illuminations_from_uniforms(chunk[:, n_load:])
        expected.append(participation_from_jacobians(load_jacobian(rx, w, x), ok))
    assert dist.redraw_count == 0
    assert np.array_equal(dist.samples, np.concatenate(expected))


def test_partition_of_a_stack_gives_each_matrix_its_blocks():
    gen = substream(65)
    stack = 0.1 * standard_complex_gaussian(gen, (3, 7, 7))
    ports = ((2, 4, 5), (0, 6), (1, 3))
    blocks = partition(stack, *ports)
    for i, a in enumerate(stack):
        one = extract_blocks(ScatteringSystem(7, a, *ports))
        for name in ("s_rt", "s_rs", "s_ss", "s_st"):
            assert np.array_equal(getattr(blocks, name)[i], getattr(one, name))
    assert (blocks.n_tx, blocks.n_rx, blocks.n_bs) == (3, 2, 2)


@pytest.mark.parametrize(
    "name, shape", [("s_ss", (4, 3, 2)), ("s_rs", (4, 2, 2)), ("s_st", (4, 3, 1))]
)
def test_stacked_blocks_with_mismatched_trailing_shapes_are_rejected(name, shape):
    # a stack of four systems with 2 tx, 2 rx and 3 loads, one block cut wrong
    shapes = {"s_rt": (4, 2, 2), "s_rs": (4, 2, 3), "s_ss": (4, 3, 3), "s_st": (4, 3, 2)}
    with pytest.raises(ValueError, match=name):
        ScatteringBlocks(**{k: np.zeros(shape if k == name else v) for k, v in shapes.items()})


def test_stacked_closed_form_equals_the_single_system_one():
    systems = [blocks_for(2, 3, 4, seed=s) for s in (66, 67, 68)]
    stacked = ScatteringBlocks(
        *(np.stack([getattr(b, k) for b in systems]) for k in ("s_rt", "s_rs", "s_ss", "s_st"))
    )
    gen = substream(69)
    r0 = np.stack([sample_loads(LoadConstraint.uni(), 4, gen) for _ in systems])
    x = np.stack([sample_random_illumination(2, gen) for _ in systems])
    jac = closed_form_jacobian(stacked, r0, x).matrix
    assert jac.shape == (3, 3, 4)
    for i, blocks in enumerate(systems):
        assert np.array_equal(jac[i], closed_form_jacobian(blocks, r0[i], x[i]).matrix)
    with pytest.raises(ValueError, match="not 1"):
        closed_form_jacobian(stacked, r0, x * np.array([[1.0], [1.1], [1.0]]))


def resolvent_channel(blocks, r):
    """H(r) from resolvent's G: channel on an uncertified copy of the blocks."""
    gated = ScatteringBlocks(blocks.s_rt, blocks.s_rs, blocks.s_ss, blocks.s_st)
    gated.certified = False
    return channel(gated, r)[0]


def test_channel_zero_loads_is_direct_path():
    blocks = blocks_for(3, 2, 5, seed=4)
    for h in (channel(blocks, np.zeros(5))[0], resolvent_channel(blocks, np.zeros(5))):
        assert np.array_equal(h, blocks.s_rt)


def test_channel_scalar_closed_form():
    r = 0.6 * np.exp(0.7j)
    blocks = scalar_blocks(0.1 + 0.2j, 0.5 - 0.1j, 0.3 + 0.1j, 0.4 - 0.2j)
    hand = (0.1 + 0.2j) + (0.5 - 0.1j) * r * (0.4 - 0.2j) / (1 - r * (0.3 + 0.1j))
    for h in (channel(blocks, np.array([r]))[0], resolvent_channel(blocks, np.array([r]))):
        assert abs(h[0, 0] - hand) < 1e-14


def test_channel_no_coupling_reduces_to_single_bounce():
    blocks = blocks_for(2, 3, 6, seed=5)
    no_mc = ScatteringBlocks(
        s_rt=blocks.s_rt, s_rs=blocks.s_rs, s_ss=np.zeros((6, 6)), s_st=blocks.s_st
    )
    r = sample_loads(LoadConstraint.uni(), 6, substream(9))
    hand = blocks.s_rt + blocks.s_rs @ np.diag(r) @ blocks.s_st
    for h in (channel(no_mc, r)[0], resolvent_channel(no_mc, r)):
        assert np.allclose(h, hand, rtol=0, atol=1e-14)


def test_output_wavefront():
    x = np.zeros(4, dtype=complex)
    x[0] = 1.0
    assert np.array_equal(incident_drive(np.eye(4), x), x)
    assert np.array_equal(incident_drive(np.zeros((3, 4)), x), np.zeros(3))

    h = standard_complex_gaussian(substream(12), (4, 3))
    xu = sample_random_illumination(3, substream(13))
    y = incident_drive(h, xu)
    brute = [sum(h[i, j] * xu[j] for j in range(3)) for i in range(4)]
    assert np.allclose(y, brute, rtol=0, atol=1e-13)

    with pytest.raises(ValueError):
        incident_drive(h, sample_random_illumination(2, substream(14)))


def test_incident_map_limits_and_scalar_form():
    blocks = blocks_for(2, 2, 4, seed=6)
    no_mc = ScatteringBlocks(
        s_rt=blocks.s_rt, s_rs=blocks.s_rs, s_ss=np.zeros((4, 4)), s_st=blocks.s_st
    )
    r = sample_loads(LoadConstraint.uni(), 4, substream(10))
    assert np.array_equal(incident_map(no_mc, r), blocks.s_st)
    assert np.array_equal(incident_map(blocks, np.zeros(4)), blocks.s_st)

    rs = 0.7 * np.exp(-1.1j)
    sb = scalar_blocks(0.0, 0.5, 0.25 - 0.15j, 0.6 + 0.1j)
    w = incident_map(sb, np.array([rs]))
    hand = (0.25 - 0.15j) * rs * (0.6 + 0.1j) / (1 - rs * (0.25 - 0.15j)) + (0.6 + 0.1j)
    assert abs(w[0, 0] - hand) < 1e-14


def test_jacobian_scalar_hand_derivative():
    rs = 0.55 * np.exp(0.3j)
    sb = scalar_blocks(0.1, 0.45 + 0.2j, 0.35 - 0.05j, 0.5 + 0.3j)
    x = np.array([1.0 + 0j])
    jac = closed_form_jacobian(sb, np.array([rs]), x)
    hand = (0.45 + 0.2j) * (0.5 + 0.3j) / (1 - rs * (0.35 - 0.05j)) ** 2
    assert abs(jac.matrix[0, 0] - hand) < 1e-13
    assert jac.singular_values[0] == pytest.approx(abs(hand), rel=1e-13)


def test_jacobian_spectrum_is_computed_on_first_use():
    jac = Jacobian(np.array([[3.0, 0.0], [0.0, 4.0j]]))
    assert "singular_values" not in vars(jac)
    assert np.allclose(jac.singular_values, [4.0, 3.0], rtol=0, atol=1e-15)
    assert jac.singular_values is jac.singular_values


def test_jacobian_without_coupling_ignores_operating_point():
    """With no element-to-element coupling the map is affine in the loads."""
    blocks = blocks_for(2, 3, 5, seed=7)
    no_mc = ScatteringBlocks(
        s_rt=blocks.s_rt, s_rs=blocks.s_rs, s_ss=np.zeros((5, 5)), s_st=blocks.s_st
    )
    x = sample_random_illumination(2, substream(15))
    r1 = sample_loads(LoadConstraint.uni(), 5, substream(16))
    r2 = sample_loads(LoadConstraint.pin(), 5, substream(17))
    j1 = closed_form_jacobian(no_mc, r1, x)
    j2 = closed_form_jacobian(no_mc, r2, x)
    assert np.array_equal(j1.matrix, j2.matrix)

    drive = no_mc.s_st @ x
    for i in range(5):
        assert np.allclose(j1.matrix[:, i], no_mc.s_rs[:, i] * drive[i], rtol=0, atol=1e-15)


def test_rx_factor_times_load_factor_is_the_jacobian():
    blocks = blocks_for(3, 4, 9, seed=8)
    r0 = sample_loads(LoadConstraint.uni(), 9, substream(18))
    x = sample_random_illumination(3, substream(19))
    jac = closed_form_jacobian(blocks, r0, x)
    b = load_factor(blocks, r0, x)
    rel = np.linalg.norm(blocks.s_rs @ b - jac.matrix) / np.linalg.norm(jac.matrix)
    assert rel < 1e-12


def test_load_factor_without_coupling_and_its_column_scaling():
    blocks = blocks_for(2, 2, 4, seed=9)
    no_mc = ScatteringBlocks(
        s_rt=blocks.s_rt, s_rs=blocks.s_rs, s_ss=np.zeros((4, 4)), s_st=blocks.s_st
    )
    x = np.array([1.0, 0.0], dtype=complex)  # single-port excitation
    r0 = sample_loads(LoadConstraint.uni(), 4, substream(20))
    assert np.array_equal(load_factor(no_mc, r0, x), np.diag(no_mc.s_st @ x))

    # coupled case: columns of B scale with the incident wave entries
    b = load_factor(blocks, r0, x)
    g = coupling_resolvent(blocks.s_ss, r0)
    wx = incident_map(blocks, r0) @ x
    for i in range(4):
        assert np.allclose(b[:, i], g[:, i] * wx[i], rtol=0, atol=1e-14)


@pytest.mark.parametrize("dims", [(3, 4, 16), (3, 4, 64)])
@pytest.mark.parametrize("certified", [True, False])
def test_reciprocal_role_swap_transposes_the_factors_and_the_channel(dims, certified):
    """For S = S^T, the reverse link (tx and rx roles swapped) has the factor pair
    (W^T, (S_RS G)^T) of the forward link and the channel H^T: a symmetric S_SS makes
    (I - S_SS diag(r))^-1 = G^T, so W = G^T S_ST and W_rev = G^T S_RS^T."""
    n_t, n_r, n_s = dims
    system = synth_environment(EnvironmentSpec(n_t, n_r, n_s, 0.9, 1.0, reciprocal=True, seed=5))
    forward = extract_blocks(system)
    reverse = partition(system.matrix, system.rx_ports, system.tx_ports, system.bs_ports)
    assert forward.certified and reverse.certified
    if not certified:
        forward, reverse = (
            ScatteringBlocks(b.s_rt, b.s_rs, b.s_ss, b.s_st) for b in (forward, reverse)
        )
        forward.certified = reverse.certified = False
    u = substream_uniforms(5, (1,), np.arange(64), 2 * n_s)
    uni = loads_from_uniforms(LoadConstraint.uni(), u)
    pin = LoadConstraint.pin()
    two_state = loads_from_uniforms(pin, u[:, :n_s])
    states = pin.on_value, pin.off_value
    for solve in (lambda b: factors(b, uni), lambda b: two_state_factors(b, two_state, *states)):
        (rx, w, ok), (rx_rev, w_rev, ok_rev) = solve(forward), solve(reverse)
        assert ok.all() and ok_rev.all()
        for value, expected in ((rx_rev, w.swapaxes(1, 2)), (w_rev, rx.swapaxes(1, 2))):
            assert value.shape == expected.shape
            assert (frobenius_norm(value - expected) <= 1e-14 * frobenius_norm(expected)).all()
    for r in (uni, two_state):
        h, h_rev = channel(forward, r)[0], channel(reverse, r)[0]
        expected = h.swapaxes(1, 2)
        assert (frobenius_norm(h_rev - expected) <= 1e-14 * frobenius_norm(expected)).all()


@pytest.mark.parametrize("certified", [True, False])
def test_permuting_the_loaded_ports_permutes_the_factors(certified):
    """Permuting the loaded ports and the loads alike permutes the columns of S_RS G, the
    rows of W and the toggle denominators alike, within 1e-14 relative per draw (measured
    at most 5.0e-16).  two_state_factors picks its Woodbury loads by port index, so the
    permuted system picks them in another order."""
    system = system_for(3, 4, 64, seed=2)
    perm = substream(2, 7).permutation(64)
    bs_ports = np.asarray(system.bs_ports)[perm]
    blocks = extract_blocks(system)
    permuted = partition(system.matrix, system.tx_ports, system.rx_ports, bs_ports)
    assert blocks.certified and permuted.certified
    if not certified:
        blocks, permuted = (
            ScatteringBlocks(b.s_rt, b.s_rs, b.s_ss, b.s_st) for b in (blocks, permuted)
        )
        blocks.certified = permuted.certified = False
    pin = LoadConstraint.pin()
    r = loads_from_uniforms(pin, substream_uniforms(2, (), range(256), 64))
    states = pin.on_value, pin.off_value

    def close(value, expected, axes):
        error, scale = frobenius_norm(value - expected, axes), frobenius_norm(expected, axes)
        return value.shape == expected.shape and (error <= 1e-14 * scale).all()

    solves = (
        factors,
        lambda b, r: two_state_factors(b, r, *states),
        lambda b, r: toggle_factors(b, r, *states),
    )
    for solve in solves:
        rx, w, *denom, ok = solve(blocks, r)
        rx_p, w_p, *denom_p, ok_p = solve(permuted, r[:, perm])
        assert ok.all() and ok_p.all()
        assert close(rx_p, rx[:, :, perm], 2) and close(w_p, w[:, perm], 2)
        assert all(close(d_p, d[:, perm], 1) for d, d_p in zip(denom, denom_p))


def test_woodbury_zero_update_is_identity():
    blocks = blocks_for(2, 2, 6, seed=10)
    r = sample_loads(LoadConstraint.uni(), 6, substream(21))
    g = coupling_resolvent(blocks.s_ss, r)
    g_new, h_new = woodbury_channel_update(blocks, g, r, 2, r[2])
    assert np.array_equal(g_new, g)
    assert np.allclose(h_new, resolvent_channel(blocks, r), rtol=0, atol=1e-15)


def test_woodbury_no_coupling_keeps_identity_resolvent():
    blocks = blocks_for(2, 2, 4, seed=11)
    no_mc = ScatteringBlocks(
        s_rt=blocks.s_rt, s_rs=blocks.s_rs, s_ss=np.zeros((4, 4)), s_st=blocks.s_st
    )
    r = sample_loads(LoadConstraint.pm(), 4, substream(22))
    g_new, h_new = woodbury_channel_update(blocks=no_mc, base_resolvent=np.eye(4),
                                           base_r=r, changed_index=1, new_value=-r[1])
    r_new = r.copy()
    r_new[1] = -r[1]
    assert np.array_equal(g_new, np.eye(4))
    assert np.allclose(h_new, resolvent_channel(no_mc, r_new), rtol=0, atol=1e-14)


def test_woodbury_matches_full_recomputation():
    pin = LoadConstraint.pin()
    blocks = blocks_for(2, 2, 16, seed=12)
    r0 = sample_loads(pin, 16, substream(23))
    g0 = coupling_resolvent(blocks.s_ss, r0)
    r1 = r0.copy()
    r1[5] = pin.off_value if r0[5] == pin.on_value else pin.on_value
    g_inc, h_inc = woodbury_channel_update(blocks, g0, r0, 5, r1[5])
    g_full = coupling_resolvent(blocks.s_ss, r1)
    h_full = resolvent_channel(blocks, r1)
    assert np.linalg.norm(g_inc - g_full) / np.linalg.norm(g_full) < 1e-10
    assert np.linalg.norm(h_inc - h_full) / np.linalg.norm(h_full) < 1e-10


def test_woodbury_gray_code_walk_tracks_every_pin_configuration():
    """One rank-1 update per step through all 2^10 PIN configurations, in Gray-code order
    from all off, stays on the batched resolvent and channel of each configuration."""
    pin = LoadConstraint.pin()
    blocks = blocks_for(3, 4, 10, seed=0, eta=0.9)
    codes = np.arange(1024) ^ (np.arange(1024) >> 1)
    is_on = (codes[:, None] >> np.arange(10)) & 1 == 1
    configs = np.where(is_on, pin.on_value, pin.off_value)
    g_ref, rcond = resolvent(blocks.s_ss, configs)
    h_ref, _ = channel(blocks, configs)
    assert rcond.min() >= RCOND_MIN
    g, h = g_ref[0], h_ref[0]
    for step in range(1, 1024):
        (k,) = np.flatnonzero(configs[step] != configs[step - 1])
        g, h = woodbury_channel_update(blocks, g, configs[step - 1], k, configs[step, k])
        assert np.abs(g - g_ref[step]).max() <= 1e-12 * np.abs(g_ref[step]).max()
        assert np.abs(h - h_ref[step]).max() <= 1e-12 * np.abs(h_ref[step]).max()


def test_woodbury_singular_denominator():
    blocks = scalar_blocks(0.0, 0.1, 1.0, 0.1)
    with pytest.raises(SingularityError):
        woodbury_channel_update(blocks, np.eye(1), np.zeros(1), 0, 1.0)
    with pytest.raises(IndexError):
        woodbury_channel_update(blocks, np.eye(1), np.zeros(1), 4, 0.5)


@pytest.mark.parametrize(
    "base, new",
    [(0.0, np.nan), (0.0, 1.01), (0.0, 5.0), (np.nan, 0.5)],
    ids=["nan", "1.01", "5", "nan-base"],
)
def test_woodbury_rejects_inadmissible_loads(base, new):
    blocks = blocks_for(2, 2, 4, seed=13)
    r = np.array([0.2, base, -0.4j, 0.5])
    g = coupling_resolvent(blocks.s_ss, np.nan_to_num(r))
    with pytest.raises(ValueError, match="finite and at most 1"):
        woodbury_channel_update(blocks, g, r, 1, new)


def test_serialization_roundtrip(tmp_path):
    system = system_for(2, 3, 4, seed=13)
    clone = system_from_dict(system_to_dict(system))
    assert np.array_equal(clone.matrix, system.matrix)
    assert clone.tx_ports == system.tx_ports
    assert clone.rx_ports == system.rx_ports
    assert clone.bs_ports == system.bs_ports
    assert clone.reference_impedance == system.reference_impedance

    path = tmp_path / "system.json"
    save_system(system, path)
    assert np.array_equal(load_system(path).matrix, system.matrix)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d | {"tx_ports": [False]}, "tx_ports index must be an integer"),
        (lambda d: d | {"reference_impedance_ohms": True}, "must be a number"),
        (lambda d: d | {"matrix": [[True, False], *d["matrix"][1:]]}, "got a bool"),
    ],
    ids=["port", "impedance", "matrix-pair"],
)
def test_json_booleans_are_not_numbers(edit, message):
    # port 0 takes no role and couples to nothing, so reading false as 0 or a pair
    # [true, false] as S[0, 0] = 1 would give a valid system
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[1:, 1:] = 0.3 * standard_complex_gaussian(substream(73), (3, 3))
    payload = system_to_dict(ScatteringSystem(4, matrix, (1,), (2,), (3,)))
    system_from_dict(payload)
    with pytest.raises(ValueError, match=message):
        system_from_dict(edit(payload))


def test_partition_validation():
    s = np.zeros((4, 4), dtype=complex)
    with pytest.raises(PartitionError):
        ScatteringSystem(n_total=4, matrix=s, tx_ports=(0, 1), rx_ports=(1,), bs_ports=(2, 3))
    with pytest.raises(PartitionError):
        ScatteringSystem(n_total=4, matrix=s, tx_ports=(0,), rx_ports=(1,), bs_ports=(2, 7))
    with pytest.raises(PartitionError):
        ScatteringSystem(n_total=4, matrix=s, tx_ports=(0, 0), rx_ports=(1,), bs_ports=(2,))


def test_matrix_shape_must_match_the_port_count():
    with pytest.raises(ValueError, match=r"matrix shape \(3, 3\) does not match n_total=4"):
        ScatteringSystem(n_total=4, matrix=np.zeros((3, 3)), tx_ports=(0,), rx_ports=(1,),
                         bs_ports=(2,))


def test_passivity_validation():
    with pytest.raises(PassivityError):
        ScatteringSystem(n_total=3, matrix=1.2 * np.eye(3), tx_ports=(0,),
                         rx_ports=(1,), bs_ports=(2,))
    # tolerance admits rounding-level excursions only
    ScatteringSystem(n_total=3, matrix=(1 + 5e-10) * np.eye(3), tx_ports=(0,),
                     rx_ports=(1,), bs_ports=(2,))

