"""Monte-Carlo DOF distribution tests."""

import json
import math
import sys
import threading

import numpy as np
import pytest

import bsdof.network
import bsdof.optimize
import bsdof.sampling
from bsdof.cli import main
from bsdof.environment import zero_mc
from bsdof.errors import DegenerateInputError, SingularityError, UnsupportedOperationError
from bsdof.fd import ChannelMap, discrete_toggle_jacobian
from bsdof.loads import LOAD_MAG_TOL, LoadConstraint, loads_from_uniforms, sample_loads
from bsdof.metrics import (
    bs_eemdof_point,
    participation_from_jacobians,
    participation_from_singular_values,
)
from bsdof.optimize import OptimizationConfig, optimize_illumination, sample_load_set
from bsdof.sampling import (
    CHUNK,
    DofDistribution,
    IlluminationPolicy,
    _chunk_m_values,
    histogram,
    illuminations_from_uniforms,
    sample_distribution,
    sample_random_illumination,
)
from bsdof.network import (
    RCOND_MIN,
    ScatteringBlocks,
    ScatteringSystem,
    coupling_resolvent,
    extract_blocks,
    factors,
    load_jacobian,
    rcond_floor,
    resolvent,
    save_system,
    spectral_norm,
    toggle_factors,
)
from bsdof.streams import (
    FIXED_X,
    LOAD_SET,
    standard_complex_gaussian,
    substream,
    substream_uniforms,
)

from synthetic import blocks_for, flat_resonant_rank2_system, system_for

PIN = LoadConstraint.pin()
PM = LoadConstraint.pm()


def resonant_system(u, w):
    """Rank-1 coupling aligned with u; signal path rides the orthogonal w.

    The coupling resolvent blows up exactly when sum(|u_i|^2 r_i) reaches 1,
    so the singular set under a two-state family is controlled by u alone.
    """
    n = 11
    matrix = np.zeros((n, n), dtype=complex)
    tx, rx, bs = (0,), (1, 2), tuple(range(3, 11))
    matrix[np.ix_(bs, tx)] = 0.5 * w[:, None]
    matrix[np.ix_(rx, bs)] = np.outer([0.3, 0.4], w.conj())
    matrix[np.ix_(bs, bs)] = (1.0 - 1e-13) * np.outer(u, u.conj())
    return ScatteringSystem(
        n_total=n, matrix=matrix, tx_ports=tx, rx_ports=rx, bs_ports=bs
    )


def test_random_illumination_has_unit_norm():
    for n_t in (1, 2, 5):
        x = sample_random_illumination(n_t, substream(70, n_t))
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12


def test_random_illumination_is_sphere_symmetric():
    # Haar on the sphere: each |x_i|^2 averages 1/dim.  One block of the
    # stream's words gives row by row the draws of the scalar sampler.
    n = 100_000
    x = illuminations_from_uniforms(substream(77).random((n, 6)))
    assert abs(np.mean(np.abs(x[:, 1]) ** 2) - 1.0 / 3.0) < 0.005


def test_fixed_policy_collapses_without_coupling():
    system = zero_mc(system_for(2, 2, 8, seed=0))
    x = sample_random_illumination(2, substream(7, 0))
    dist = sample_distribution(system, IlluminationPolicy.fixed(x), PIN, 2000, seed=2)
    assert dist.std <= 1e-12
    assert np.all(dist.samples == dist.samples[0])


def test_random_policy_spreads_without_coupling():
    system = zero_mc(system_for(2, 2, 8, seed=1))
    dist = sample_distribution(system, IlluminationPolicy.rand(), PIN, 800, seed=3)
    assert dist.std > 1e-3


def test_single_output_port_pins_the_metric_at_one():
    system = system_for(2, 1, 8, seed=4)
    dist = sample_distribution(system, IlluminationPolicy.rand(), PIN, 200, seed=5)
    assert np.allclose(dist.samples, 1.0, rtol=0.0, atol=1e-12)


def test_samples_respect_bounds_and_n_tilde():
    system = system_for(3, 4, 16, seed=6)
    dist = sample_distribution(system, IlluminationPolicy.rand(), PIN, 500, seed=6)
    assert dist.n_tilde == 4
    assert np.all(dist.samples >= 1.0 - 1e-9)
    assert np.all(dist.samples <= 4.0 + 1e-9)
    for bad in ([0.5, 1.5], [1.5, 4.5], [np.nan, 1.5], [1.5, np.inf]):
        with pytest.raises(ValueError, match=r"outside \[1, 4\]"):
            DofDistribution(samples=bad, n_tilde=4, seed=0)


def test_fixed_illumination_still_spreads_with_coupling():
    system = system_for(3, 4, 64, seed=0)
    x = sample_random_illumination(3, substream(7, 0))
    dist = sample_distribution(system, IlluminationPolicy.fixed(x), PIN, 1500, seed=2)
    assert dist.std > 0.05


def test_sampling_is_deterministic():
    system = system_for(2, 2, 16, seed=8)
    first = sample_distribution(system, IlluminationPolicy.rand(), PIN, 600, seed=9)
    again = sample_distribution(system, IlluminationPolicy.rand(), PIN, 600, seed=9)
    assert np.array_equal(first.samples, again.samples)
    other_seed = sample_distribution(system, IlluminationPolicy.rand(), PIN, 600, seed=10)
    assert not np.array_equal(first.samples, other_seed.samples)


def test_worker_count_does_not_change_the_samples(monkeypatch):
    # the resonant system's PM draws are redrawn inside the pool workers
    certified, resonant = system_for(2, 2, 16, seed=8), flat_resonant_rank2_system()
    for system, constraint, n, seed in ((certified, PIN, 600, 9), (resonant, PM, 2000, 0)):
        runs = []
        for threads in ("1", "2", "3", "4"):
            monkeypatch.setenv("BSDOF_THREADS", threads)
            runs.append(sample_distribution(system, IlluminationPolicy.rand(), constraint, n, seed))
        for other in runs[1:]:
            assert other.samples.tobytes() == runs[0].samples.tobytes()
            assert other.redraw_count == runs[0].redraw_count
    assert runs[0].redraw_count > 0


@pytest.mark.parametrize("n_t", [1, 3])
def test_all_zero_magnitude_row_takes_unit_magnitudes_with_its_phases(n_t):
    u = substream_uniforms(5, (), range(4), 2 * n_t)
    u[2, :n_t] = 0.0
    x = illuminations_from_uniforms(u)
    assert np.all(np.isfinite(x))
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, rtol=0.0, atol=1e-15)
    phases = np.exp(2j * np.pi * u[2, n_t:]) / math.sqrt(n_t)
    assert np.allclose(x[2], phases, rtol=0.0, atol=1e-15)
    # the other rows are untouched, and so is a single row
    rest = [0, 1, 3]
    assert np.array_equal(x[rest], illuminations_from_uniforms(u[rest]))
    assert np.array_equal(x[2], illuminations_from_uniforms(u[2]))


def test_sampler_runs_through_an_all_zero_magnitude_row(monkeypatch):
    system = system_for(2, 2, 16, seed=8)
    expected = sample_distribution(system, IlluminationPolicy.rand(), PIN, 600, seed=9)
    batched = bsdof.sampling.substream_uniforms

    def zero_magnitudes(seed, prefix, index, k):
        # sample 300's magnitude words follow its 16 load words
        u = batched(seed, prefix, index, k)
        u[np.asarray(index) == 300, 16:18] = 0.0
        return u

    words = substream(9, 300).random(20)
    r = loads_from_uniforms(PIN, words[:16])
    x = np.exp(2j * np.pi * words[18:]) / math.sqrt(2.0)
    m_300 = bs_eemdof_point(extract_blocks(system), r, x).m
    others = np.arange(600) != 300
    monkeypatch.setattr(bsdof.sampling, "substream_uniforms", zero_magnitudes)
    for threads in ("1", "2"):
        monkeypatch.setenv("BSDOF_THREADS", threads)
        dist = sample_distribution(system, IlluminationPolicy.rand(), PIN, 600, seed=9)
        assert np.array_equal(dist.samples[others], expected.samples[others])
        assert math.isfinite(dist.samples[300])
        assert dist.samples[300] != expected.samples[300]
        assert math.isclose(dist.samples[300], m_300, rel_tol=1e-12)


def test_thread_override_must_be_an_integer(monkeypatch):
    system = system_for(2, 2, 4, seed=8)
    for value, message in (("many", "must be an integer"), ("-1", "must be nonnegative")):
        monkeypatch.setenv("BSDOF_THREADS", value)
        with pytest.raises(ValueError, match=message):
            sample_distribution(system, IlluminationPolicy.rand(), PIN, 8, seed=0)


def _scalar_reference(system, policy, constraint, seed, n, mode):
    """M of every sample from its own substream draws through the SVD forms."""
    blocks = extract_blocks(system)
    channel = ChannelMap.from_blocks(blocks)
    ref = np.empty(n)
    for i in range(n):
        gen = substream(seed, i)
        r = sample_loads(constraint, blocks.n_bs, gen)
        x = policy.fixed_x
        if policy.kind == "RAND":
            x = sample_random_illumination(blocks.n_tx, gen)
        if mode == "model":
            ref[i] = bs_eemdof_point(blocks, r, x).m
        else:
            jac = discrete_toggle_jacobian(channel, r, x, constraint)
            ref[i] = participation_from_singular_values(jac.singular_values).m
    return ref


@pytest.mark.parametrize(
    "mode, constraint",
    [("model", PIN), ("model", LoadConstraint.uni()), ("toggle", PIN)],
    ids=["model-PIN", "model-UNI", "toggle-PIN"],
)
@pytest.mark.parametrize("policy_kind", ["RAND", "FIXED"])
def test_every_sample_equals_its_scalar_svd_reference(mode, constraint, policy_kind):
    system = system_for(3, 4, 8, seed=41)
    if policy_kind == "RAND":
        policy = IlluminationPolicy.rand()
    else:
        policy = IlluminationPolicy.fixed(sample_random_illumination(3, substream(42)))
    n = 2 * CHUNK + 37  # two full chunks and a partial one
    dist = sample_distribution(system, policy, constraint, n, seed=43, mode=mode)
    assert dist.redraw_count == 0
    ref = _scalar_reference(system, policy, constraint, 43, n, mode)
    assert np.allclose(dist.samples, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "constraint", [PIN, LoadConstraint("PIN", 0.3 + 0.4j, -0.9j)], ids=["PIN", "custom"]
)
@pytest.mark.parametrize("n_s, env_seed", [(10, 0), (12, 1)])
def test_sampler_matches_the_exact_two_state_distribution(n_s, env_seed, constraint):
    # all 2^n_s equally likely configurations, through the resolvent of an uncertified copy
    system = system_for(3, 4, n_s, seed=env_seed)
    blocks = extract_blocks(system)
    blocks.certified = False
    x = illuminations_from_uniforms(substream_uniforms(9, (FIXED_X,), [0], 6))[0]
    on, off = constraint.on_value, constraint.off_value
    r = np.where((np.arange(2**n_s)[:, None] >> np.arange(n_s)) & 1 == 1, on, off)
    rx, w, ok = factors(blocks, r)
    model = load_jacobian(rx, w, x)
    # toggle mode's secants: the toggle factors scaled by (on - off) / denom
    rx, w, denom, toggle_ok = toggle_factors(blocks, r, on, off)
    toggle = load_jacobian(rx, w, x) * ((on - off) / denom)[:, None, :]
    assert ok.all() and toggle_ok.all()
    n, policy = 10_000, IlluminationPolicy.fixed(x)
    for mode, jacobians in (("model", model), ("toggle", toggle)):
        exact = np.sort(participation_from_jacobians(jacobians))
        dist = sample_distribution(system, policy, constraint, n, seed=4, mode=mode)
        assert abs(dist.mean - exact.mean()) <= 4.0 * exact.std() / math.sqrt(n), mode
        # both distributions are steps, so the largest CDF gap sits at one of their atoms
        atoms = np.concatenate([exact, dist.samples])
        cdf = lambda values, at: np.searchsorted(values, at, side="right") / values.size
        ks = np.abs(cdf(np.sort(dist.samples), atoms) - cdf(exact, atoms)).max()
        assert ks < 1.63 / math.sqrt(n), mode


def test_toggle_mode_tracks_the_model_mode():
    system = system_for(2, 2, 8, seed=2)
    x = sample_random_illumination(2, substream(7, 1))
    policy = IlluminationPolicy.fixed(x)
    by_model = sample_distribution(system, policy, PIN, 300, seed=4, mode="model")
    by_toggle = sample_distribution(system, policy, PIN, 300, seed=4, mode="toggle")
    assert abs(by_model.mean - by_toggle.mean) < 0.5


def test_toggle_mode_equals_model_mode_without_coupling():
    # zero coupling: the secant and the tangent differ by a global scalar
    system = zero_mc(system_for(2, 2, 8, seed=2))
    x = sample_random_illumination(2, substream(7, 1))
    policy = IlluminationPolicy.fixed(x)
    by_model = sample_distribution(system, policy, PIN, 300, seed=4, mode="model")
    by_toggle = sample_distribution(system, policy, PIN, 300, seed=4, mode="toggle")
    assert np.allclose(by_model.samples, by_toggle.samples, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("certified", [True, False])
@pytest.mark.parametrize("mode", ["model", "toggle"])
def test_a_receive_side_unitary_leaves_every_m_unchanged(mode, certified):
    """M reads J only through J J^H, and U J J^H U^H has its trace and Frobenius norm:
    replacing S_RS and S_RT by U S_RS and U S_RT moves no M of a chunk beyond 1e-13
    relative (measured at most 1.4e-15)."""
    blocks = blocks_for(3, 4, 64, seed=2)
    u = np.linalg.qr(standard_complex_gaussian(substream(8), (4, 4)))[0]
    rotated = ScatteringBlocks(u @ blocks.s_rt, u @ blocks.s_rs, blocks.s_ss, blocks.s_st)
    assert blocks.certified and rotated.certified
    if not certified:
        blocks = ScatteringBlocks(blocks.s_rt, blocks.s_rs, blocks.s_ss, blocks.s_st)
        blocks.certified = rotated.certified = False
    words = substream_uniforms(8, (), range(CHUNK), 64 + 6)
    r, x = loads_from_uniforms(PIN, words[:, :64]), illuminations_from_uniforms(words[:, 64:])
    values, ok = _chunk_m_values(blocks, r, x, mode, PIN)
    rotated_values, rotated_ok = _chunk_m_values(rotated, r, x, mode, PIN)
    assert ok.all() and rotated_ok.all()
    assert np.allclose(rotated_values, values, rtol=1e-13, atol=0.0)


def test_toggle_mode_rejects_continuous_loads():
    system = system_for(2, 2, 8, seed=2)
    with pytest.raises(UnsupportedOperationError):
        sample_distribution(
            system, IlluminationPolicy.rand(), LoadConstraint.uni(), 8, seed=0, mode="toggle"
        )


def test_singular_draws_are_redrawn_from_the_same_stream():
    # all-ON under PM resonates; that is a 2^-8 event per draw
    u = np.ones(8) / math.sqrt(8.0)
    w = np.zeros(8)
    w[0], w[1] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    system = resonant_system(u, w)
    dist = sample_distribution(system, IlluminationPolicy.rand(), PM, 2000, seed=0)
    assert dist.redraw_count > 0
    assert dist.n_samples == 2000
    # rank-1 receive coupling keeps every sample at one effective mode
    assert np.allclose(dist.samples, 1.0, rtol=0.0, atol=1e-9)
    again = sample_distribution(system, IlluminationPolicy.rand(), PM, 2000, seed=0)
    assert np.array_equal(dist.samples, again.samples)
    assert again.redraw_count == dist.redraw_count


def test_redrawn_samples_continue_their_own_stream():
    system = flat_resonant_rank2_system()
    blocks = extract_blocks(system)
    n = 2000
    dist = sample_distribution(system, IlluminationPolicy.rand(), PM, n, seed=0)
    assert dist.redraw_count > 0
    ref = np.empty(n)
    redrawn, redraws = [], 0
    for i in range(n):
        gen = substream(0, i)
        for attempt in range(1000):
            r = sample_loads(PM, blocks.n_bs, gen)
            x = sample_random_illumination(blocks.n_tx, gen)
            try:
                coupling_resolvent(blocks.s_ss, r)
                break
            except SingularityError:
                pass
        if attempt:
            redrawn.append(i)
            redraws += attempt
        ref[i] = bs_eemdof_point(blocks, r, x).m
    assert redraws == dist.redraw_count
    assert np.ptp(dist.samples[redrawn]) > 0.1
    assert np.allclose(dist.samples, ref, rtol=1e-12, atol=0.0)


def test_redrawn_load_set_members_continue_their_own_stream():
    s_ss = extract_blocks(flat_resonant_rank2_system()).s_ss
    members = sample_load_set(PM, 8, 200, seed=33, s_ss=s_ss)
    redrawn = []
    for i in range(200):
        gen = substream(33, LOAD_SET, i)
        for attempt in range(1000):
            r = sample_loads(PM, 8, gen)
            try:
                coupling_resolvent(s_ss, r)
                break
            except SingularityError:
                pass
        if attempt:
            redrawn.append(i)
        assert np.array_equal(members[i], r)
    assert redrawn


def test_search_reports_its_load_set_redraws():
    # the resonant optimize-x run of tools/artifact_digests.sh redraws members 6, 30 and 174
    system = flat_resonant_rank2_system()
    words = substream_uniforms(0, (LOAD_SET,), range(400), PM.uniforms_per_draw(8))
    first = loads_from_uniforms(PM, words)
    members = sample_load_set(PM, 8, 400, seed=0, s_ss=extract_blocks(system).s_ss)
    assert np.flatnonzero((first != members).any(axis=1)).tolist() == [6, 30, 174]
    config = OptimizationConfig(n_objective_samples=400, n_starts=1, max_iterations=5, seed=0)
    assert optimize_illumination(system, PM, config).load_set_redraws == 3
    certified = system_for(2, 2, 8, seed=3)
    assert rcond_floor(extract_blocks(certified).s_ss) >= RCOND_MIN
    assert optimize_illumination(certified, PM, config).load_set_redraws == 0


@pytest.mark.parametrize(
    "make_system, min_redraws",
    [(flat_resonant_rank2_system, 1), (lambda: system_for(3, 2, 8, seed=3), 0)],
    ids=["resonant-one-tx", "three-tx"],
)
def test_worker_count_does_not_change_the_search(monkeypatch, make_system, min_redraws):
    # 600 members fill precompute slices of 256, 256 and 88
    assert CHUNK == 256
    system = make_system()
    blocks = extract_blocks(system)
    config = OptimizationConfig(n_objective_samples=600, n_starts=5, max_iterations=40, seed=0)
    load_set = sample_load_set(PM, 8, 600, seed=0, s_ss=blocks.s_ss)
    runs, precomputes = [], []
    # frequent thread switches make a shared-state race between starts show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("BSDOF_THREADS", threads)
            objective = bsdof.optimize._FrozenObjective(blocks, load_set, PM)
            precomputes.append((objective.quadratic, objective.trace_form))
            runs.append(optimize_illumination(system, PM, config))
    finally:
        sys.setswitchinterval(interval)
    for quadratic, trace_form in precomputes[1:]:
        assert np.array_equal(quadratic, precomputes[0][0])
        assert np.array_equal(trace_form, precomputes[0][1])
    first = runs[0]
    assert first.load_set_redraws >= min_redraws
    assert len(first.per_start_trace) == 5
    for other in runs[1:]:
        assert other.best_x.tobytes() == first.best_x.tobytes()
        assert other.best_objective == first.best_objective
        assert other.per_start_trace == first.per_start_trace
        assert other.objective_evaluations == first.objective_evaluations
        assert other.load_set_redraws == first.load_set_redraws


def test_an_error_in_a_start_leaves_no_worker_running(monkeypatch):
    system = system_for(2, 2, 8, seed=3)
    # halving the matrix keeps it passive once its rx-bs block is zeroed
    matrix = 0.5 * system.matrix
    matrix[np.ix_(system.rx_ports, system.bs_ports)] = 0.0
    ports = (system.tx_ports, system.rx_ports, system.bs_ports)
    mute = ScatteringSystem(system.n_total, matrix, *ports)
    monkeypatch.setenv("BSDOF_THREADS", "2")
    config = OptimizationConfig(n_objective_samples=300, n_starts=4, seed=0)
    before = threading.active_count()
    with pytest.raises(DegenerateInputError):
        optimize_illumination(mute, PM, config)
    assert threading.active_count() == before


def test_auto_worker_count_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setenv("BSDOF_THREADS", "0")
    monkeypatch.setattr(bsdof.sampling.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(bsdof.sampling.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert bsdof.sampling._worker_count(100) == 2
    assert bsdof.sampling._worker_count(1) == 1
    monkeypatch.setattr(bsdof.sampling.os, "sched_getaffinity", lambda pid: set(range(12)))
    assert bsdof.sampling._worker_count(100) == 8
    # without an affinity mask the host's CPU count is used
    monkeypatch.delattr(bsdof.sampling.os, "sched_getaffinity")
    monkeypatch.setattr(bsdof.sampling.os, "cpu_count", lambda: 3)
    assert bsdof.sampling._worker_count(100) == 3
    # an explicit cap is kept as given, even above the CPU count
    monkeypatch.setenv("BSDOF_THREADS", "5")
    assert bsdof.sampling._worker_count(100) == 5


def test_certified_load_set_forms_no_resolvent(monkeypatch):
    def no_resolvent(s_ss, r):
        raise RuntimeError("resolvent called")

    monkeypatch.setattr(bsdof.optimize, "resolvent", no_resolvent)
    s_ss = blocks_for(2, 2, 8, seed=3).s_ss
    members = sample_load_set(PM, 8, 300, seed=34, s_ss=s_ss)
    words = substream_uniforms(34, (LOAD_SET,), range(300), PM.uniforms_per_draw(8))
    assert np.array_equal(members, loads_from_uniforms(PM, words))
    # an uncertified coupling still gates every member
    with pytest.raises(RuntimeError, match="resolvent called"):
        sample_load_set(PM, 8, 300, seed=34, s_ss=extract_blocks(flat_resonant_rank2_system()).s_ss)


def test_redraw_cap_is_shared_by_samples_and_load_sets(monkeypatch):
    system = flat_resonant_rank2_system()
    s_ss = extract_blocks(system).s_ss

    def first_singular(seed, prefix, n, n_words):
        # the lowest member whose first draw the resolvent's rcond rejects
        words = substream_uniforms(seed, prefix, range(n), n_words)
        rcond = resolvent(s_ss, loads_from_uniforms(PM, words[:, :8]))[1]
        return np.flatnonzero(rcond < RCOND_MIN)[0]

    sample = first_singular(0, (), 2000, 8 + 2)  # 8 load words, then 1 magnitude and 1 phase
    member = first_singular(33, (LOAD_SET,), 200, 8)
    monkeypatch.setattr(bsdof.sampling, "MAX_REDRAWS_PER_SAMPLE", 0)
    with pytest.raises(SingularityError, match=f"^sample {sample} still singular after 0 redraws"):
        sample_distribution(system, IlluminationPolicy.rand(), PM, 2000, seed=0)
    with pytest.raises(
        SingularityError, match=f"^load-set member {member} still singular after 0 redraws"
    ):
        sample_load_set(PM, 8, 200, seed=33, s_ss=s_ss)


def test_draw_loop_reads_consecutive_windows_of_each_stream(monkeypatch):
    # half of all draws are rejected, so some members take several redraws in a row
    monkeypatch.setattr(bsdof.sampling, "MAX_SINGULAR_FRACTION", 1.0)

    def evaluate(u):
        return u.copy(), u[:, 0] >= 0.5

    n, n_words = 600, 3
    values, redraws = bsdof.sampling._draw_members(5, (2,), n, n_words, evaluate, "member")
    expected, counts = np.empty((n, n_words)), []
    for i in range(n):
        gen = substream(5, 2, i)
        count = 0
        while (row := gen.random(n_words))[0] < 0.5:
            count += 1
        expected[i] = row
        counts.append(count)
    assert values.tobytes() == expected.tobytes()
    assert redraws == sum(counts) and max(counts) >= 4


def test_no_draw_builds_a_numpy_philox(tmp_path, monkeypatch):
    """The default FIXED illumination and every redraw read the owned stream words."""
    fixed, resonant = tmp_path / "fixed.json", tmp_path / "resonant.json"
    save_system(system_for(3, 2, 8, seed=2), fixed)
    save_system(flat_resonant_rank2_system(), resonant)
    pm = ["--system", str(resonant), "--constraint", "pm", "--seed", "0"]
    runs = {
        "fixed": ["bs-dist", "--system", str(fixed), "--policy", "fixed", "--n", "300"],
        "redraw": ["bs-dist", *pm, "--n", "2000"],
        "opt-redraw": ["optimize-x", *pm, "--starts", "2", "--objective-samples", "400",
                       "--final-n", "2000"],
    }

    def run_all(tag):
        for name, args in runs.items():
            assert main([*args, "--out-dir", str(tmp_path / tag / name)]) == 0

    run_all("numpy")

    def no_philox(*args, **kwargs):
        raise AssertionError("a numpy Philox was built")

    monkeypatch.setattr(np.random, "Philox", no_philox)
    run_all("owned")
    for name in runs:
        files = sorted(p.name for p in (tmp_path / "numpy" / name).iterdir())
        assert files == sorted(p.name for p in (tmp_path / "owned" / name).iterdir())
        for file in files:
            owned = (tmp_path / "owned" / name / file).read_bytes()
            assert owned == (tmp_path / "numpy" / name / file).read_bytes(), (name, file)
    assert json.loads((tmp_path / "owned/redraw/summary.json").read_text())["redraw_count"] > 0
    report = json.loads((tmp_path / "owned/opt-redraw/optimization.json").read_text())
    assert report["load_set_redraws"] > 0


def test_resonant_fixtures_are_uncertified():
    # the couplings of the redraw and rejection tests above and below
    flat, e = np.ones(8) / math.sqrt(8.0), np.eye(8)
    for system in (
        resonant_system(flat, (e[0] - e[1]) / math.sqrt(2.0)),
        resonant_system(e[0], e[1]),
        flat_resonant_rank2_system(),
    ):
        assert rcond_floor(extract_blocks(system).s_ss) < RCOND_MIN


def test_certified_model_mode_forms_no_inverse(monkeypatch):
    system = system_for(3, 4, 16, seed=44, eta=0.9)
    assert rcond_floor(extract_blocks(system).s_ss) >= RCOND_MIN
    policy = IlluminationPolicy.rand()
    reference = sample_distribution(system, policy, PIN, 300, seed=45)
    monkeypatch.setattr(ScatteringBlocks, "certified", False)
    gated_toggle = sample_distribution(system, policy, PIN, 300, seed=45, mode="toggle")
    monkeypatch.undo()

    def no_inverse(*args):
        raise AssertionError("the dense resolvent was formed")

    # network.resolvent forms every dense inverse of the package
    monkeypatch.setattr(bsdof.network.np.linalg, "inv", no_inverse)
    monkeypatch.setattr(bsdof.network, "resolvent", no_inverse)
    dist = sample_distribution(system, policy, PIN, 300, seed=45)
    assert np.array_equal(dist.samples, reference.samples)
    # certified toggle mode forms none either; the same system made uncertified still does
    toggle = sample_distribution(system, policy, PIN, 300, seed=45, mode="toggle")
    assert np.allclose(toggle.samples, gated_toggle.samples, rtol=1e-13, atol=0.0)
    monkeypatch.setattr(ScatteringBlocks, "certified", False)
    with pytest.raises(AssertionError, match="dense resolvent"):
        sample_distribution(system, policy, PIN, 300, seed=45, mode="toggle")


def test_certified_precompute_forms_no_inverse(monkeypatch):
    system = system_for(3, 4, 16, seed=44, eta=0.9)
    blocks = extract_blocks(system)
    assert rcond_floor(blocks.s_ss) >= RCOND_MIN
    load_set = sample_load_set(PIN, 16, 300, seed=47, s_ss=blocks.s_ss)
    reference = bsdof.optimize._FrozenObjective(blocks, load_set, PIN)
    resonant = extract_blocks(flat_resonant_rank2_system())
    resonant_set = sample_load_set(PM, 8, 300, seed=47, s_ss=resonant.s_ss)

    def no_inverse(*args):
        raise AssertionError("the dense resolvent was formed")

    monkeypatch.setattr(bsdof.network.np.linalg, "inv", no_inverse)
    objective = bsdof.optimize._FrozenObjective(blocks, load_set, PIN)
    assert np.array_equal(objective.quadratic, reference.quadratic)
    assert np.array_equal(objective.trace_form, reference.trace_form)
    # an uncertified coupling still forms G for its exact rcond
    with pytest.raises(AssertionError, match="dense resolvent"):
        bsdof.optimize._FrozenObjective(resonant, resonant_set, PM)


def test_uncertified_model_stack_survives_an_exactly_singular_member():
    gen = substream(46)
    blocks = ScatteringBlocks(
        s_rt=np.zeros((2, 1)),
        s_rs=0.3 * gen.standard_normal((2, 2)),
        s_ss=np.array([[0.0, 1.0], [1.0, 0.0]]),
        s_st=0.3 * gen.standard_normal((2, 1)),
    )
    r = np.array([[0.5, 0.5j], [1.0, 1.0], [-0.3, 0.2]], dtype=complex)
    x = np.ones((3, 1), dtype=complex)
    assert not blocks.certified
    values, ok = _chunk_m_values(blocks, r, x, "model", LoadConstraint.uni())
    assert ok.tolist() == [True, False, True]
    for i in (0, 2):
        assert values[i] == pytest.approx(bs_eemdof_point(blocks, r[i], x[i]).m, rel=1e-12)


@pytest.mark.parametrize("dims", [(1, 1, 2), (2, 2, 8), (3, 4, 16), (3, 4, 64)])
def test_certified_toggle_denominators_clear_the_passivity_bound(dims):
    # denom = 1 - delta_k (S_SS G)_kk is an eigenvalue of A^-1 A' for the toggled A', so
    # |denom| >= sigma_min(A') / sigma_max(A) >= (1 - rho eta) / (1 + rho eta), eta = ||S_SS||_2
    for seed in range(3):
        blocks = extract_blocks(system_for(*dims, seed=sum(dims) + seed, eta=0.95))
        assert blocks.certified
        rho_eta = (1.0 + LOAD_MAG_TOL) * spectral_norm(blocks.s_ss)
        bound = (1.0 - rho_eta) / (1.0 + rho_eta)
        for constraint in (PIN, PM):
            n_words = constraint.uniforms_per_draw(dims[2])
            r = loads_from_uniforms(constraint, substream_uniforms(seed, (), range(256), n_words))
            g = resolvent(blocks.s_ss, r)[0]
            on, off = constraint.on_value, constraint.off_value
            delta = np.where(r == on, off, on) - r
            denom = 1.0 - delta * np.einsum("kj,cjk->ck", blocks.s_ss, g)
            assert np.abs(denom).min() >= bound >= RCOND_MIN
            # and the ones the certified branch builds from diag(S_SS G) without G
            assert np.abs(toggle_factors(blocks, r, on, off)[2]).min() >= bound


def test_mostly_singular_environment_is_rejected():
    # spike coupling resonates whenever load 0 is ON: half of all draws
    u = np.zeros(8)
    u[0] = 1.0
    w = np.zeros(8)
    w[1] = 1.0
    system = resonant_system(u, w)
    with pytest.raises(SingularityError, match="singular"):
        sample_distribution(system, IlluminationPolicy.rand(), PM, 64, seed=0)


def dist_from_samples(samples, n_tilde, seed=0):
    return DofDistribution(samples=samples, n_tilde=n_tilde, seed=seed)


def test_distribution_summary_hand_values():
    """A distribution summarizes its samples by their mean and population std."""
    for samples, summary in (([2.0, 2.0, 2.0], (2.0, 0.0)), ([1.0, 3.0], (2.0, 1.0))):
        dist = dist_from_samples(np.array(samples), n_tilde=3)
        assert (dist.mean, dist.std) == summary and dist.n_samples == len(samples)
        assert type(dist.mean) is float and type(dist.std) is float


def test_distribution_summary_matches_a_two_pass_oracle():
    samples = 1.0 + 2.0 * substream(90).random(4000)
    dist = dist_from_samples(samples, n_tilde=3)
    oracle_mean = math.fsum(samples) / samples.size
    oracle_std = math.sqrt(math.fsum((s - oracle_mean) ** 2 for s in samples) / samples.size)
    assert abs(dist.mean - oracle_mean) < 1e-12
    assert abs(dist.std - oracle_std) < 1e-12


def test_histogram_concentrates_identical_samples():
    dist = dist_from_samples(np.full(500, 2.0), n_tilde=3)
    centers, densities = histogram(dist, n_bins=64)
    width = centers[1] - centers[0]
    assert np.count_nonzero(densities) == 1
    assert abs(float(densities.sum()) * width - 1.0) < 1e-9


def test_histogram_of_uniform_samples_is_flat():
    n = 3000
    samples = (np.arange(n) + 0.5) / n * 3.0 + 1.0
    dist = dist_from_samples(samples, n_tilde=4)
    centers, densities = histogram(dist, n_bins=3)
    assert np.allclose(centers, [1.5, 2.5, 3.5])
    assert np.allclose(densities, 1.0 / 3.0, rtol=0.0, atol=1e-9)


def test_histogram_widens_the_degenerate_range():
    dist = dist_from_samples(np.ones(100), n_tilde=1)
    centers, densities = histogram(dist, n_bins=4)
    width = centers[1] - centers[0]
    assert centers[0] > 0.5 and centers[-1] < 1.5
    assert abs(float(densities.sum()) * width - 1.0) < 1e-9


def test_histogram_counts_the_admitted_slack_in_its_end_bins():
    # DofDistribution admits samples 1e-9 outside [1, n_tilde]; rounding puts M = 1 there
    dist = dist_from_samples(np.array([1.0 - 1e-15, 1.5, 2.0 + 1e-12]), n_tilde=2)
    centers, densities = histogram(dist, n_bins=4)
    width = centers[1] - centers[0]
    assert abs(float(densities.sum()) * width - 1.0) < 1e-12
    assert np.allclose(densities * width * 3, [1.0, 0.0, 1.0, 1.0], rtol=0.0, atol=1e-12)


def test_histogram_rejects_empty_binning():
    dist = dist_from_samples(np.ones(4), n_tilde=2)
    with pytest.raises(ValueError):
        histogram(dist, n_bins=0)


def test_policy_validation():
    with pytest.raises(ValueError):
        IlluminationPolicy("FIXED")
    with pytest.raises(ValueError):
        IlluminationPolicy("RAND", fixed_x=np.ones(2))
    with pytest.raises(ValueError):
        IlluminationPolicy("ARBITRARY")
    with pytest.raises(ValueError, match=r"must be 1-d, got shape \(1, 2\)"):
        IlluminationPolicy.fixed(np.ones((1, 2)) / math.sqrt(2.0))
    with pytest.raises(ValueError):
        sample_distribution(
            system_for(2, 2, 4, seed=0),
            IlluminationPolicy.fixed(np.ones(3) / math.sqrt(3.0)),
            PIN,
            8,
            seed=0,
        )


def test_sample_count_and_mode_validation():
    system = system_for(2, 2, 4, seed=0)
    with pytest.raises(ValueError):
        sample_distribution(system, IlluminationPolicy.rand(), PIN, 0, seed=0)
    with pytest.raises(ValueError):
        sample_distribution(system, IlluminationPolicy.rand(), PIN, 8, seed=0, mode="exact")
