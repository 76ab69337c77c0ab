"""Illumination optimizer tests: embedding, frozen objective, gradient, multistart."""

import numpy as np
import pytest

import bsdof.network
import bsdof.optimize
import bsdof.sampling
from bsdof.errors import (
    DegenerateInputError,
    InconsistentStateError,
    OptimizationFailedError,
    SingularityError,
)
from bsdof.loads import LoadConstraint
from bsdof.metrics import bs_eemdof_point, participation_from_jacobians
from bsdof.network import (
    RCOND_MIN,
    ScatteringBlocks,
    coupling_resolvent,
    extract_blocks,
    factors,
    incident_drive,
    jacobian_factors,
    load_jacobian,
    rcond_floor,
)
from bsdof.optimize import (
    OptimizationConfig,
    _FrozenObjective,
    _lift,
    embed,
    mean_dof_objective,
    optimize_illumination,
    project,
    sample_load_set,
)
from bsdof.sampling import sample_random_illumination
from bsdof.streams import substream

from synthetic import blocks_for, system_for

UNI = LoadConstraint.uni()
PIN = LoadConstraint.pin()
PM = LoadConstraint.pm()


def test_embedding_round_trip():
    x = sample_random_illumination(3, substream(80))
    assert np.allclose(project(embed(x)), x, rtol=0.0, atol=1e-12)
    # projection quotients out positive scale
    assert np.allclose(project(2.0 * embed(x)), x, rtol=0.0, atol=1e-12)
    v = substream(81).standard_normal(10)
    assert abs(np.linalg.norm(project(v)) - 1.0) < 1e-12


def test_projection_rejects_degenerate_input():
    with pytest.raises(DegenerateInputError):
        project(np.zeros(6))
    with pytest.raises(DegenerateInputError, match="nan"):
        project(np.array([np.nan, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        project(np.ones(5))


def test_objective_single_member_matches_point_metric():
    system = system_for(2, 2, 8, seed=20)
    blocks = extract_blocks(system)
    load_set = sample_load_set(PIN, 8, 1, seed=21, s_ss=blocks.s_ss)
    x = sample_random_illumination(2, substream(22))
    mean_value = mean_dof_objective(blocks, x, PIN, load_set)
    point_value = bs_eemdof_point(blocks, load_set[0], x).m
    assert abs(mean_value - point_value) < 1e-12


def test_objective_is_the_average_of_point_metrics():
    system = system_for(2, 2, 16, seed=23)
    blocks = extract_blocks(system)
    load_set = sample_load_set(PIN, 16, 1500, seed=24, s_ss=blocks.s_ss)
    x = sample_random_illumination(2, substream(25))
    mean_value = mean_dof_objective(blocks, x, PIN, load_set)
    oracle = np.mean([bs_eemdof_point(blocks, r, x).m for r in load_set])
    assert abs(mean_value - oracle) < 1e-12


@pytest.mark.parametrize("n_r, n_s", [(1, 5), (4, 3), (4, 16), (2, 9)])
def test_basis_objective_equals_the_jacobian_form(n_r, n_s):
    blocks = blocks_for(3, n_r, n_s, seed=n_s)
    load_set = sample_load_set(UNI, n_s, 200, seed=n_s + 1, s_ss=blocks.s_ss)
    x = sample_random_illumination(3, substream(n_s + 2))
    rx, w = jacobian_factors(blocks, coupling_resolvent(blocks.s_ss, load_set), load_set)
    reference = participation_from_jacobians(load_jacobian(rx, w, x)).mean()
    value = _FrozenObjective(blocks, load_set, UNI)(x)
    assert abs(value - reference) <= 1e-13 * reference


def flat_resonant_blocks(seed, n_t=1):
    """Two receive ports behind a rank-1 coupling that resonates when every PM load is ON."""
    u = np.ones(8) / np.sqrt(8.0)
    gen = substream(seed)
    return ScatteringBlocks(
        s_rt=np.zeros((2, n_t)),
        s_rs=0.1 * gen.standard_normal((2, 8)),
        s_ss=(1.0 - 1e-13) * np.outer(u, u.conj()),
        s_st=0.1 * gen.standard_normal((8, n_t)),
    )


def jacobian_reference(blocks, load_set, x):
    """Mean M and its gradient dM/d conj(x) from each member's J and C = J J^H."""
    rx, w, ok = factors(blocks, load_set)
    assert ok.all()
    jac = load_jacobian(rx, w, x)
    gram = jac @ jac.conj().swapaxes(-1, -2)
    trace = np.trace(gram, axis1=-2, axis2=-1).real[:, None]
    ratio = trace / (np.abs(gram) ** 2).sum(axis=(-2, -1))[:, None]
    # d tr C / d conj(a_s) = ||R_s||^2 a_s and d ||C||_F^2 / d conj(a_s) = 2 Re(R_s^H C R_s) a_s
    power = (np.abs(rx) ** 2).sum(axis=-2)
    q = np.einsum("mis,mij,mjs->ms", rx.conj(), gram, rx).real
    dm_da = 2.0 * ratio * (power - ratio * q) * incident_drive(w, x)
    grad = np.einsum("mst,ms->t", w.conj(), dm_da) / len(load_set)
    return participation_from_jacobians(jac).mean(), grad


@pytest.mark.parametrize(
    "dims, constraint",
    [((3, 4, 16), UNI), ((1, 2, 8), UNI), ((4, 2, 8), PIN), ((6, 6, 32), PIN), (None, PM)],
    ids=["3-4-16-uni", "1-2-8-uni", "4-2-8-pin", "6-6-32-pin", "resonant-pm"],
)
def test_lifted_objective_matches_the_jacobian_reference(dims, constraint):
    if dims is None:
        blocks = flat_resonant_blocks(48, n_t=2)
        assert rcond_floor(blocks.s_ss) < RCOND_MIN
    else:
        blocks = extract_blocks(system_for(*dims, seed=sum(dims)))
    n_s = blocks.n_bs
    load_set = sample_load_set(constraint, n_s, 300, seed=n_s, s_ss=blocks.s_ss)
    x = 1.7 * sample_random_illumination(blocks.n_tx, substream(n_s + 1))
    value, grad = _FrozenObjective(blocks, load_set, constraint).value_and_gradient(x)
    reference, reference_grad = jacobian_reference(blocks, load_set, x)
    assert abs(value - reference) <= 1e-13 * reference
    # M has degree 0 in x, so its gradient scales as M / |x| (and is 0 for one tx port)
    scale = reference / np.linalg.norm(x)
    assert np.linalg.norm(grad - reference_grad) <= 1e-12 * scale


def test_two_state_load_sets_take_the_two_state_factors(monkeypatch):
    blocks = blocks_for(3, 4, 16, seed=49)
    assert blocks.certified
    x = sample_random_illumination(3, substream(50))
    load_sets = [sample_load_set(c, 16, 300, seed=51, s_ss=blocks.s_ss) for c in (PIN, PM, UNI)]
    references = [jacobian_reference(blocks, load_set, x)[0] for load_set in load_sets]

    def no_factors(*args):
        raise AssertionError("network.factors was called")

    # the sampler's factor choice is the optimizer's: certified two-state sets never reach factors
    monkeypatch.setattr(bsdof.sampling, "factors", no_factors)
    monkeypatch.setattr(bsdof.optimize, "factors", no_factors, raising=False)
    for constraint, load_set, reference in zip((PIN, PM), load_sets, references):
        value = mean_dof_objective(blocks, x, constraint, load_set)
        assert abs(value - reference) <= 1e-13 * reference
    with pytest.raises(AssertionError, match="network.factors was called"):
        mean_dof_objective(blocks, x, UNI, load_sets[2])
    # the constraint now checks its load set: a load off the two states is named
    stray = load_sets[0].copy()
    stray[7, 3] = 0.5
    with pytest.raises(InconsistentStateError, match=r"load \(7, 3\)"):
        mean_dof_objective(blocks, x, PIN, stray)


def test_starts_are_the_per_start_substream_illuminations(monkeypatch):
    seen = []

    def record(fun, x0, max_iterations, f_tolerance):
        seen.append(x0)
        return x0, 0.0, 0, 0

    monkeypatch.setattr(bsdof.optimize, "_bfgs", record)
    monkeypatch.setenv("BSDOF_THREADS", "1")
    for n_t in range(1, 7):
        system = system_for(n_t, 2, 4, seed=n_t)
        for seed in (0, 11, 12345, 2**33 + 7):
            seen.clear()
            config = OptimizationConfig(n_objective_samples=4, n_starts=20, seed=seed)
            optimize_illumination(system, UNI, config)
            expected = [
                embed(sample_random_illumination(n_t, substream(seed, 1, start)))
                for start in range(20)
            ]
            assert [x0.tobytes() for x0 in seen] == [x0.tobytes() for x0 in expected]


def rayleigh_quotient(a):
    """Negated x^H A x / x^H x on the real embedding, and its gradient there."""

    def fun(v):
        x = v[: len(a)] + 1j * v[len(a) :]
        norm2 = np.vdot(x, x).real
        q = np.vdot(x, a @ x).real / norm2
        return -q, -2.0 * embed((a @ x - q * x) / norm2)

    return fun


def hermitian(n, seed):
    z = substream(seed).standard_normal((2, n, n))
    return (z[0] + 1j * z[1] + (z[0] + 1j * z[1]).conj().T) / 2.0


@pytest.mark.parametrize("n, seed", [(2, 60), (4, 61), (6, 62), (8, 65)])
def test_bfgs_finds_the_top_eigenvalue_of_a_rayleigh_quotient(n, seed):
    a = hermitian(n, seed)
    x0 = embed(sample_random_illumination(n, substream(seed + 100)))
    x, f, nit, nfev = bsdof.optimize._bfgs(rayleigh_quotient(a), x0, 200, 1e-12)
    top = np.linalg.eigvalsh(a)[-1]
    assert abs(-f - top) <= 1e-10 * abs(top)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-14
    assert 1 <= nit <= 200 and nfev > nit
    capped = bsdof.optimize._bfgs(rayleigh_quotient(a), x0, 2, 1e-8)
    assert capped[2] == 2


def test_a_looser_f_tolerance_takes_no_more_evaluations():
    a, x0 = hermitian(5, 63), embed(sample_random_illumination(5, substream(64)))
    loose = bsdof.optimize._bfgs(rayleigh_quotient(a), x0, 200, 1e-2)
    tight = bsdof.optimize._bfgs(rayleigh_quotient(a), x0, 200, 1e-8)
    assert loose[3] <= tight[3]
    assert tight[1] <= loose[1]


def test_objective_rejects_a_zero_jacobian():
    blocks = blocks_for(2, 2, 4, seed=29)
    blocks.s_rs = np.zeros_like(blocks.s_rs)
    load_set = sample_load_set(PIN, 4, 8, seed=30, s_ss=blocks.s_ss)
    with pytest.raises(DegenerateInputError):
        mean_dof_objective(blocks, np.array([1.0, 0.0]), PIN, load_set)


def test_objective_ignores_global_phase():
    system = system_for(3, 2, 8, seed=26)
    blocks = extract_blocks(system)
    load_set = sample_load_set(UNI, 8, 64, seed=27, s_ss=blocks.s_ss)
    x = sample_random_illumination(3, substream(28))
    base = mean_dof_objective(blocks, x, UNI, load_set)
    rotated = mean_dof_objective(blocks, x * np.exp(0.7j), UNI, load_set)
    assert abs(base - rotated) < 1e-10


def test_objective_rejects_active_loads():
    system = system_for(2, 2, 4, seed=29)
    load_set = np.full((3, 4), 1.2 + 0.0j)
    x = sample_random_illumination(2, substream(30))
    with pytest.raises(ValueError):
        mean_dof_objective(extract_blocks(system), x, PIN, load_set)


@pytest.mark.parametrize(
    "x, error",
    [
        (np.zeros(3), DegenerateInputError),
        (np.array([1e-200, 0.0, 0.0]), DegenerateInputError),
        (np.array([np.nan, 1.0, 0.0]), DegenerateInputError),
        (np.array([1.0, 0.0]), ValueError),
    ],
    ids=["zero", "underflow", "nan", "short"],
)
def test_objective_rejects_a_degenerate_illumination(x, error):
    blocks = blocks_for(3, 2, 4, seed=29)
    load_set = sample_load_set(PIN, 4, 8, seed=30, s_ss=blocks.s_ss)
    with pytest.raises(error):
        mean_dof_objective(blocks, x, PIN, load_set)


def test_load_set_is_deterministic_per_member():
    uncoupled = np.zeros((8, 8))
    first = sample_load_set(PIN, 8, 40, seed=31, s_ss=uncoupled)
    again = sample_load_set(PIN, 8, 40, seed=31, s_ss=uncoupled)
    assert np.array_equal(first, again)
    # member streams are keyed by index, so a shorter set is a prefix
    prefix = sample_load_set(PIN, 8, 10, seed=31, s_ss=uncoupled)
    assert np.array_equal(first[:10], prefix)
    assert not np.array_equal(first, sample_load_set(PIN, 8, 40, seed=32, s_ss=uncoupled))


@pytest.mark.parametrize("n_members", [0, -3])
def test_load_set_rejects_a_member_count_below_one(n_members):
    with pytest.raises(ValueError, match="load-set member count must be at least 1"):
        sample_load_set(PIN, 8, n_members, seed=31, s_ss=np.zeros((8, 8)))


def test_load_set_rejects_a_load_count_that_disagrees_with_the_coupling():
    # the certified gate never reads s_ss, so the mismatch must be caught up front
    with pytest.raises(ValueError, match="n_s = 5 does not match the 4 loads"):
        sample_load_set(UNI, 5, 3, seed=0, s_ss=np.zeros((4, 4)))


def test_objective_rejects_an_empty_load_set():
    blocks = blocks_for(3, 2, 4, seed=29)
    with pytest.raises(ValueError, match="load set is empty"):
        mean_dof_objective(blocks, np.ones(3), UNI, np.empty((0, 4)))


def test_load_set_redraws_members_that_resonate():
    # rank-1 coupling along the flat vector: all-ON is the one singular state
    u = np.ones(8) / np.sqrt(8.0)
    s_ss = (1.0 - 1e-13) * np.outer(u, u.conj())
    members = sample_load_set(LoadConstraint.pm(), 8, 200, seed=33, s_ss=s_ss)
    assert not np.any(np.all(members == 1.0 + 0.0j, axis=1))
    # an uncoupled set never redraws, so it keeps the first draws
    unguarded = sample_load_set(LoadConstraint.pm(), 8, 200, seed=33, s_ss=np.zeros((8, 8)))
    assert np.any(np.all(unguarded == 1.0 + 0.0j, axis=1))


def test_mostly_singular_load_set_is_rejected():
    # spike coupling resonates whenever load 0 is ON: half of all draws
    e0 = np.eye(8)[0]
    s_ss = (1.0 - 1e-13) * np.outer(e0, e0)
    with pytest.raises(SingularityError, match="pathological"):
        sample_load_set(LoadConstraint.pm(), 8, 200, seed=33, s_ss=s_ss)


def test_objective_rejects_a_singular_member():
    # the all-ON member of the flat resonant coupling has rcond near 6e-14
    blocks = flat_resonant_blocks(38)
    load_set = sample_load_set(LoadConstraint.pm(), 8, 4, seed=39, s_ss=blocks.s_ss)
    x = np.array([1.0 + 0.0j])
    assert np.isfinite(mean_dof_objective(blocks, x, LoadConstraint.pm(), load_set))
    load_set[2] = 1.0
    with pytest.raises(SingularityError, match="member 2"):
        mean_dof_objective(blocks, x, LoadConstraint.pm(), load_set)


def test_flat_resonant_coupling_is_uncertified():
    u = np.ones(8) / np.sqrt(8.0)
    assert rcond_floor((1.0 - 1e-13) * np.outer(u, u.conj())) < RCOND_MIN


@pytest.mark.parametrize(
    "dims, constraint, seed",
    [((3, 4, 16), UNI, 0), ((2, 2, 8), PIN, 44), ((4, 3, 12), UNI, 45), ((3, 2, 6), PIN, 46)],
)
def test_gradient_matches_central_differences(dims, constraint, seed):
    n_t, n_r, n_s = dims
    blocks = blocks_for(n_t, n_r, n_s, seed=seed)
    load_set = sample_load_set(constraint, n_s, 500, seed=seed + 1, s_ss=blocks.s_ss)
    objective = _FrozenObjective(blocks, load_set, constraint)
    # a raw iterate off the unit sphere: M has degree 0 in x
    x = 2.5 * sample_random_illumination(n_t, substream(seed + 2))
    value, grad = objective.value_and_gradient(x)
    real_grad = 2.0 * embed(grad)

    def at(v):
        return objective(v[:n_t] + 1j * v[n_t:])

    v, h = embed(x), 1e-6
    central = np.array([(at(v + step) - at(v - step)) / (2 * h) for step in h * np.eye(v.size)])
    assert np.linalg.norm(real_grad - central) <= 1e-6 * np.linalg.norm(central)
    radial = abs(real_grad @ v) / (np.linalg.norm(real_grad) * np.linalg.norm(v))
    assert radial < 1e-12

    unit = x / np.linalg.norm(x)
    assert objective.value_and_gradient(unit)[0] == mean_dof_objective(
        blocks, x, constraint, load_set
    )
    assert abs(value - objective(unit)) < 1e-12


def test_single_input_problem_is_flat():
    """With one tx port the sphere is a phase circle and the objective is
    constant on it, so the optimizer must return the plain frozen mean."""
    system = system_for(1, 2, 8, seed=34)
    blocks = extract_blocks(system)
    config = OptimizationConfig(
        direction="MAX", n_objective_samples=300, n_starts=2, max_iterations=200, seed=35
    )
    result = optimize_illumination(system, UNI, config)
    load_set = sample_load_set(UNI, 8, 300, seed=35, s_ss=blocks.s_ss)
    flat_value = mean_dof_objective(blocks, np.array([1.0 + 0.0j]), UNI, load_set)
    assert abs(result.best_objective - flat_value) < 1e-9


def test_multistart_brackets_and_reproduces():
    system = system_for(2, 2, 8, seed=36)
    blocks = extract_blocks(system)
    common = dict(n_objective_samples=200, n_starts=2, max_iterations=400, seed=37)
    top = optimize_illumination(system, UNI, OptimizationConfig(direction="MAX", **common))
    bottom = optimize_illumination(system, UNI, OptimizationConfig(direction="MIN", **common))
    assert top.best_objective >= bottom.best_objective
    assert len(top.per_start_trace) == 2
    assert top.objective_evaluations > 0
    for start, final, n_iter in top.per_start_trace:
        assert start in (0, 1)
        assert np.isfinite(final)
        assert n_iter >= 1

    again = optimize_illumination(system, UNI, OptimizationConfig(direction="MAX", **common))
    assert np.array_equal(top.best_x, again.best_x)
    assert top.best_objective == again.best_objective

    load_set = sample_load_set(UNI, 8, 200, seed=37, s_ss=blocks.s_ss)
    replay = mean_dof_objective(blocks, top.best_x, UNI, load_set)
    assert abs(replay - top.best_objective) < 1e-12


@pytest.mark.parametrize("max_iterations", [400, 3], ids=["converged", "capped"])
def test_evaluation_count_is_every_objective_call(monkeypatch, max_iterations):
    calls = []
    original = _FrozenObjective.value_and_gradient

    def counted(self, x):
        calls.append(1)
        return original(self, x)

    monkeypatch.setattr(_FrozenObjective, "value_and_gradient", counted)
    config = OptimizationConfig(
        n_objective_samples=50, n_starts=3, max_iterations=max_iterations, seed=40
    )
    result = optimize_illumination(system_for(2, 2, 8, seed=41), UNI, config)
    assert result.objective_evaluations == len(calls)
    capped = [n_iter == max_iterations for _, _, n_iter in result.per_start_trace]
    assert all(capped) == (max_iterations == 3)


def test_search_fails_when_no_start_is_finite(monkeypatch):
    monkeypatch.setattr(
        _FrozenObjective, "value_and_gradient", lambda self, x: (np.nan, np.zeros_like(x))
    )
    config = OptimizationConfig(n_objective_samples=20, n_starts=2, max_iterations=20, seed=42)
    with pytest.raises(OptimizationFailedError) as failure:
        optimize_illumination(system_for(2, 2, 4, seed=43), UNI, config)
    assert [start for start, _, _ in failure.value.traces] == [0, 1]
    assert all(np.isnan(final) for _, final, _ in failure.value.traces)


def test_search_reads_the_certificate_of_its_blocks(monkeypatch):
    """The load set's gate and the precompute's solves share blocks.certified: one S_SS SVD
    per search, and the load set is sample_load_set's."""
    system = system_for(2, 2, 8, seed=45)
    expected = sample_load_set(PIN, 8, 50, 44, extract_blocks(system).s_ss)
    calls, load_sets = [], []
    counted = lambda s_ss: calls.append(s_ss.shape) or rcond_floor(s_ss)
    monkeypatch.setattr(bsdof.network, "rcond_floor", counted)
    monkeypatch.setattr(bsdof.optimize, "rcond_floor", counted)
    gated = bsdof.optimize._gated_load_set

    def kept(*args):
        load_set, redraws = gated(*args)
        load_sets.append(load_set)
        return load_set, redraws

    monkeypatch.setattr(bsdof.optimize, "_gated_load_set", kept)
    config = OptimizationConfig(n_objective_samples=50, n_starts=2, max_iterations=5, seed=44)
    optimize_illumination(system, PIN, config)
    assert calls == [(8, 8)]
    assert len(load_sets) == 1 and np.array_equal(load_sets[0], expected)


# Best objectives of the multistart Nelder-Mead search that this gradient
# search replaced (3 starts, xatol 1e-6, fatol 1e-8, at most 2,000
# iterations), on the criterion-7 environments 0-4 with UNI loads, 1,500
# objective samples and optimizer seed 11.
NELDER_MEAD_OPTIMA = {
    "MAX": (
        2.9146811609072163, 3.11029401105957, 3.5196587842430818,
        3.0891653063292144, 3.213780326151106,
    ),
    "MIN": (
        2.1752765963425325, 1.9626288683488498, 2.699246462879945,
        1.8874873163359356, 2.254977482519667,
    ),
}


@pytest.mark.parametrize("env_seed", range(5))
@pytest.mark.parametrize("direction", ["MAX", "MIN"])
def test_defaults_match_or_beat_the_recorded_nelder_mead_optima(direction, env_seed):
    config = OptimizationConfig(direction=direction, n_objective_samples=1500, seed=11)
    best = optimize_illumination(system_for(3, 4, 16, seed=env_seed), UNI, config).best_objective
    recorded = NELDER_MEAD_OPTIMA[direction][env_seed]
    if direction == "MAX":
        assert best >= recorded * (1.0 - 1e-9)
    else:
        assert best <= recorded * (1.0 + 1e-9)


def bloch_grid(k):
    """k unit illuminations (cos(theta/2), e^{i phi} sin(theta/2)) on a Fibonacci sphere."""
    z = 1.0 - (2.0 * np.arange(k) + 1.0) / k  # cos(theta), equal-area bands
    phi = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(k)  # the golden angle
    return np.stack([np.sqrt((1.0 + z) / 2.0), np.exp(1j * phi) * np.sqrt((1.0 - z) / 2.0)], -1)


@pytest.mark.parametrize("env_seed, constraint", [(100, UNI), (101, PIN)], ids=["uni", "pin"])
def test_search_brackets_an_exhaustive_grid_at_two_inputs(env_seed, constraint):
    # at n_t = 2 a unit illumination up to phase is a point on the Bloch sphere
    system = system_for(2, 4, 16, seed=env_seed)
    found = {
        d: optimize_illumination(system, constraint, OptimizationConfig(direction=d, seed=11))
        for d in ("MAX", "MIN")
    }
    blocks = extract_blocks(system)
    load_set = sample_load_set(constraint, 16, 1500, 11, blocks.s_ss)
    objective = _FrozenObjective(blocks, load_set, constraint)
    # M = tau^2 / phi per member, phi = xi^T Q xi written as one product with vec(xi xi^T)
    quadratic = objective.quadratic.reshape(len(objective.quadratic), -1).T
    grid = []
    for x in np.array_split(bloch_grid(5000), 10):
        xi = _lift(x, objective.pairs)
        phi = (xi[:, :, None] * xi[:, None, :]).reshape(len(xi), -1) @ quadratic
        grid.append(((xi @ objective.trace_form.T) ** 2 / phi).mean(axis=1))
    grid = np.concatenate(grid)
    assert found["MAX"].best_objective >= grid.max()
    assert found["MIN"].best_objective <= grid.min()


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizationConfig(direction="UP")
    with pytest.raises(ValueError):
        OptimizationConfig(n_starts=0)
    with pytest.raises(ValueError):
        OptimizationConfig(f_tolerance=0.0)
    with pytest.raises(ValueError):
        OptimizationConfig(f_tolerance=float("nan"))
    with pytest.raises(ValueError):
        OptimizationConfig(seed=-1)
