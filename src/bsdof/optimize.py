"""Gradient search for illuminations that shape the mean DOF metric.

The objective is the mean participation number over a frozen set of load
realizations (common random numbers), so every candidate illumination sees
the same Monte-Carlo noise and the landscape is deterministic.  Members of the
load set whose coupling resolvent is singular are redrawn before the search
starts; on a system whose passivity certificate (network.rcond_floor)
reaches RCOND_MIN no member can be singular, and the gate is skipped.

The search runs L-BFGS-B in the real embedding R^{2 n_t} on the raw
iterate.  M has degree 0 in x (it ignores the global phase and scale of the
illumination), so the iterate needs no projection and only the winner is
projected onto the unit sphere.  The exact gradient comes from the
load-power form.  Per member, with R = S_RS G, a = W x, p = |a|^2,
w_s = ||R_s||^2 and C = R diag(p) R^H = J J^H:

    tau = tr C = w.p,  phi = ||C||_F^2,  M = tau^2 / phi,
    dM/dp_s = 2 tau w_s / phi - 2 tau^2 q_s / phi^2,  q_s = Re(R_s^H C R_s).

C is linear in p, so each member precomputes once the real matrix V
(n_r^2 x n_s) that writes C in an orthonormal basis of Hermitian
n_r x n_r matrices: the rows |R_is|^2 give the diagonal, and for each
i < j the rows sqrt(2) Re(R_is conj(R_js)) and sqrt(2) Im(R_is conj(R_js))
the off-diagonal entries.  Then c = V p holds C, phi = c.c and q = V^T c,
so an evaluation never forms J or C.

By CR (Wirtinger) calculus (Kreutz-Delgado, arXiv:0906.4835) the gradient
is g = dM/d conj(x) = W^H (dM/dp * a), averaged over the members, and in
the real embedding it is 2 [Re g; Im g].

Maximization and minimization share one code path: MAX minimizes the
negated objective.  The search keeps no bookkeeping of its own: per-start
traces, the winner and the objective-evaluation count are read from the
OptimizeResult that scipy returns for each start.

The precompute (fixed slices of sampling.CHUNK members) and the starts run
on the sampler's worker pool.  Starts are kept in start order, so no result
depends on BSDOF_THREADS or on which start finishes first; scipy's L-BFGS-B
keeps its state per call, and value_and_gradient writes no instance state.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, OptimizationFailedError, SingularityError
from .loads import LoadConstraint, loads_from_uniforms
from .network import (
    RCOND_MIN,
    ScatteringBlocks,
    ScatteringSystem,
    extract_blocks,
    factors,
    incident_drive,
    rcond_floor,
    resolvent,
)
from .sampling import CHUNK, _pool_map, redraw_singular, sample_random_illumination
from .streams import substream, substream_uniforms

# Substream key namespaces under the optimization seed.
_LOADSET_KEY = 0
_START_KEY = 1

# Raw iterates shorter than this cannot be projected onto the sphere.
DEGENERATE_NORM = 1e-30

_DIRECTIONS = ("MAX", "MIN")


@dataclass(frozen=True)
class OptimizationConfig:
    direction: str = "MAX"
    n_objective_samples: int = 1500
    n_starts: int = 8
    max_iterations: int = 2000
    f_tolerance: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be MAX or MIN, got {self.direction!r}")
        if self.n_objective_samples < 1 or self.n_starts < 1 or self.max_iterations < 1:
            raise ValueError("sample, start and iteration counts must be positive")
        if not self.f_tolerance > 0:
            raise ValueError("f_tolerance must be positive")
        if int(self.seed) < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class OptimizationResult:
    best_x: np.ndarray
    best_objective: float
    per_start_trace: list = field(default_factory=list)
    objective_evaluations: int = 0
    load_set_redraws: int = 0


def embed(x: np.ndarray) -> np.ndarray:
    """Complex illumination -> stacked real vector [Re(x); Im(x)]."""
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    return np.concatenate([x.real, x.imag])


def project(v: np.ndarray) -> np.ndarray:
    """Real vector -> unit-norm complex illumination.

    Raises DegenerateInputError below the projectable-norm floor.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.size % 2 != 0:
        raise ValueError(f"embedded vector length {v.size} is odd")
    half = v.size // 2
    x = v[:half] + 1j * v[half:]
    norm = np.linalg.norm(x)
    if norm < DEGENERATE_NORM:
        raise DegenerateInputError(f"cannot project vector of norm {norm!r} onto the sphere")
    return x / norm


def sample_load_set(
    constraint: LoadConstraint, n_s: int, n_members: int, seed: int, s_ss: np.ndarray
) -> np.ndarray:
    """Frozen stack of load realizations, one substream per member.

    Members whose coupling resolvent against s_ss is singular are redrawn
    from their own stream at construction time, under the sampler's redraw
    policy (sampling.redraw_singular), so downstream evaluation never trips
    on them and a pathological coupling fails before any search.  When
    rcond_floor(s_ss) reaches RCOND_MIN no member can be singular, and no
    resolvent is formed.
    """
    return _gated_load_set(constraint, n_s, n_members, seed, s_ss)[0]


def _gated_load_set(
    constraint: LoadConstraint, n_s: int, n_members: int, seed: int, s_ss: np.ndarray
) -> tuple[np.ndarray, int]:
    """sample_load_set's members and the number of redraws they took."""
    n_words = constraint.uniforms_per_draw(int(n_s))
    certified = rcond_floor(s_ss) >= RCOND_MIN

    def evaluate(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = loads_from_uniforms(constraint, u)
        if certified:
            return r, np.ones(len(r), dtype=bool)
        return r, resolvent(s_ss, r)[1] >= RCOND_MIN

    members, ok = evaluate(
        substream_uniforms(seed, (_LOADSET_KEY,), range(int(n_members)), n_words)
    )
    singular = np.flatnonzero(~ok)
    key = (seed, _LOADSET_KEY)
    return members, redraw_singular(members, singular, key, n_words, evaluate, "load-set member")


class _FrozenObjective:
    """Mean participation number over a fixed load set, batch-evaluated.

    Per member the Hermitian basis V of C = R diag(p) R^H, the column powers
    w_s = ||R_s||^2 and the drive factor W are precomputed once from
    network.factors, over fixed slices of sampling.CHUNK members on the
    worker pool, and R = S_RS G is freed.  Each evaluation reduces the load
    powers p = |W x|^2 through V and pulls the gradient back through p.
    """

    def __init__(self, blocks, load_set: np.ndarray):
        r = np.asarray(load_set, dtype=complex)
        n_r = blocks.n_rx
        certified = rcond_floor(blocks.s_ss) >= RCOND_MIN
        self.incident = np.empty(r.shape + (blocks.n_tx,), dtype=complex)
        self.basis = np.empty((len(r), n_r * n_r, r.shape[-1]))
        self.rx_power = np.empty(r.shape)
        i, j = np.triu_indices(n_r, 1)

        def fill(start: int) -> None:
            # fixed slices: batched solves and matmuls give each member the same bits at any length
            s = slice(start, start + CHUNK)
            rx, self.incident[s], ok = factors(blocks, r[s], certified)
            if not ok.all():
                raise SingularityError(f"load-set member {start + np.argmin(ok)} is singular")
            cross = np.sqrt(2.0) * rx[..., i, :] * rx[..., j, :].conj()
            diagonal = rx.real**2 + rx.imag**2
            self.basis[s] = np.concatenate([diagonal, cross.real, cross.imag], axis=-2)
            self.rx_power[s] = diagonal.sum(axis=-2)

        _pool_map(fill, range(0, len(r), CHUNK))

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean M at a nonzero x of any scale, and its gradient dM/d conj(x)."""
        drive = incident_drive(self.incident, x)
        power = drive.real**2 + drive.imag**2
        trace = (self.rx_power * power).sum(axis=-1)
        if not trace.all():
            raise DegenerateInputError("zero Jacobian; participation undefined")
        c = (self.basis @ power[..., None])[..., 0]
        fro2 = (c * c).sum(axis=-1)
        q = (c[..., None, :] @ self.basis)[..., 0, :]
        ratio = (trace / fro2)[:, None]
        dm_dp = 2.0 * ratio * (self.rx_power - ratio * q)
        # W^H (dm_dp * a), summed over the members, as the conjugate of (dm_dp * a)^H W
        grad = np.tensordot(dm_dp * drive.conj(), self.incident, axes=2).conj() / len(drive)
        return float(np.mean(trace * trace / fro2)), grad

    def __call__(self, x: np.ndarray) -> float:
        return self.value_and_gradient(x)[0]


def mean_dof_objective(
    blocks: ScatteringBlocks, x: np.ndarray, constraint: LoadConstraint, load_set: np.ndarray
) -> float:
    """Mean DOF metric of illumination x over an explicit frozen load set.

    Raises SingularityError naming the first member whose coupling resolvent is singular.
    """
    x = np.asarray(x, dtype=complex)
    return _FrozenObjective(blocks, load_set)(x / np.linalg.norm(x))


def optimize_illumination(
    system: ScatteringSystem, constraint: LoadConstraint, config: OptimizationConfig
) -> OptimizationResult:
    """Multistart L-BFGS-B with the exact gradient over the illumination.

    Each start runs scipy's L-BFGS-B on the raw embedded iterate, with the
    objective and its gradient from one evaluation (jac=True), at most
    max_iterations iterations and the relative function tolerance
    f_tolerance (L-BFGS-B's ftol).  Starts are sphere-uniform from
    per-start substreams and run concurrently; the winner is the best final
    objective, ties going to the lowest start index in any finishing order,
    and its point is projected onto the sphere.  The evaluation count is
    scipy's per-start nfev plus the one re-evaluation at the winner.
    """
    # scipy.optimize is most of the package's import time; only this search needs it
    from scipy.optimize import minimize

    blocks = extract_blocks(system)
    sign = -1.0 if config.direction == "MAX" else 1.0
    load_set, redraws = _gated_load_set(
        constraint, blocks.n_bs, config.n_objective_samples, config.seed, blocks.s_ss
    )
    objective = _FrozenObjective(blocks, load_set)

    def wrapped(v):
        if np.linalg.norm(v) < DEGENERATE_NORM:
            return np.inf, np.zeros_like(v)  # worst case in minimize-space; never the winner
        half = v.size // 2
        value, grad = objective.value_and_gradient(v[:half] + 1j * v[half:])
        return sign * value, 2.0 * sign * embed(grad)

    options = {"maxiter": config.max_iterations, "ftol": config.f_tolerance}

    def run_start(start: int):
        x0 = sample_random_illumination(blocks.n_tx, substream(config.seed, _START_KEY, start))
        return minimize(wrapped, embed(x0), jac=True, method="L-BFGS-B", options=options)

    results = _pool_map(run_start, range(config.n_starts))
    traces = [
        (start, float(sign * r.fun) if np.isfinite(r.fun) else np.nan, int(r.nit))
        for start, r in enumerate(results)
    ]
    finite = [r for r in results if np.isfinite(r.fun)]
    if not finite:
        raise OptimizationFailedError("no start produced a finite objective", traces=traces)

    best_x = project(min(finite, key=lambda r: r.fun).x)
    return OptimizationResult(
        best_x=best_x,
        best_objective=float(objective(best_x)),
        per_start_trace=traces,
        objective_evaluations=sum(int(r.nfev) for r in results) + 1,
        load_set_redraws=redraws,
    )
