"""Derivative-free search for illuminations that shape the mean DOF metric.

The objective is the mean participation number over a frozen set of load
realizations (common random numbers), so every candidate illumination sees
the same Monte-Carlo noise and the landscape is deterministic.  Candidates
live on the complex unit sphere; the search runs in the real embedding
R^{2 n_t} and projects back inside the objective wrapper, which also makes
the objective invariant to the global phase and scale of the raw iterate.
The load set is always gated: members whose coupling resolvent is singular
are redrawn before the search starts.

Maximization and minimization share one code path: MAX minimizes the
negated objective.  The search keeps no bookkeeping of its own: per-start
traces, the winner and the objective-evaluation count are read from the
OptimizeResult that scipy returns for each start.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, OptimizationFailedError
from .loads import LoadConstraint, loads_from_uniforms, sample_loads
from .metrics import participation_from_jacobians
from .network import (
    RCOND_MIN,
    ScatteringBlocks,
    ScatteringSystem,
    coupling_resolvent,
    extract_blocks,
    jacobian_factors,
    load_jacobian,
    resolvent,
)
from .sampling import redraw_singular, sample_random_illumination
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
    n_starts: int = 3
    max_iterations: int = 2000
    x_tolerance: float = 1e-6
    f_tolerance: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be MAX or MIN, got {self.direction!r}")
        if self.n_objective_samples < 1 or self.n_starts < 1 or self.max_iterations < 1:
            raise ValueError("sample, start and iteration counts must be positive")
        if self.x_tolerance <= 0 or self.f_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if int(self.seed) < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class OptimizationResult:
    best_x: np.ndarray
    best_objective: float
    per_start_trace: list = field(default_factory=list)
    objective_evaluations: int = 0


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
    on them and a pathological coupling fails before any search.
    """

    n_s = int(n_s)

    def draw(gen: np.random.Generator) -> np.ndarray:
        return sample_loads(constraint, n_s, gen)

    u = substream_uniforms(
        seed, (_LOADSET_KEY,), range(int(n_members)), constraint.uniforms_per_draw(n_s)
    )
    members = loads_from_uniforms(constraint, u)

    def evaluate(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return r, resolvent(s_ss, r)[1] >= RCOND_MIN

    singular = np.flatnonzero(~evaluate(members)[1])
    redraw_singular(members, singular, (seed, _LOADSET_KEY), draw, evaluate, "load-set member")
    return members


class _FrozenObjective:
    """Mean participation number over a fixed load set, batch-evaluated.

    Per member the factor pair (S_RS G, W) is precomputed once; each call
    only forms the Jacobian stack for the candidate illumination and
    reduces it through the Gram form.
    """

    def __init__(self, blocks, load_set: np.ndarray):
        r = np.asarray(load_set, dtype=complex)
        g = coupling_resolvent(blocks.s_ss, r)
        self.rx_factor, self.incident = jacobian_factors(blocks, g, r)

    def __call__(self, x: np.ndarray) -> float:
        jac = load_jacobian(self.rx_factor, self.incident, x)
        return float(np.mean(participation_from_jacobians(jac)))


def mean_dof_objective(
    blocks: ScatteringBlocks, x: np.ndarray, constraint: LoadConstraint, load_set: np.ndarray
) -> float:
    """Mean DOF metric of illumination x over an explicit frozen load set.

    Raises SingularityError when any member's coupling resolvent is singular.
    """
    x = np.asarray(x, dtype=complex)
    return _FrozenObjective(blocks, load_set)(x / np.linalg.norm(x))


def optimize_illumination(
    system: ScatteringSystem, constraint: LoadConstraint, config: OptimizationConfig
) -> OptimizationResult:
    """Multistart Nelder-Mead over the illumination sphere.

    Standard simplex coefficients (reflection 1, expansion 2, contraction
    0.5, shrink 0.5); the initial simplex at each start is the start point
    plus one vertex per embedded coordinate perturbed by 0.1.  Starts are
    sphere-uniform from per-start substreams; the winner is the best final
    objective, ties going to the lowest start index.  The evaluation count
    is scipy's per-start nfev plus the one re-evaluation at the winner.
    """
    # scipy.optimize is most of the package's import time; only this search needs it
    from scipy.optimize import minimize

    blocks = extract_blocks(system)
    sign = -1.0 if config.direction == "MAX" else 1.0
    load_set = sample_load_set(
        constraint, blocks.n_bs, config.n_objective_samples, config.seed, s_ss=blocks.s_ss
    )
    objective = _FrozenObjective(blocks, load_set)

    def wrapped(v):
        norm = np.linalg.norm(v)
        if norm < DEGENERATE_NORM:
            return np.inf  # worst case in minimize-space; never the winner
        half = v.size // 2
        x = (v[:half] + 1j * v[half:]) / norm
        return sign * objective(x)

    results = []
    for start in range(config.n_starts):
        x0 = sample_random_illumination(blocks.n_tx, substream(config.seed, _START_KEY, start))
        v0 = embed(x0)
        options = {
            "maxiter": config.max_iterations,
            "xatol": config.x_tolerance,
            "fatol": config.f_tolerance,
            "initial_simplex": np.vstack([v0, v0 + 0.1 * np.eye(v0.size)]),
        }
        results.append(minimize(wrapped, v0, method="Nelder-Mead", options=options))
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
    )
