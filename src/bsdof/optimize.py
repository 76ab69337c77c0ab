"""Gradient search for illuminations that shape the mean DOF metric.

The objective is the mean participation number over a frozen set of load
realizations (common random numbers), so every candidate illumination sees
the same Monte-Carlo noise and the landscape is deterministic.  Members of the
load set whose coupling resolvent is singular are redrawn before the search
starts, through the sampler's draw loop, so a set of fewer than 99 members
fails on its first singular draw, as a sampler run of that size does.  Where
the passivity certificate ScatteringBlocks.certified holds, which the search's
solves read too, no member can be singular, and the gate is skipped.

The search runs a dense BFGS loop (_bfgs) in the real embedding R^{2 n_t}.
M has degree 0 in x (it ignores the global phase and scale of the
illumination), so every accepted iterate is rescaled onto the unit sphere at
no cost to the objective, its gradient scaled to match, and the winner is
projected onto the sphere as a complex illumination.  A start stops when a
step lowers the minimized objective by no more than f_tolerance times the
larger of its two values' magnitudes and 1 (L-BFGS-B's ftol rule), after
max_iterations steps, or where no step passes the line search.

Each member's M is a ratio of two quadratic forms in the lift of x, the
n_t^2 real coordinates of x x^H in an orthonormal basis of Hermitian
matrices (the semidefinite-relaxation lift; Luo, Ma, So, Ye & Zhang, IEEE
Signal Process. Mag. 27(3), 2010), for which lift(u).lift(v) = |u^H v|^2:

    xi = [|x_i|^2; sqrt(2) Re(x_i conj x_j); sqrt(2) Im(x_i conj x_j)],  i < j.

Per member, with R = S_RS G, w_s = ||R_s||^2 and W the drive factor, the
load powers are p = |W x|^2 = Pi xi, where row s of Pi is lift(conj W_s),
and C = J J^H = R diag(p) R^H has the coordinates V p, where column s of V
is lift(R_s).  So with T = V Pi

    tau = tr C = tau_m.xi,  tau_m = Pi^T w,
    phi = ||C||_F^2 = xi^T Q xi,  Q = T^T T,  M = tau^2 / phi,

and an evaluation is one product of the stacked Q with xi plus reductions;
it never forms W x, J or C.  The gradient in xi, over the N members, is
g = (2/N) sum_m [alpha tau_m - alpha^2 Q xi] with alpha = tau / phi, and
by CR (Wirtinger) calculus (Kreutz-Delgado, arXiv:0906.4835) it pulls back
to dM/d conj(x) = Gamma x, with the Hermitian Gamma_ii = g_ii and
Gamma_ij = (g_re,ij + i g_im,ij) / sqrt(2) for i < j; the real embedding
takes 2 [Re; Im] of it.

Maximization and minimization share one code path: MAX minimizes the
negated objective.  Per-start traces, the winner and the objective-evaluation
count are read from what _bfgs returns for each start.

The precompute (fixed slices of sampling.CHUNK members, factored as the
sampler factors a model-mode chunk) and the starts run on the sampler's
worker pool.  Starts are kept in start order, so no result depends on
BSDOF_THREADS or on which start finishes first; _bfgs keeps its state per
call, and value_and_gradient writes no instance state.
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
    rcond_floor,
    resolvent,
    validate_illumination,
)
from .sampling import CHUNK, _draw_members, _model_factors, _pool_map, illuminations_from_uniforms
from .streams import LOAD_SET, STARTS, substream_uniforms

# Raw iterates shorter than this cannot be projected onto the sphere.
DEGENERATE_NORM = 1e-30

_DIRECTIONS = ("MAX", "MIN")


@dataclass(frozen=True)
class OptimizationConfig:
    direction: str = "MAX"
    n_objective_samples: int = 1500
    n_starts: int = 8  # with 3, criterion-7 MIN environments 0 and 4 end in a worse basin
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

    Raises DegenerateInputError below the projectable-norm floor or for a NaN norm.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.size % 2 != 0:
        raise ValueError(f"embedded vector length {v.size} is odd")
    half = v.size // 2
    x = v[:half] + 1j * v[half:]
    norm = np.linalg.norm(x)
    if not norm >= DEGENERATE_NORM:
        raise DegenerateInputError(f"cannot project vector of norm {norm!r} onto the sphere")
    return x / norm


def sample_load_set(
    constraint: LoadConstraint, n_s: int, n_members: int, seed: int, s_ss: np.ndarray
) -> np.ndarray:
    """Frozen stack of load realizations, one substream per member.

    Members whose coupling resolvent against s_ss is singular are redrawn
    from the next words of their own stream at construction time, through
    the sampler's draw loop (sampling._draw_members), so downstream
    evaluation never trips on them and a pathological coupling fails before
    any search.  When rcond_floor(s_ss) reaches RCOND_MIN no member can be
    singular, and no resolvent is formed.  Raises ValueError when n_s is not
    the load count of s_ss or n_members is below 1.
    """
    if n_s != np.shape(s_ss)[-1]:
        raise ValueError(f"n_s = {n_s} does not match the {np.shape(s_ss)[-1]} loads of s_ss")
    certified = rcond_floor(s_ss) >= RCOND_MIN
    return _gated_load_set(constraint, n_members, seed, s_ss, certified)[0]


def _gated_load_set(
    constraint: LoadConstraint, n_members: int, seed: int, s_ss: np.ndarray, certified: bool
) -> tuple[np.ndarray, int]:
    """sample_load_set's members and the number of redraws they took; certified is
    rcond_floor(s_ss) >= RCOND_MIN, as in ScatteringBlocks.certified."""
    n_words = constraint.uniforms_per_draw(np.shape(s_ss)[-1])

    def evaluate(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = loads_from_uniforms(constraint, u)
        if certified:
            return r, np.ones(len(r), dtype=bool)
        return r, resolvent(s_ss, r)[1] >= RCOND_MIN

    label = "load-set member"
    return _draw_members(seed, (LOAD_SET,), int(n_members), n_words, evaluate, label)


def _lift(v: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Real coordinates of v v^H over the last axis: [|v_i|^2; sqrt(2) Re, Im(v_i conj v_j)].

    pairs is np.triu_indices(v.shape[-1], 1), the i < j of the off-diagonal coordinates.
    """
    cross = np.sqrt(2.0) * v[..., pairs[0]] * v[..., pairs[1]].conj()
    return np.concatenate([v.real**2 + v.imag**2, cross.real, cross.imag], axis=-1)


class _FrozenObjective:
    """Mean participation number over a fixed load set, as a lifted quadratic form.

    Per member the quadratic form Q = T^T T and the trace form tau_m = Pi^T w
    of the module docstring are precomputed once from sampling._model_factors,
    over fixed slices of sampling.CHUNK members on the worker pool, and the
    factor pair is freed.  A member keeps n_t^4 + n_t^2 floats (90 at n_t = 3),
    so the precompute grows quartically in n_t; n_t is 1-4 in the package's
    tests, tools and benchmark workloads.
    """

    def __init__(self, blocks, load_set: np.ndarray, constraint: LoadConstraint):
        r = np.asarray(load_set, dtype=complex)
        if not len(r):
            raise ValueError("the load set is empty")
        n_r, dim = blocks.n_rx, blocks.n_tx**2
        self.quadratic = np.empty((len(r), dim, dim))
        self.trace_form = np.empty((len(r), dim))
        self.pairs = np.triu_indices(blocks.n_tx, 1)
        rx_pairs = np.triu_indices(n_r, 1)

        def fill(start: int) -> None:
            # fixed slices: batched solves and matmuls give each member the same bits at any length
            s = slice(start, start + CHUNK)
            rx, drive, ok = _model_factors(blocks, r[s], constraint)
            if not ok.all():
                raise SingularityError(f"load-set member {start + np.argmin(ok)} is singular")
            columns = _lift(rx.swapaxes(-1, -2), rx_pairs)  # V^T, one row lift(R_s) per load
            powers = _lift(drive.conj(), self.pairs)  # Pi, one row lift(conj W_s) per load
            t = columns.swapaxes(-1, -2) @ powers
            self.quadratic[s] = t.swapaxes(-1, -2) @ t
            rx_power = columns[..., :n_r].sum(axis=-1)
            self.trace_form[s] = (rx_power[..., None, :] @ powers)[..., 0, :]

        _pool_map(fill, range(0, len(r), CHUNK))

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean M at a nonzero x of any scale, and its gradient dM/d conj(x)."""
        n, xi = len(x), _lift(x, self.pairs)
        q_xi = (self.quadratic.reshape(-1, xi.size) @ xi).reshape(-1, xi.size)
        trace = self.trace_form @ xi
        if not trace.all():
            raise DegenerateInputError("zero Jacobian; participation undefined")
        ratio = trace / (q_xi @ xi)
        g = 2.0 * (ratio @ self.trace_form - (ratio * ratio) @ q_xi) / len(trace)
        i, j = self.pairs
        gamma = np.diag(g[:n].astype(complex))
        gamma[i, j] = (g[n : n + len(i)] + 1j * g[n + len(i) :]) / np.sqrt(2.0)
        gamma[j, i] = gamma[i, j].conj()
        return float(np.mean(trace * ratio)), gamma @ x

    def __call__(self, x: np.ndarray) -> float:
        return self.value_and_gradient(x)[0]


def mean_dof_objective(
    blocks: ScatteringBlocks, x: np.ndarray, constraint: LoadConstraint, load_set: np.ndarray
) -> float:
    """Mean DOF metric of illumination x, of any nonzero scale, over an explicit frozen load set.

    constraint picks the factor path, as in the sampler.  Raises
    DegenerateInputError for an x that cannot be scaled onto the unit sphere
    (zero, underflowing or NaN), ValueError for an infinite x, one of the
    wrong length, an empty load set or loads off a two-state constraint's
    states, and SingularityError naming the first singular member.
    """
    x = validate_illumination(project(embed(x)), blocks.n_tx)
    return _FrozenObjective(blocks, load_set, constraint)(x)


def _bfgs(
    fun, x: np.ndarray, max_iterations: int, f_tolerance: float
) -> tuple[np.ndarray, float, int, int]:
    """Minimize fun(v) -> (value, gradient), a function of degree 0 on R^n, from x.

    Dense BFGS on the inverse Hessian (Nocedal & Wright, Numerical Optimization,
    2nd ed., ch. 6) with an Armijo backtracking line search (c1 = 1e-4, halving
    the step at most 60 times).  Each accepted point is rescaled onto the unit
    sphere and its gradient multiplied by the old norm, as g(v / c) = c g(v) at
    degree 0; the secant pair is the raw step.  The first pair sets the initial
    inverse Hessian to (s'y / y'y) I, and a pair with s'y <= 1e-12 |s| |y| is
    skipped.  The search stops after max_iterations accepted steps, on a
    decrease f_k - f_{k+1} <= f_tolerance max(|f_k|, |f_{k+1}|, 1) (L-BFGS-B's
    ftol rule), at a line search that finds no step and at an exactly zero
    gradient.  Returns the last point, its value, the number of accepted steps
    and the number of evaluations.
    """
    f, g = fun(x)
    inverse, nit, nfev = None, 0, 1
    while nit < max_iterations and g.any():
        d = -g if inverse is None else -(inverse @ g)
        step, slope = 1.0, g @ d
        for _ in range(60):
            trial = x + step * d
            f_trial, g_trial = fun(trial)
            nfev += 1
            if f_trial <= f + 1e-4 * step * slope:
                break
            step /= 2
        else:
            break
        s, y = step * d, g_trial - g
        nit, done = nit + 1, f - f_trial <= f_tolerance * max(abs(f), abs(f_trial), 1.0)
        norm = np.linalg.norm(trial)
        x, f, g = trial / norm, f_trial, g_trial * norm
        sy = s @ y
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            if inverse is None:
                inverse = sy / (y @ y) * np.eye(x.size)
            hy, rs = inverse @ y, s / sy
            inverse += (1.0 + y @ hy / sy) * np.outer(rs, s) - np.outer(rs, hy) - np.outer(hy, rs)
        if done:
            break
    return x, f, nit, nfev


def optimize_illumination(
    system: ScatteringSystem, constraint: LoadConstraint, config: OptimizationConfig
) -> OptimizationResult:
    """Multistart BFGS with the exact gradient over the illumination.

    Each start runs _bfgs on the embedded iterate, with the objective and its
    gradient from one evaluation, for at most max_iterations accepted steps;
    a start stops once a step lowers the minimized objective by no more than
    f_tolerance times the larger of its two values' magnitudes and 1.  Starts
    are sphere-uniform from per-start substreams and run concurrently; the
    winner is the best final objective, ties going to the lowest start index in
    any finishing order, and its point is projected onto the sphere.  The
    evaluation count is every start's evaluations plus the one re-evaluation
    at the winner.
    """
    blocks = extract_blocks(system)
    sign = -1.0 if config.direction == "MAX" else 1.0
    load_set, redraws = _gated_load_set(
        constraint, config.n_objective_samples, config.seed, blocks.s_ss, blocks.certified
    )
    objective = _FrozenObjective(blocks, load_set, constraint)

    def wrapped(v):
        if np.linalg.norm(v) < DEGENERATE_NORM:
            return np.inf, np.zeros_like(v)  # worst case in minimize-space; never accepted
        half = v.size // 2
        value, grad = objective.value_and_gradient(v[:half] + 1j * v[half:])
        return sign * value, 2.0 * sign * embed(grad)

    starts = illuminations_from_uniforms(
        substream_uniforms(config.seed, (STARTS,), range(config.n_starts), 2 * blocks.n_tx)
    )

    def run_start(start: int):
        return _bfgs(wrapped, embed(starts[start]), config.max_iterations, config.f_tolerance)

    results = _pool_map(run_start, range(config.n_starts))
    traces = [
        (start, float(sign * fun) if np.isfinite(fun) else np.nan, nit)
        for start, (_, fun, nit, _) in enumerate(results)
    ]
    finite = [r for r in results if np.isfinite(r[1])]
    if not finite:
        raise OptimizationFailedError("no start produced a finite objective", traces=traces)

    best_x = project(min(finite, key=lambda r: r[1])[0])
    return OptimizationResult(
        best_x=best_x,
        best_objective=float(objective(best_x)),
        per_start_trace=traces,
        objective_evaluations=sum(nfev for *_, nfev in results) + 1,
        load_set_redraws=redraws,
    )
