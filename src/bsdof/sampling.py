"""Monte-Carlo distributions of the backscatter DOF point metric.

Each sample i draws a load configuration (and, under the RAND policy, an
illumination) from the substream keyed by (seed, i), evaluates the
load-to-output Jacobian, and records its participation number.  Keying by
sample index makes the run embarrassingly parallel and bit-reproducible for
any worker count, and a singular draw is redrawn from the next words of its
own stream.  One draw loop, _draw_members, serves the two callers whose
draws can be rejected, the sampler and the optimizer's load set; one pool,
_pool_map, runs its spans and the optimizer's work; and one factor step,
_model_factors, serves both their model-mode solves.  Draws and redraws run
in the workers, so draw memory is per chunk.

Evaluation is vectorized over fixed-size chunks (_chunk_m_values) through the
batched network kernel and the Gram-form reduction of
metrics.participation_from_jacobians, which avoids one SVD per sample.
The module writes no files: the CLI writes a DofDistribution and its histogram.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularityError, UnsupportedOperationError
from .loads import LoadConstraint, loads_from_uniforms
from .metrics import participation_from_jacobians
from .network import (
    ScatteringBlocks,
    extract_blocks,
    factors,
    frobenius_norm,
    load_jacobian,
    toggle_factors,
    two_state_factors,
    validate_illumination,
)
from .streams import TWO_PI, box_muller, substream_uniforms

# Samples per vectorized evaluation chunk.  Fixed (never derived from the
# worker count) so chunk boundaries cannot depend on scheduling.
CHUNK = 256

# A single sample redrawing this often is treated as pathological outright.
MAX_REDRAWS_PER_SAMPLE = 1000

# Fraction of singular draws above which the whole run is rejected.
MAX_SINGULAR_FRACTION = 0.01

# Bins of the histogram.csv the CLI writes next to every distribution.
HISTOGRAM_BINS = 64

_MODES = ("model", "toggle")


@dataclass(frozen=True)
class IlluminationPolicy:
    """RAND draws a fresh unit-norm illumination per sample; FIXED reuses one."""

    kind: str
    fixed_x: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("RAND", "FIXED"):
            raise ValueError(f"policy kind must be RAND or FIXED, got {self.kind!r}")
        if self.kind == "FIXED":
            if self.fixed_x is None:
                raise ValueError("FIXED policy requires fixed_x")
            if np.ndim(self.fixed_x) > 1:
                raise ValueError(f"illumination must be 1-d, got shape {np.shape(self.fixed_x)}")
            object.__setattr__(self, "fixed_x", validate_illumination(self.fixed_x))
        elif self.fixed_x is not None:
            raise ValueError("RAND policy takes no fixed_x")

    @classmethod
    def rand(cls) -> "IlluminationPolicy":
        return cls("RAND")

    @classmethod
    def fixed(cls, x) -> "IlluminationPolicy":
        return cls("FIXED", np.asarray(x, dtype=complex))


@dataclass
class DofDistribution:
    """Samples of the DOF metric, then their summary and run labels in summary.json order."""

    samples: np.ndarray
    mean: float = field(init=False)
    std: float = field(init=False)
    n_samples: int = field(init=False)
    n_tilde: int
    seed: int
    redraw_count: int = 0
    constraint: str = ""
    policy: str = ""
    mode: str = ""
    system: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        # phrased so that NaN, which fails every comparison, is outside too
        inside = (self.samples >= 1.0 - 1e-9) & (self.samples <= self.n_tilde + 1e-9)
        if not inside.all():
            raise ValueError(f"samples outside [1, {self.n_tilde}]")
        self.n_samples = self.samples.size
        self.mean, self.std = float(self.samples.mean()), float(self.samples.std())


def illuminations_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Haar-uniform unit-norm illuminations from rows of 2 n_t uniforms.

    Each row holds n_t Box-Muller magnitude words, then n_t phase words.  A
    Box-Muller radius is 0 only for a magnitude word of exactly 0.0 (any
    other word gives at least 2**-26.5), so only a row whose magnitude words
    are all 0.0, of probability 2**(-53 n_t), has no direction; it takes
    unit magnitudes with its own phase words.
    """
    n_t = u.shape[-1] // 2
    z = box_muller(u[..., :n_t], u[..., n_t:])
    norm = frobenius_norm(z, 1)[..., None]
    if not norm.all():
        blank = norm[..., 0] == 0.0
        z[blank], norm[blank] = np.exp(1j * TWO_PI * u[blank, n_t:]) / np.sqrt(n_t), 1.0
    return z / norm


def sample_random_illumination(n_t: int, stream: np.random.Generator) -> np.ndarray:
    """Haar-uniform point on the complex unit sphere in n_t dimensions."""
    return illuminations_from_uniforms(stream.random(2 * int(n_t)))


def _worker_count(n_tasks: int) -> int:
    raw = os.environ.get("BSDOF_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"BSDOF_THREADS must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError("BSDOF_THREADS must be nonnegative")
    if cap == 0:
        # the CPUs this process may run on, not all of the host's
        cpus = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))(0)
        cap = min(len(cpus), 8)
    return max(1, min(cap, n_tasks))


def _pool_map(fn, items) -> list:
    """[fn(item) for item in items] on at most BSDOF_THREADS workers, in item order.

    fn's first exception in item order propagates once every worker has stopped.
    """
    with ThreadPoolExecutor(max_workers=_worker_count(len(items))) as pool:
        return list(pool.map(fn, items))


def _draw_members(seed: int, prefix: tuple, n: int, n_words: int, evaluate, label: str):
    """Draw members 0, ..., n - 1 until regular; return (values, redraw count).

    Draw c of member i (0 is its first draw) is evaluate of words
    [c n_words, (c + 1) n_words) of substream(seed, *prefix, i), and
    evaluate maps a stack of word rows (m, n_words) to (values, ok).  Spans
    of CHUNK members run on the pool; each evaluates its first draws, then
    redraws all of its still-singular members together at their next
    window.  Raises ValueError naming label when n < 1, and SingularityError
    naming the lowest member still singular after MAX_REDRAWS_PER_SAMPLE
    redraws, or when more than MAX_SINGULAR_FRACTION of all n + redraws
    draws were singular.
    """
    if n < 1:
        raise ValueError(f"{label} count must be at least 1, got {n}")

    def run_span(start: int):
        index = np.arange(start, min(start + CHUNK, n))
        values, ok = evaluate(substream_uniforms(seed, prefix, index, n_words))
        count = redraws = 0
        while not ok.all() and count < MAX_REDRAWS_PER_SAMPLE:
            count += 1
            redo = np.flatnonzero(~ok)
            u = substream_uniforms(seed, prefix, index[redo], n_words, count * n_words)
            values[redo], ok[redo] = evaluate(u)
            redraws += redo.size
        if not ok.all():
            raise SingularityError(
                f"{label} {index[np.argmin(ok)]} still singular after "
                f"{MAX_REDRAWS_PER_SAMPLE} redraws"
            )
        return values, redraws

    spans = _pool_map(run_span, range(0, n, CHUNK))
    redraws = sum(r for _, r in spans)
    if redraws > MAX_SINGULAR_FRACTION * (n + redraws):
        raise SingularityError(
            f"{redraws} of {n + redraws} draws were singular "
            f"(> {MAX_SINGULAR_FRACTION:.0%}); environment is pathological"
        )
    return np.concatenate([v for v, _ in spans]), redraws


def _model_factors(blocks: ScatteringBlocks, r: np.ndarray, constraint: LoadConstraint) -> tuple:
    """factors' (S_RS G, W, ok), from two_state_factors under a two-state constraint."""
    if constraint.discrete:
        return two_state_factors(blocks, r, constraint.on_value, constraint.off_value)
    return factors(blocks, r)


def _chunk_m_values(
    blocks: ScatteringBlocks,
    r: np.ndarray,
    x: np.ndarray,
    mode: str,
    constraint: LoadConstraint,
) -> tuple[np.ndarray, np.ndarray]:
    """Participation numbers for a stack of draws.

    Returns (values, ok); ok is False where a draw's resolvent is singular at
    the working threshold or, in toggle mode, a rank-1 denominator
    1 - delta_k (S_SS G)_kk falls below it; values there are meaningless.
    Model draws take their factors from _model_factors, toggle draws theirs
    and the denominators from network.toggle_factors, scaled by the secant.
    Uncertified, an exactly singular member cannot abort the stack.
    """
    if mode == "model":
        rx, w, ok = _model_factors(blocks, r, constraint)
        return participation_from_jacobians(load_jacobian(rx, w, x), ok), ok
    rx, w, denom, ok = toggle_factors(blocks, r, constraint.on_value, constraint.off_value)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = ((constraint.on_value - constraint.off_value) / denom)[:, None, :]
    return participation_from_jacobians(load_jacobian(rx, w, x) * scale, ok), ok


def sample_distribution(
    system,
    policy: IlluminationPolicy,
    constraint: LoadConstraint,
    n_samples: int,
    seed: int,
    mode: str = "model",
    system_label: str = "",
) -> DofDistribution:
    """Monte-Carlo distribution of the point DOF metric.

    mode "model" differentiates the closed-form channel model; "toggle"
    uses the exact secant across single-load flips (two-state constraints
    only), scaled by network.toggle_factors' rank-1 denominators.
    Deterministic in seed regardless of BSDOF_THREADS.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "toggle" and not constraint.discrete:
        raise UnsupportedOperationError("toggle mode needs a two-state constraint")
    blocks = extract_blocks(system)
    n_s, n_t = blocks.n_bs, blocks.n_tx
    if policy.kind == "FIXED":
        validate_illumination(policy.fixed_x, n_t)

    # per sample: load words, then n_t magnitude and n_t phase words under RAND
    n_load = constraint.uniforms_per_draw(n_s)
    n_words = n_load + (2 * n_t if policy.kind == "RAND" else 0)

    def evaluate(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = loads_from_uniforms(constraint, u[:, :n_load])
        x = policy.fixed_x if policy.kind == "FIXED" else illuminations_from_uniforms(u[:, n_load:])
        return _chunk_m_values(blocks, r, x, mode, constraint)

    values, redraw_count = _draw_members(seed, (), int(n_samples), n_words, evaluate, "sample")
    return DofDistribution(
        samples=values,
        n_tilde=min(blocks.n_rx, n_s),
        seed=int(seed),
        redraw_count=redraw_count,
        constraint=constraint.kind,
        policy=policy.kind,
        mode=mode,
        system=system_label,
    )


def histogram(dist: DofDistribution, n_bins: int = HISTOGRAM_BINS) -> tuple[np.ndarray, np.ndarray]:
    """Uniform-bin density histogram over [1, n_tilde].

    Returns (bin_centers, densities); the densities integrate to 1, with the
    samples DofDistribution admits just outside the range in the end bins.
    For the degenerate n_tilde = 1 case (every sample is exactly 1) the bins
    cover [0.5, 1.5] instead of a zero-width interval.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    lo, hi = 1.0, float(dist.n_tilde)
    if dist.n_tilde == 1:
        lo, hi = 0.5, 1.5
    edges = np.linspace(lo, hi, n_bins + 1)
    counts, _ = np.histogram(np.clip(dist.samples, lo, hi), bins=edges)
    width = (hi - lo) / n_bins
    densities = counts / (dist.samples.size * width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, densities
