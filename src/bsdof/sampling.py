"""Monte-Carlo distributions of the backscatter DOF point metric.

Each sample i draws a load configuration (and, under the RAND policy, an
illumination) from the substream keyed by (seed, i), evaluates the
load-to-output Jacobian, and records its participation number.  Keying by
sample index makes the run embarrassingly parallel and bit-reproducible for
any worker count: a redraw after a singular draw simply continues sample
i's own stream.

Evaluation is vectorized over fixed-size chunks through the batched network
kernel and the Gram-form reduction of metrics.participation_from_jacobians,
which avoids one SVD per sample.  On a system whose passivity certificate
(network.rcond_floor) reaches RCOND_MIN model mode needs no rcond gate and
takes its factors from network.solved_factors without forming G.  Every
other stack forms G once: its rcond is the gate, and toggle mode reads G too.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SingularityError, UnsupportedOperationError
from .loads import LoadConstraint, sample_loads
from .metrics import participation_from_jacobians
from .network import (
    RCOND_MIN,
    ScatteringBlocks,
    extract_blocks,
    jacobian_factors,
    load_jacobian,
    rcond_floor,
    resolvent,
    solved_factors,
    validate_illumination,
)
from .streams import standard_complex_gaussian, substream

# Samples per vectorized evaluation chunk.  Fixed (never derived from the
# worker count) so chunk boundaries cannot depend on scheduling.
CHUNK = 256

# A single sample redrawing this often is treated as pathological outright.
MAX_REDRAWS_PER_SAMPLE = 1000

# Fraction of singular draws above which the whole run is rejected.
MAX_SINGULAR_FRACTION = 0.01

# Bins of the histogram.csv written next to every distribution.
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
    """Samples of the DOF metric plus their summary statistics."""

    samples: np.ndarray
    mean: float
    std: float
    n_tilde: int
    seed: int
    n_samples: int
    redraw_count: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.size != self.n_samples:
            raise ValueError("n_samples does not match the sample array")
        if np.any(self.samples < 1.0 - 1e-9) or np.any(self.samples > self.n_tilde + 1e-9):
            raise ValueError(f"samples outside [1, {self.n_tilde}]")


def sample_random_illumination(n_t: int, stream: np.random.Generator) -> np.ndarray:
    """Haar-uniform point on the complex unit sphere in n_t dimensions."""
    z = standard_complex_gaussian(stream, int(n_t))
    norm = np.linalg.norm(z)
    while norm < 1e-150:
        z = standard_complex_gaussian(stream, int(n_t))
        norm = np.linalg.norm(z)
    return z / norm


def redraw_until_regular(key: tuple, draw, evaluate, label: str):
    """Re-seed substream(*key), pass its rejected first draw, then redraw until accepted.

    draw(gen) makes one draw; evaluate(drawn) returns (value, accepted).
    Returns the accepted value and the number of redraws it took; raises
    SingularityError when all MAX_REDRAWS_PER_SAMPLE redraws are singular.
    """
    gen = substream(*key)
    draw(gen)
    for count in range(1, MAX_REDRAWS_PER_SAMPLE + 1):
        value, accepted = evaluate(draw(gen))
        if accepted:
            return value, count
    raise SingularityError(f"{label} still singular after {MAX_REDRAWS_PER_SAMPLE} redraws")


def _worker_count(n_tasks: int) -> int:
    raw = os.environ.get("BSDOF_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"BSDOF_THREADS must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError("BSDOF_THREADS must be nonnegative")
    if cap == 0:
        cap = min(os.cpu_count() or 1, 8)
    return max(1, min(cap, n_tasks))


def _chunk_m_values(
    blocks: ScatteringBlocks,
    r: np.ndarray,
    x: np.ndarray,
    mode: str,
    constraint: LoadConstraint,
    certified: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Participation numbers for a stack of draws.

    Returns (values, ok); ok is False where the coupling resolvent (or, in
    toggle mode, any toggled resolvent) is singular at the working
    threshold.  Values at not-ok positions are meaningless.  certified says
    that rcond_floor(blocks.s_ss) >= RCOND_MIN, so model mode needs no gate
    and never forms G.  Every other stack forms G once for the gate and the
    factors; an exactly singular member gets a zero G and cannot abort it.
    """
    if mode == "model" and certified:
        jac = load_jacobian(*solved_factors(blocks, r), x)
        return participation_from_jacobians(jac), np.ones(r.shape[0], dtype=bool)
    g, rcond = resolvent(blocks.s_ss, r)
    ok = rcond >= RCOND_MIN
    jac = load_jacobian(*jacobian_factors(blocks, g, r), x)
    if mode == "toggle":
        flipped = np.where(r == constraint.on_value, constraint.off_value, constraint.on_value)
        delta = flipped - r
        t_diag = np.einsum("kj,cjk->ck", blocks.s_ss, g)
        denom = 1.0 - delta * t_diag
        ok &= np.abs(denom).min(axis=1) >= RCOND_MIN
        with np.errstate(divide="ignore", invalid="ignore"):
            jac = jac * ((constraint.on_value - constraint.off_value) / denom)[:, None, :]
    return participation_from_jacobians(jac, ok), ok


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
    only), evaluated through rank-1 resolvent updates.  Deterministic in
    seed regardless of BSDOF_THREADS.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "toggle" and not constraint.discrete:
        raise UnsupportedOperationError("toggle mode needs a two-state constraint")
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    blocks = extract_blocks(system)
    n_s, n_t = blocks.n_bs, blocks.n_tx
    certified = rcond_floor(blocks.s_ss) >= RCOND_MIN
    if policy.kind == "FIXED":
        validate_illumination(policy.fixed_x, n_t)

    def draw(gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        r = sample_loads(constraint, n_s, gen)
        x = sample_random_illumination(n_t, gen) if policy.kind == "RAND" else policy.fixed_x
        return r, x

    r_all = np.empty((n_samples, n_s), dtype=complex)
    x_all = np.empty((n_samples, n_t), dtype=complex)
    for i in range(n_samples):
        r_all[i], x_all[i] = draw(substream(seed, i))

    values = np.empty(n_samples)

    def evaluate(drawn: tuple[np.ndarray, np.ndarray]) -> tuple[float, bool]:
        r, x = drawn
        v, good = _chunk_m_values(blocks, r[None, :], x[None, :], mode, constraint, certified)
        return v[0], good[0]

    def run_span(start: int, stop: int) -> int:
        vals, ok = _chunk_m_values(
            blocks, r_all[start:stop], x_all[start:stop], mode, constraint, certified
        )
        redraws = 0
        for j in np.nonzero(~ok)[0]:
            i = start + int(j)
            vals[j], count = redraw_until_regular((seed, i), draw, evaluate, f"sample {i}")
            redraws += count
        values[start:stop] = vals
        return redraws

    spans = [(s, min(s + CHUNK, n_samples)) for s in range(0, n_samples, CHUNK)]
    with ThreadPoolExecutor(max_workers=_worker_count(len(spans))) as pool:
        redraw_count = sum(pool.map(lambda ab: run_span(*ab), spans))

    total_draws = n_samples + redraw_count
    if redraw_count > MAX_SINGULAR_FRACTION * total_draws:
        raise SingularityError(
            f"{redraw_count} of {total_draws} draws were singular "
            f"(> {MAX_SINGULAR_FRACTION:.0%}); environment is pathological"
        )

    mean, std = summarize(values)
    return DofDistribution(
        samples=values,
        mean=mean,
        std=std,
        n_tilde=min(blocks.n_rx, n_s),
        seed=int(seed),
        n_samples=n_samples,
        redraw_count=int(redraw_count),
        metadata={
            "constraint": constraint.kind,
            "policy": policy.kind,
            "system": system_label,
            "mode": mode,
        },
    )


def summarize(samples: np.ndarray) -> tuple[float, float]:
    """Mean and population standard deviation (divide by n) of the samples."""
    samples = np.asarray(samples, dtype=float)
    return float(samples.mean()), float(samples.std())


def histogram(dist: DofDistribution, n_bins: int = HISTOGRAM_BINS) -> tuple[np.ndarray, np.ndarray]:
    """Uniform-bin density histogram over [1, n_tilde].

    Returns (bin_centers, densities); the densities integrate to 1.  For
    the degenerate n_tilde = 1 case (every sample is exactly 1) the bins
    cover [0.5, 1.5] instead of a zero-width interval.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    lo, hi = 1.0, float(dist.n_tilde)
    if dist.n_tilde == 1:
        lo, hi = 0.5, 1.5
    edges = np.linspace(lo, hi, n_bins + 1)
    counts, _ = np.histogram(dist.samples, bins=edges)
    width = (hi - lo) / n_bins
    densities = counts / (dist.samples.size * width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, densities


def write_samples_csv(dist: DofDistribution, path) -> None:
    lines = ["sample_index,m_value"]
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(dist.samples)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_json(dist: DofDistribution, path) -> None:
    payload = {
        "mean": dist.mean,
        "std": dist.std,
        "n_samples": dist.n_samples,
        "n_tilde": dist.n_tilde,
        "seed": dist.seed,
        "redraw_count": dist.redraw_count,
        "constraint": dist.metadata.get("constraint", ""),
        "policy": dist.metadata.get("policy", ""),
        "mode": dist.metadata.get("mode", ""),
        "system": dist.metadata.get("system", ""),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def write_histogram_csv(dist: DofDistribution, path, n_bins: int = HISTOGRAM_BINS) -> None:
    centers, densities = histogram(dist, n_bins)
    lines = ["bin_center,density"]
    lines += [f"{float(c)!r},{float(d)!r}" for c, d in zip(centers, densities)]
    Path(path).write_text("\n".join(lines) + "\n")
