"""Deterministic counter-based random streams.

Every random draw in the package flows through a stream derived from an
integer seed and a key path, so results are reproducible across platforms,
thread counts, and scheduling order.  Philox is counter-based; SeedSequence
spawn keys give non-colliding substreams for distinct key paths (tuples of
different lengths never collide).

Gaussian variates are produced by an explicit Box-Muller transform on the
stream's uniforms rather than the generator's native normal method, so the
exact output sequence is pinned by this module and not by the numpy version.
"""

import numpy as np

TWO_PI = 2.0 * np.pi


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator keyed by (seed, *path)."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def standard_complex_gaussian(stream: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. CN(0, 1) samples of the given shape via polar Box-Muller.

    |z|^2 is Exp(1) and arg(z) is uniform, i.e. unit total variance split
    evenly between the real and imaginary parts.  Consumes two uniform
    arrays per call: magnitudes first, then phases.
    """
    # a generator gives the same numbers for a shape as for its flat size
    u_mag = stream.random(shape)
    u_phase = stream.random(shape)
    # 1 - u_mag lies in (0, 1], so the log never sees zero.
    radius = np.sqrt(-np.log1p(-u_mag))
    return radius * np.exp(1j * TWO_PI * u_phase)
