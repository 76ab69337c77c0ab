"""Deterministic counter-based random streams.

Every random draw in the package flows through a stream derived from an
integer seed and a key path, so results are reproducible across platforms,
thread counts, and scheduling order.  Philox is counter-based; SeedSequence
spawn keys give distinct substreams for distinct key paths while the seed is
below 2**128 and every key entry below 2**32, so that each fills its own words.

substream_uniforms draws a window of uniforms of many substreams at once.
It reimplements, in numpy uint64 arithmetic, SeedSequence's hash mixing, the
Philox4x64-10 key it derives and the block function (Salmon, Moraes, Dror &
Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC'11), and gives the
same words bit for bit as a Generator on substream(seed, *prefix, i).  numpy
does not promise Generator stream stability across versions (NEP 19), so
owning the algorithm pins the uniforms in this module too.  Every draw of
the package reads it, first draws and redraws alike, except the per-seed
draw of environment.synth_matrices (an owned draw there slowed a 4,000-trial
validation sweep, medians 1.84 s against 1.77 s) and the Generator-based
reference helpers that tests and benchmarks call: substream,
standard_complex_gaussian, loads.sample_loads, sampling.sample_random_illumination.

Gaussian variates are produced by an explicit Box-Muller transform on the
stream's uniforms rather than the generator's native normal method, so the
exact output sequence is pinned by this module and not by the numpy version.
"""

import numpy as np

TWO_PI = 2.0 * np.pi

_M32 = 0xFFFFFFFF

# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# Philox4x64 round multipliers and Weyl key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10

# The draw namespaces under a run's seed.  Sample i of a sampler run reads (seed, i),
# every other draw (seed, namespace, i), and an environment substream(env_seed).
LOAD_SET, STARTS, FIXED_X, SWEEP = 0, 1, 3, 4


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator keyed by (seed, *path)."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def _words(value, name: str) -> list:
    """Little-endian uint32 words of a nonnegative integer, as SeedSequence splits it."""
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value}")
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _hash(value, const: int, mult: int):
    """One SeedSequence hash step; returns (hashed value, next hash constant)."""
    value = value ^ const
    const = (const * mult) & _M32
    value = (value * const) & _M32
    return value ^ (value >> 16), const


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y."""
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ (value >> 16)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product m * x, through 32-bit halves."""
    m_hi, m_lo = m >> 32, m & _M32
    x_hi, x_lo = x >> 32, x & _M32
    lo_hi, hi_lo = m_lo * x_hi, m_hi * x_lo
    carry = ((m_lo * x_lo) >> 32) + (lo_hi & _M32) + (hi_lo & _M32)
    return m_hi * x_hi + (lo_hi >> 32) + (hi_lo >> 32) + (carry >> 32), m * x


def substream_uniforms(seed: int, prefix: tuple, indices, k: int, skip: int = 0) -> np.ndarray:
    """Uniforms skip, ..., skip + k - 1 of substream(seed, *prefix, i) for each index i.

    Shape (len(indices), k); bit for bit equal to
    substream(seed, *prefix, i).random(skip + k)[skip:].  The seed and the
    prefix must be nonnegative and every index below 2**32, so that each
    index is one SeedSequence word.
    """
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() > _M32):
        raise ValueError(
            f"substream indices must lie in [0, 2**32), got [{idx.min()}, {idx.max()}]"
        )
    run = _words(seed, "seed")
    entropy = run + [0] * (_POOL - len(run))
    for p in prefix:
        entropy += _words(p, "substream key")
    entropy.append(idx.astype(np.uint64))

    # SeedSequence.mix_entropy; only the last word differs between indices
    const, pool = _INIT_A, []
    for word in entropy[:_POOL]:
        value, const = _hash(word, const, _MULT_A)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            value, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)

    # SeedSequence.generate_state(2, np.uint64) is the Philox key
    const, state = _INIT_B, []
    for value in pool:
        value, const = _hash(value, const, _MULT_B)
        state.append(value)
    key = [(state[0] | (state[1] << 32))[:, None], (state[2] | (state[3] << 32))[:, None]]

    # Philox4x64-10 over the block counters 1 + skip // 4, ...; the key is bumped between rounds
    first, lead = divmod(int(skip), 4)
    blocks = -(-(lead + int(k)) // 4)
    c0 = np.arange(1 + first, 1 + first + blocks, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    for rnd in range(_PHILOX_ROUNDS):
        if rnd:
            key = [key[0] + _PHILOX_W[0], key[1] + _PHILOX_W[1]]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ key[0], lo1, hi0 ^ c3 ^ key[1], lo0
    words = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1).reshape(idx.size, 4 * blocks)
    # Generator.random: the top 53 bits of each word, scaled to [0, 1)
    return (words[:, lead : lead + int(k)] >> 11) * (1.0 / 9007199254740992.0)


def box_muller(u_mag: np.ndarray, u_phase: np.ndarray) -> np.ndarray:
    """CN(0, 1) variates from equal-shape arrays of magnitude and phase uniforms.

    |z|^2 is Exp(1) and arg(z) is uniform, i.e. unit total variance split
    evenly between the real and imaginary parts.
    """
    # 1 - u_mag lies in (0, 1], so the log never sees zero.
    radius = np.sqrt(-np.log1p(-u_mag))
    return radius * np.exp(1j * TWO_PI * u_phase)


def standard_complex_gaussian(stream: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. CN(0, 1) samples of the given shape via polar Box-Muller.

    Consumes the magnitude uniforms first, then the phases.
    """
    shape = shape if isinstance(shape, tuple) else (shape,)
    u_mag, u_phase = stream.random((2, *shape))
    return box_muller(u_mag, u_phase)
