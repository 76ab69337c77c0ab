"""The batched substream draw against numpy's SeedSequence and Philox."""

import numpy as np
import pytest

from bsdof.loads import LoadConstraint, loads_from_uniforms, sample_loads
from bsdof.sampling import illuminations_from_uniforms, sample_random_illumination
from bsdof.streams import standard_complex_gaussian, substream, substream_uniforms

INDICES = [0, 1, 255, 256, 4999]


def numpy_uniforms(seed, prefix, i, k, skip=0):
    ss = np.random.SeedSequence(seed, spawn_key=(*prefix, i))
    return np.random.Generator(np.random.Philox(ss)).random(skip + k)[skip:]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**70])
@pytest.mark.parametrize("prefix", [(), (0,), (3,)], ids=["flat", "key0", "key3"])
def test_batched_uniforms_are_numpys_bit_for_bit(seed, prefix):
    # skip 0 is a first draw; the others start inside a Philox block or on its boundary
    for skip in (0, 1, 5, 8, 22):
        for k in (1, 4, 22, 70):
            batched = substream_uniforms(seed, prefix, INDICES, k, skip)
            assert batched.shape == (len(INDICES), k)
            expected = np.array([numpy_uniforms(seed, prefix, i, k, skip) for i in INDICES])
            assert np.array_equal(batched.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize(
    "seed, indices, named",
    [(-1, [0], "seed"), (0, [2**32], "indices"), (0, [3, -1], "indices")],
    ids=["negative-seed", "index-2**32", "negative-index"],
)
def test_out_of_range_keys_are_rejected(seed, indices, named):
    with pytest.raises(ValueError, match=named):
        substream_uniforms(seed, (), indices, 4)


def test_scalar_substream_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
        substream(-1)


def test_batched_transforms_equal_their_scalar_wrappers():
    """Rows of the batched draw are the scalar draws of the same streams."""
    n_t, n_s, rows = 3, 16, 2000
    uni = LoadConstraint.uni()
    u = substream_uniforms(11, (), range(rows), uni.uniforms_per_draw(n_s) + 2 * n_t)
    r = loads_from_uniforms(uni, u[:, : 2 * n_s])
    x = illuminations_from_uniforms(u[:, 2 * n_s :])
    for i in range(rows):
        gen = substream(11, i)
        assert np.array_equal(r[i], sample_loads(uni, n_s, gen))
        assert np.array_equal(x[i], sample_random_illumination(n_t, gen))


@pytest.mark.parametrize("n_t", [1, 3, 16])
def test_illumination_norm_rounds_like_linalg_norm(n_t):
    u = substream_uniforms(12, (), range(3000), 2 * n_t)
    x = illuminations_from_uniforms(u)
    for i in range(0, 3000, 7):
        gen = substream(12, i)
        z = standard_complex_gaussian(gen, n_t)
        assert np.array_equal(x[i], z / np.linalg.norm(z))
