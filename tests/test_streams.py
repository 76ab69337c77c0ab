"""The batched substream draw against numpy's SeedSequence and Philox, and the key rule
that keeps the draws of one run apart."""

import sys

import numpy as np
import pytest

from bsdof.cli import main
from bsdof.loads import LoadConstraint, loads_from_uniforms, sample_loads
from bsdof.network import save_system
from bsdof.sampling import illuminations_from_uniforms, sample_random_illumination
from bsdof.streams import (
    FIXED_X,
    LOAD_SET,
    STARTS,
    SWEEP,
    standard_complex_gaussian,
    substream,
    substream_uniforms,
)

from synthetic import flat_resonant_rank2_system

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


class StreamAudit:
    """Records every read of a stream as (key, skip, word count); key is (seed, *path)."""

    def __init__(self):
        self.reads = []

    def uniforms(self, seed, prefix, indices, k, skip=0):
        for i in np.asarray(indices).reshape(-1).tolist():
            self.reads.append(((int(seed), *map(int, prefix), i), int(skip), int(k)))
        return substream_uniforms(seed, prefix, indices, k, skip)

    def substream(self, seed, *path):
        key = (int(seed), *map(int, path))
        return RecordedGenerator(self.reads, key, substream(seed, *path))

    def overlaps(self) -> list:
        """Pairs of reads of one stream whose word windows overlap."""
        windows = {}
        for key, skip, k in self.reads:
            windows.setdefault(key, []).append((skip, skip + k))
        found = []
        for key, spans in windows.items():
            spans.sort()
            found += [(key, a, b) for a, b in zip(spans, spans[1:]) if b[0] < a[1]]
        return found


class RecordedGenerator:
    """substream's Generator with its reads recorded; only random() is offered, so any
    other read fails the audit instead of passing unseen."""

    def __init__(self, reads, key, generator):
        self.reads, self.key, self.generator, self.position = reads, key, generator, 0

    def random(self, size):
        k = int(np.prod(size))
        self.reads.append((self.key, self.position, k))
        self.position += k
        return self.generator.random(size)


def test_no_run_reads_a_stream_word_twice(tmp_path, monkeypatch):
    """Within one run every word of every substream is read at most once.  That is what
    the key rule next to the streams namespaces guarantees and what a namespace collision
    breaks: with STARTS = LOAD_SET the optimize-x runs read their starts from load-set
    words.  Each subcommand runs in process, with redraws on a resonant system."""
    audit = StreamAudit()
    for name, module in list(sys.modules.items()):
        if name.startswith("bsdof."):
            for attr, obj in list(vars(module).items()):
                if obj is substream_uniforms:
                    monkeypatch.setattr(module, attr, audit.uniforms)
                elif obj is substream:
                    monkeypatch.setattr(module, attr, audit.substream)
    monkeypatch.chdir(tmp_path)
    save_system(flat_resonant_rank2_system(), tmp_path / "resonant.json")
    env, resonant = ["--system", "env/system.json"], ["--system", "resonant.json"]
    runs = {
        "synth-env": ["synth-env", "--nt", "3", "--nr", "4", "--ns", "16"],
        "benchmark": ["benchmark", *env],
        "bs-dist-rand": ["bs-dist", *env, "--n", "600"],
        "bs-dist-fixed-toggle": [
            "bs-dist", *env, "--policy", "fixed", "--mode", "toggle", "--n", "600",
        ],
        "bs-dist-resonant": ["bs-dist", *resonant, "--constraint", "pm", "--n", "2000"],
        "optimize-x-resonant": [
            "optimize-x", *resonant, "--constraint", "pm", "--starts", "2",
            "--objective-samples", "400", "--final-n", "2000",
        ],
        "optimize-x-uni": [
            "optimize-x", *env, "--constraint", "uni", "--starts", "3",
            "--objective-samples", "300", "--final-n", "300", "--seed", "11",
        ],
        "validate-jacobian": ["validate-jacobian", "--trials", "600"],
    }
    found, namespaces, redrawn = {}, set(), set()
    for run, argv in runs.items():
        audit.reads.clear()
        out = "env" if run == "synth-env" else run
        assert main([*argv, "--out-dir", out]) == 0, run
        assert audit.reads or run == "benchmark", run
        found[run] = audit.overlaps()
        namespaces |= {key[1] for key, _, _ in audit.reads if len(key) == 3}
        redrawn |= {run for _, skip, _ in audit.reads if skip > 0}
    assert found == {run: [] for run in runs}
    assert namespaces == {LOAD_SET, STARTS, FIXED_X, SWEEP}
    assert redrawn == {"bs-dist-resonant", "optimize-x-resonant"}
