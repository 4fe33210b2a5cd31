"""Tests for the counter-based noise streams."""
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from syncphase import rng
from syncphase.errors import OutOfRange


def test_uniforms_are_strictly_inside_unit_interval():
    u = rng._uniforms_block(0, 0, 1, rng.CH_PHASE, 10**6)[0]
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_streams_are_deterministic():
    a = rng._uniforms_block(42, 3, 1, rng.CH_ADDITIVE, 100)[0]
    b = rng._uniforms_block(42, 3, 1, rng.CH_ADDITIVE, 100)[0]
    assert np.array_equal(a, b)


def test_distinct_coordinates_give_distinct_streams():
    def row(seed, draw, channel):
        return rng._uniforms_block(seed, draw, 1, channel, 64)[0]

    base = row(42, 3, rng.CH_PHASE)
    assert not np.array_equal(base, row(43, 3, rng.CH_PHASE))
    assert not np.array_equal(base, row(42, 4, rng.CH_PHASE))
    assert not np.array_equal(base, row(42, 3, rng.CH_ADDITIVE))


def test_seed_is_taken_modulo_2_to_64():
    a = rng._uniforms_block(5, 0, 1, rng.CH_PHASE, 16)[0]
    b = rng._uniforms_block(5 + 2**64, 0, 1, rng.CH_PHASE, 16)[0]
    assert np.array_equal(a, b)


def test_prefix_property():
    # a shorter request is a prefix of a longer one from the same substream
    long = rng._uniforms_block(7, 1, 1, rng.CH_PHASE, 256)[0]
    short = rng._uniforms_block(7, 1, 1, rng.CH_PHASE, 100)[0]
    assert np.array_equal(long[:100], short)


def test_normals_are_inverse_cdf_of_uniforms():
    u = rng._uniforms_block(11, 2, 1, rng.CH_ADDITIVE, 1000)[0]
    z = rng.standard_normals_block(11, 2, 1, rng.CH_ADDITIVE, 1000)[0]
    assert np.array_equal(z, ndtri(u))


def test_block_rows_match_per_draw_streams_bitwise():
    block = rng.standard_normals_block(9, 5, 8, rng.CH_PHASE, 33)
    assert block.shape == (8, 33)
    for j in range(8):
        row = rng.standard_normals_block(9, 5 + j, 1, rng.CH_PHASE, 33)[0]
        assert np.array_equal(block[j], row)


def _fresh_substream_normals(seed, draw, channel, count):
    """One substream from a Philox built for it alone, as the module's
    docstring specifies it: an oracle independent of the block code."""
    key = np.array([seed % 2**64, 0x9E3779B97F4A7C15], dtype=np.uint64)
    counter = np.array([0, draw % 2**64, channel, 0], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(counter=counter, key=key))
    return ndtri(gen.random(count) + 2.0**-54)


@pytest.mark.parametrize("channel", [rng.CH_PHASE, rng.CH_ADDITIVE])
@pytest.mark.parametrize("count", sorted({
    1, 3, 4, 33, 0, 96, 97, rng._KERNEL_MAX_COUNT, rng._KERNEL_MAX_COUNT + 1}))
def test_block_rows_match_fresh_philox_per_draw(channel, count):
    # counts that leave part of Philox's 4-word buffer unused must not leak
    # it into the next row; draws 2^64-3 .. 2^64+2 wrap to 0, 1, 2.  96 and
    # 97 stay covered whatever the crossover.
    first = 2**64 - 3
    block = rng.standard_normals_block(17, first, 6, channel, count)
    assert block.shape == (6, count)
    for j in range(6):
        want = _fresh_substream_normals(17, first + j, channel, count)
        assert np.array_equal(block[j], want)


def test_kernel_sub_blocks_match_fresh_philox_per_draw():
    # three kernel sub-blocks; the draw word wraps past 2^64 inside the third
    count = 20
    rows = rng._SUB_BLOCK // 5  # draws per sub-block at 5 Philox blocks each
    n_draws = 3 * rows
    first = 2**64 - 2 * rows - 7
    block = rng.standard_normals_block(23, first, n_draws, rng.CH_ADDITIVE,
                                       count)
    for j in range(n_draws):
        want = _fresh_substream_normals(23, first + j, rng.CH_ADDITIVE, count)
        assert np.array_equal(block[j], want), j


def test_kernel_work_memory_does_not_grow_with_draws():
    # tracemalloc sees NumPy's buffers: the peak is the output plus work buffers
    # sized by the sub-block, whatever the number of draws
    tracemalloc.start()
    try:
        z = rng.standard_normals_block(1, 0, 50_000, rng.CH_PHASE, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert z.shape == (50_000, 20)
    assert peak - z.nbytes < 4 * 2**20


def test_back_to_back_blocks_share_no_state():
    ch = rng.CH_ADDITIVE
    a = rng.standard_normals_block(3, 10, 4, ch, 7)
    b = rng.standard_normals_block(2**64 + 4, 10, 4, ch, 7)
    for j in range(4):
        assert np.array_equal(a[j], _fresh_substream_normals(3, 10 + j, ch, 7))
        assert np.array_equal(b[j], _fresh_substream_normals(4, 10 + j, ch, 7))


def test_normal_moments():
    z = rng.standard_normals_block(2, 0, 1, rng.CH_ADDITIVE, 10**6)[0]
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert np.var(z) == pytest.approx(1.0, rel=0.005)


def test_negative_count_rejected():
    with pytest.raises(OutOfRange):
        rng._uniforms_block(0, 0, 1, rng.CH_PHASE, -1)
    with pytest.raises(OutOfRange):
        rng.standard_normals_block(0, 0, -2, rng.CH_PHASE, 4)


def test_zero_count_gives_empty():
    assert rng._uniforms_block(0, 0, 1, rng.CH_PHASE, 0)[0].size == 0
    assert rng.standard_normals_block(0, 0, 0, rng.CH_PHASE, 4).shape == (0, 4)
