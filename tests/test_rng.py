"""Tests for the counter-based noise streams."""
import random
import sys
import threading
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


@pytest.mark.parametrize("count", [20, 1000])  # the kernel, the native loop
def test_numpy_integer_seed_and_draw_give_the_python_int_bits(count):
    want = rng.standard_normals_block(2**64 - 2, 2**64 - 1, 3,
                                      rng.CH_ADDITIVE, count)
    got = rng.standard_normals_block(np.int64(-2), np.uint64(2**64 - 1), 3,
                                     rng.CH_ADDITIVE, count)
    assert got.tobytes() == want.tobytes()
    u = np.empty((3, count))
    rng.uniform_filler(np.uint64(2**64 - 2), rng.CH_ADDITIVE, count)(
        u, 2**64 - 1)
    assert rng.to_normals(u).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed, first_draw", [(1.5, 0), (5, 0.5)])
def test_a_non_integer_seed_or_draw_is_rejected(seed, first_draw):
    with pytest.raises(OutOfRange, match="must be an integer"):
        rng.standard_normals_block(seed, first_draw, 2, rng.CH_PHASE, 20)


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
    1, 3, 4, 33, 0, 80, 81, 88, 89, 96, 97, rng._KERNEL_MAX_COUNT,
    rng._KERNEL_MAX_COUNT + 1}))
def test_block_rows_match_fresh_philox_per_draw(channel, count):
    # counts that leave part of Philox's 4-word buffer unused must not leak
    # it into the next row; draws 2^64-3 .. 2^64+2 wrap to 0, 1, 2.  80, 81,
    # 88, 89, 96 and 97 stay covered whatever the crossover.
    first = 2**64 - 3
    block = rng.standard_normals_block(17, first, 6, channel, count)
    assert block.shape == (6, count)
    for j in range(6):
        want = _fresh_substream_normals(17, first + j, channel, count)
        assert np.array_equal(block[j], want)


def _random_kernel_cases(n_cases=40):
    """(seed, first_draw, n_draws, channel, count) drawn from a fixed seed:
    seeds at and above 2^63 and 2^64 - 1, first draws that wrap past 2^64,
    counts 1 to 80 including non-multiples of 4, both channels."""
    r = random.Random(20211019)
    cases = []
    for i in range(n_cases):
        seed = (2**64 - 1, 2**63 + r.getrandbits(63), r.getrandbits(64),
                r.getrandbits(70))[i % 4]
        n_draws = r.randint(1, 6)
        if i % 3 == 0:
            first = 2**64 - r.randint(1, n_draws)  # wraps inside the block
        else:
            first = r.getrandbits(64)
        count = (1, 80, 4 * r.randint(1, 20) - r.randint(1, 3),
                 r.randint(1, 80))[i % 4]
        cases.append((seed, first, n_draws, i % 2, count))
    return cases


@pytest.mark.parametrize("seed,first,n_draws,channel,count",
                         _random_kernel_cases())
def test_random_kernel_cases_match_fresh_philox(seed, first, n_draws,
                                                channel, count):
    # the kernel folds its first three rounds into key-dependent constants,
    # so a seed or draw word not taken mod 2^64 shows up here
    block = rng.standard_normals_block(seed, first, n_draws, channel, count)
    for j in range(n_draws):
        want = _fresh_substream_normals(seed, first + j, channel, count)
        assert np.array_equal(block[j], want), j


def test_random_kernel_cases_cover_the_edges():
    cases = _random_kernel_cases()
    assert len(cases) == 40
    assert any(seed == 2**64 - 1 for seed, *_ in cases)
    assert any(seed >= 2**64 for seed, *_ in cases)
    assert sum(2**63 <= seed < 2**64 for seed, *_ in cases) >= 10
    assert any(first + n > 2**64 for _, first, n, _, _ in cases)
    assert {channel for *_, channel, _ in cases} == {0, 1}
    counts = {count for *_, count in cases}
    assert {1, 80} <= counts and any(count % 4 for count in counts)
    assert all(1 <= count <= rng._KERNEL_MAX_COUNT for count in counts)


def test_kernel_runs_fifteen_full_size_products_per_sub_block(monkeypatch):
    # Rounds 1-3 work on block-only or draw-only factors: one high product
    # per sub-block on the draw column, 15 on full (draws, blocks) arrays.
    monkeypatch.setattr(rng, "_SUB_BLOCK", 64)  # 12 draws at count 20
    shapes = []
    mulhi = rng._mulhi

    def counting(x, m, out, s0, s1, s2):
        shapes.append(x.shape)
        mulhi(x, m, out, s0, s1, s2)

    monkeypatch.setattr(rng, "_mulhi", counting)
    u = rng._uniforms_block(5, 2**64 - 20, 30, rng.CH_ADDITIVE, 20)
    sub_blocks = [(12, 5), (12, 5), (6, 5)]
    want = []
    for rows, blocks in sub_blocks:
        want += [(rows, 1)] + [(rows, blocks)] * 15
    assert shapes == want
    for j in (0, 19, 20, 29):  # the draw word wraps at j = 20
        z = ndtri(u[j])
        assert np.array_equal(
            z, _fresh_substream_normals(5, 2**64 - 20 + j, 1, 20))


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


def _arena_probe(monkeypatch, on_call):
    """Wrap ``rng._mulhi`` so that on_call(out) sees every full-size or
    draw-column array a kernel fill writes."""
    mulhi = rng._mulhi

    def probe(x, m, out, s0, s1, s2):
        on_call(out)
        mulhi(x, m, out, s0, s1, s2)

    monkeypatch.setattr(rng, "_mulhi", probe)


def _assert_fresh_rows(u, seed, first, channel):
    for j, row in enumerate(u):
        want = _fresh_substream_normals(seed, first + j, channel, u.shape[1])
        assert np.array_equal(ndtri(row), want), j


def _one_arena(outs):
    """The one arena of ``_ARENA_WORDS`` words that every array of `outs`
    is a view of."""
    (arena,) = {id(out.base): out.base for out in outs}.values()
    assert arena.size == rng._ARENA_WORDS
    return arena


def test_kernel_fills_each_work_in_one_arena(monkeypatch):
    # Each call allocates its arena, which the heap may serve from the words
    # an earlier fill (other channel, count and seed) left there.
    outs = []
    _arena_probe(monkeypatch, outs.append)
    u = np.empty((5, 33))
    rng.uniform_filler(3, rng.CH_PHASE, 33)(u, 0)
    _one_arena(outs)
    _assert_fresh_rows(u, 3, 0, rng.CH_PHASE)
    fillers = [(11, 1), (2**64 - 1, 20), (2**63 + 5, 88)]
    fillers = [(seed, count, rng.uniform_filler(seed, rng.CH_ADDITIVE, count))
               for seed, count in fillers]
    for first in (2**64 - 3, 40, 7):
        for seed, count, fill in fillers:
            outs.clear()
            u = np.empty((6, count))
            fill(u, first)
            _one_arena(outs)
            _assert_fresh_rows(u, seed, first, rng.CH_ADDITIVE)


def test_concurrent_fills_take_separate_arenas(monkeypatch):
    # Each thread waits inside its fill, after taking its arena, until the
    # other has taken one too, so the two fills run at the same time.
    barrier = threading.Barrier(2, timeout=60)
    outs = {}

    def meet(out):
        ident = threading.get_ident()
        if len(outs) < 2 and ident not in outs:
            outs[ident] = out
            barrier.wait()

    _arena_probe(monkeypatch, meet)
    seed, first, count = 2**64 + 3, 2**64 - 2, 20
    results, errors = {}, []

    def run(channel):
        try:
            u = np.empty((7, count))
            rng.uniform_filler(seed, channel, count)(u, first)
            results[channel] = u
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(channel,))
               for channel in (rng.CH_PHASE, rng.CH_ADDITIVE)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not errors and not any(t.is_alive() for t in threads)
    one, other = outs.values()
    assert not np.shares_memory(one, other)
    for channel, u in results.items():
        assert np.array_equal(
            u, rng._uniforms_block(seed, first, 7, channel, count))
        _assert_fresh_rows(u, seed, first, channel)


def test_fills_on_more_threads_than_cores_keep_their_bits():
    # an arena two fills shared would move a fill's bits
    n_threads, n_fills, count = 4, 25, 20
    want = [rng._uniforms_block(7, 50 * i, 50, i % 2, count)
            for i in range(n_threads)]
    errors = []

    def run(i):
        fill = rng.uniform_filler(7, i % 2, count)
        try:
            for _ in range(n_fills):
                u = np.empty((50, count))
                fill(u, 50 * i)
                assert np.array_equal(u, want[i])
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)


def test_a_failing_fill_leaves_the_next_fill_its_bits():
    # the failing call's arena goes with it; the next call starts afresh
    fill = rng.uniform_filler(1, rng.CH_PHASE, 20)
    with pytest.raises(ValueError):
        fill(np.empty((4, 21)), 0)  # u has the wrong shape
    u = np.empty((4, 20))
    fill(u, 0)
    _assert_fresh_rows(u, 1, 0, rng.CH_PHASE)


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
