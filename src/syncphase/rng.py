"""Deterministic, counter-based Gaussian streams.

Reproducibility contract: the noise consumed by draw ``d`` of a Monte-Carlo
run is a pure function of ``(master_seed, d, channel)`` — no global state, no
dependence on batching, chunking or thread.  Each (draw, channel) pair
owns a private Philox-4x64 counter block: the key is ``[seed mod 2^64,
_KEY_SALT]`` and the stream starts at counter ``[0, draw mod 2^64, channel,
0]``.  Standard normals are produced by applying the inverse normal CDF to
the counter-based uniform stream in :func:`standard_normals_block`, the one
normal-stream function.  It is two stages in one call, which the package
also runs apart: :func:`uniform_filler` makes the uniforms (the fill
stage) and :func:`to_normals` turns them into normals (``ndtri``).  The
fill stage holds the GIL for many small calls and ``ndtri`` runs without
it, so ``signal_model.RecordUnits.build``, the package's one builder of
a batch and the one place that starts a thread for it, makes every fill on
this thread and, in large batches, shares the transforms with a worker.
A row's words depend only on its substream, so which call or thread
fills it is layout only and gives the same bits.  The normals are also
the same bits with or without NumPy's AVX-512 kernels
(tests/test_portability.py): the Philox words are integer arithmetic and
``ndtri`` is SciPy's own scalar code.

Two paths fill a block, chosen by ``count`` (samples per substream); both
give the words of a Philox freshly built for each substream:

* ``count <= _KERNEL_MAX_COUNT``: a NumPy Philox4x64-10 kernel.  A fresh
  Philox increments counter word 0 before each 4-word block, so block b of
  draw d is the Philox function of ``[b, d, channel, 0]``,
  b = 1..ceil(count/4).  The kernel evaluates these counters for many draws
  at once, with 64x64-bit products built from 32-bit limbs, and runs each
  of the first three rounds on what its words depend on.  After round 1,
  x0 depends on the draw alone, x1 is a constant, and x2 and x3 depend on
  the block alone.  Round 1 and the block parts of rounds 2 and 3 are
  Python ints, computed once per filler; round 2 multiplies x0 on a
  (draws, 1) column and XORs it with a block row into x2; round 3
  multiplies only x2 on the full (draws, blocks) arrays and leaves x3
  block-only, which round 4 XORs in as a row.  Rounds 4 to 10 run on the
  full arrays: 15 full-size high products per sub-block instead of 18.
* above it, the native loop: one Philox per (seed, channel) whose counter is
  reset, for each draw, to ``[0, draw, channel, 0]`` with an empty output
  buffer.  The counter is reset rather than advanced: advancing carries out
  of the draw word into the channel word when the draw index wraps past 2^64.

The crossover is measured, not tuned per caller.  At short records the
native loop's cost is the per-draw state setter and ``random`` call (about
3 us per substream), not the Philox arithmetic, and the kernel avoids
both; its own cost grows with the ceil(count/4) Philox blocks of a
substream.  Kernel time over native time for
``reduced_dft_draws`` at 0 dB and 1 degree, every fill on the calling
thread and the transforms shared with a worker (2 cores, NumPy 2.4),
lowest and highest median of interleaved runs, each set in a fresh
process: eight sets of 41 runs at 2*10^5 samples and four sets of 9 at
4*10^6:

    count  92         96         100        104        108        112
    2e5    0.93-0.96  0.95-0.97  0.95-0.98  0.99-1.04  0.99-1.01  1.03-1.08
    4e6    0.86-0.91  0.88-0.94  0.90-0.96  0.95-1.00  0.93-0.98  0.99-1.04

100 is the largest count up to which the kernel came within 2% of the
native loop in every set at both sizes (104 reached 1.035 in one set), so
the kernel fills counts up to 100 and the native loop longer records.

The kernel works in sub-blocks of ``_SUB_BLOCK`` Philox blocks (3276 draws
at count 20), updated in place in one arena of work memory
(``_ARENA_WORDS``, about 2.4 MB) that each fill allocates for the call
(package docstring), so its memory does not grow with ``n_draws``, the
arena stays in cache and concurrent fills never share one.  For a
200k-draw chunk at count 20, one pass over the whole chunk took 0.29 s
and 106 MB of work buffers; sub-blocked, 0.14 s and 1.8 MB.  A fill
writes every arena word before it reads it, so what ``np.empty`` leaves
there changes no bit.

Channels:
    CH_PHASE    multiplicative phase-noise samples
    CH_ADDITIVE additive noise samples
"""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .errors import OutOfRange

CH_PHASE = 0
CH_ADDITIVE = 1

_MASK64 = (1 << 64) - 1
# Fixed key salt (64-bit golden ratio); keeps the key space disjoint from the
# bare user seed and gives Philox a full 128-bit key.
_KEY_SALT = 0x9E3779B97F4A7C15

# random() yields (w >> 11) * 2^-53 for a raw 64-bit word w; adding 2^-54
# centers each lattice cell so u lies in the OPEN interval (0, 1) and ndtri
# stays finite.
_HALF_STEP = 2.0 ** -54

# Philox4x64-10 multipliers and key increments (Salmon et al., SC'11), as in
# NumPy's Philox.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Largest samples-per-substream count filled by the NumPy kernel; measured,
# see the module docstring.
_KERNEL_MAX_COUNT = 100
# Philox blocks per kernel sub-block.
_SUB_BLOCK = 16384
# uint64 words of one kernel arena: 9 work words and 4 output words per
# Philox block of a sub-block, and 5 draw-column words per draw, of which a
# sub-block holds at most _SUB_BLOCK.
_ARENA_WORDS = 18 * _SUB_BLOCK

_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)


def _mulhi(x, m: int, out, s0, s1, s2) -> None:
    """out = high 64 bits of the 128-bit product x * m, from 32-bit limbs.

    s0, s1 and s2 are work arrays of x's shape."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    np.bitwise_and(x, _LO32, out=s0)
    np.right_shift(x, _SHIFT32, out=out)
    np.multiply(s0, m_lo, out=s1)
    s1 >>= _SHIFT32
    np.multiply(out, m_lo, out=s2)
    s2 += s1  # x_hi * m_lo + carry of x_lo * m_lo: cannot overflow
    s0 *= m_hi
    np.bitwise_and(s2, _LO32, out=s1)
    s0 += s1
    s0 >>= _SHIFT32
    s2 >>= _SHIFT32
    out *= m_hi
    out += s2
    out += s0


def as_int(value, name: str) -> int:
    """value as a Python int, also from a NumPy integer, whose 64-bit
    arithmetic would overflow where a seed or draw word is taken mod 2^64;
    OutOfRange for a non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise OutOfRange(f"{name} must be an integer, got {value!r}") from None


def unit_rows(count: int) -> int:
    """Draws per unit of work at ``count`` samples per substream: the draws
    whose Philox blocks make one kernel sub-block, at least one."""
    return max(1, _SUB_BLOCK // max(1, -(-count // 4)))


def _philox_filler(key0: int, channel: int,
                   count: int) -> Callable[[np.ndarray, int], None]:
    """fill(u, first_draw) for the NumPy kernel: row j of u (n_draws,
    count) gets the ``random()`` values, (w >> 11) * 2^-53, of the first
    ``count`` words of the Philox blocks [b, first_draw + j, channel, 0],
    b = 1, 2, ...  Each call works in sub-blocks of ``unit_rows(count)``
    draws, in an arena allocated for the call.

    Rounds 1 to 3 are factored by what their words depend on (module
    docstring); rounds 4 to 10 run on full (draws, blocks) arrays."""
    n_blocks = -(-count // 4)
    rows = unit_rows(count)
    size = rows * n_blocks
    offsets = np.arange(rows, dtype=np.uint64)[:, None]
    m0, m1 = np.uint64(_PHILOX_M[0]), np.uint64(_PHILOX_M[1])
    keys = [((key0 + r * _PHILOX_W[0]) & _MASK64,
             (_KEY_SALT + r * _PHILOX_W[1]) & _MASK64)
            for r in range(_PHILOX_ROUNDS)]

    def block_row(values) -> np.ndarray:
        return np.array(values, dtype=np.uint64)

    # Round 1 of [b, d, channel, 0]: x0 = d ^ x0_draw, x1 = x1_ch, and x2
    # and x3 depend on b alone.
    p_ch = channel * _PHILOX_M[1]
    x0_draw = np.uint64((p_ch >> 64) ^ keys[0][0])
    x1_ch = p_ch & _MASK64
    p_b = [b * _PHILOX_M[0] for b in range(1, n_blocks + 1)]
    x2_b = [(q >> 64) ^ keys[0][1] for q in p_b]
    x3_b = [q & _MASK64 for q in p_b]
    # Round 2: x0 and x1 depend on b alone; hi/lo(x0 M0) are draw columns,
    # x2 = hi(x0 M0) ^ r2_x2 and x3 = lo(x0 M0).
    k0, k1 = keys[1]
    q_b = [x * _PHILOX_M[1] for x in x2_b]
    x0_b = [(q >> 64) ^ x1_ch ^ k0 for q in q_b]
    x1_b = [q & _MASK64 for q in q_b]
    r2_x2 = block_row([x ^ k1 for x in x3_b])
    # Round 3: x0 = hi(x2 M1) ^ r3_x0 and x1 = lo(x2 M1) are full size,
    # x2 = (round-2 x3) ^ r3_x2, and x3 = r3_x3 depends on b alone.
    k0, k1 = keys[2]
    q_b = [x * _PHILOX_M[0] for x in x0_b]
    r3_x0 = block_row([x ^ k0 for x in x1_b])
    r3_x2 = block_row([(q >> 64) ^ k1 for q in q_b])
    r3_x3 = block_row([q & _MASK64 for q in q_b])
    full_keys = [(np.uint64(k0), np.uint64(k1)) for k0, k1 in keys[3:]]

    def fill(u: np.ndarray, first_draw: int) -> None:
        if n_blocks == 0:
            return
        arena = np.empty(_ARENA_WORDS, dtype=np.uint64)
        # full-size counter words x0..x3, high products h0, h1, work s0..s2
        bufs = arena[:9 * size].reshape(9, rows, n_blocks)
        words = arena[9 * size:13 * size].reshape(rows, n_blocks, 4)
        # the draw column: round-1 x0, its high product, work c0..c2
        cols = arena[13 * size:13 * size + 5 * rows].reshape(5, rows, 1)
        n_draws = u.shape[0]
        for start in range(0, n_draws, rows):
            m = min(rows, n_draws - start)
            x0, x1, x2, x3, h0, h1, s0, s1, s2 = bufs[:, :m]
            d, dh, c0, c1, c2 = cols[:, :m]
            # uint64 arithmetic wraps, so the draw word is taken mod 2^64
            np.add(offsets[:m], np.uint64((first_draw + start) & _MASK64),
                   out=d)
            d ^= x0_draw
            _mulhi(d, _PHILOX_M[0], dh, c0, c1, c2)
            d *= m0  # round-2 x3
            np.bitwise_xor(dh, r2_x2, out=x2)
            _mulhi(x2, _PHILOX_M[1], x0, s0, s1, s2)
            x0 ^= r3_x0
            np.multiply(x2, m1, out=x1)
            np.bitwise_xor(d, r3_x2, out=x2)
            x3_in = r3_x3
            for k0, k1 in full_keys:
                # (x0, x1, x2, x3) <- (hi(x2 M1) ^ x1 ^ k0, lo(x2 M1),
                #                      hi(x0 M0) ^ x3 ^ k1, lo(x0 M0))
                _mulhi(x2, _PHILOX_M[1], h1, s0, s1, s2)
                h1 ^= x1
                h1 ^= k0
                np.multiply(x2, m1, out=x1)
                _mulhi(x0, _PHILOX_M[0], h0, s0, s1, s2)
                h0 ^= x3_in
                h0 ^= k1
                np.multiply(x0, m0, out=x3)
                x3_in = x3
                x0, x2, h0, h1 = h1, h0, x2, x0  # old x0, x2 are free again
            w = words[:m]
            for i, x in enumerate((x0, x1, x2, x3)):
                np.right_shift(x, _SHIFT11, out=w[:, :, i])
            np.multiply(
                w.reshape(m, 4 * n_blocks)[:, :count], 2.0 ** -53,
                out=u[start:start + m],
            )
    return fill


def _native_filler(key0: int, channel: int) -> Callable[[np.ndarray, int], None]:
    """fill(u, first_draw): row j of u gets the ``random()`` values of
    substream first_draw + j, from one native Philox whose counter is reset
    per draw."""
    # The key must be a uint64 array: Philox converts a plain list through
    # float64, which rounds the salt to a different key.
    bit_gen = np.random.Philox(key=np.array([key0, _KEY_SALT], dtype=np.uint64))
    gen = np.random.Generator(bit_gen)
    # The state of a fresh generator: counter zero, output buffer empty
    # (buffer_pos 4).  The generator never writes to this dict, so assigning
    # it back after setting the draw word restarts the buffer as well.  The
    # counter is a list because the state setter reads Python ints faster
    # than uint64 array items.
    state = bit_gen.state
    counter = [0, 0, channel, 0]
    state["state"]["counter"] = counter

    def fill(u: np.ndarray, first_draw: int) -> None:
        for j, row in enumerate(u):
            counter[1] = (first_draw + j) & _MASK64
            bit_gen.state = state
            gen.random(out=row)
    return fill


def uniform_filler(seed: int, channel: int,
                   count: int) -> Callable[[np.ndarray, int], None]:
    """fill(u, first_draw): the uniforms on (0, 1) of substreams
    first_draw + j of ``channel``, written into the rows of u, an
    (n_draws, count) float array.  The fill stage.  A native filler keeps
    its generator from call to call, so one thread makes every call of one
    filler; a kernel call works in an arena of its own."""
    key0 = as_int(seed, "seed") & _MASK64
    if count <= _KERNEL_MAX_COUNT:
        fill_words = _philox_filler(key0, channel, count)
    else:
        fill_words = _native_filler(key0, channel)

    def fill(u: np.ndarray, first_draw: int) -> None:
        fill_words(u, first_draw)
        u += _HALF_STEP
    return fill


def _uniforms_block(
    seed: int, first_draw: int, n_draws: int, channel: int, count: int
) -> np.ndarray:
    """(n_draws, count) uniforms on (0, 1); row j is substream first_draw + j."""
    if n_draws < 0:
        raise OutOfRange("n_draws must be non-negative")
    if count < 0:
        raise OutOfRange("count must be non-negative")
    u = np.empty((n_draws, count))
    uniform_filler(seed, channel, count)(u, as_int(first_draw, "draw index"))
    return u


def to_normals(u: np.ndarray) -> np.ndarray:
    """Uniforms on (0, 1) into standard normals, in place: ``ndtri``.  The
    transform stage's first step."""
    return ndtri(u, out=u)


def standard_normals_block(
    seed: int, first_draw: int, n_draws: int, channel: int, count: int
) -> np.ndarray:
    """(n_draws, count) standard normals; row j is substream first_draw + j,
    bit for bit its one-row block — batching is layout only, never a
    different stream.  The package's one normal-stream function."""
    return to_normals(_uniforms_block(seed, first_draw, n_draws, channel,
                                      count))
