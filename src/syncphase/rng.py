"""Deterministic, counter-based Gaussian streams.

Reproducibility contract: the noise consumed by draw ``d`` of a Monte-Carlo
run is a pure function of ``(master_seed, d, channel)`` — no global state, no
dependence on batching, chunking or thread.  Each (draw, channel) pair
owns a private Philox-4x64 counter block: the key is ``[seed mod 2^64,
_KEY_SALT]`` and the stream starts at counter ``[0, draw mod 2^64, channel,
0]``.  Standard normals are produced by applying the inverse normal CDF to
the counter-based uniform stream in :func:`standard_normals_block`, the one
normal-stream function.  ``spectral_estimator.reduced_dft_draws`` fills the
two halves of a large batch on two threads at once; each call builds its
own generator or kernel buffers and a row's words depend only on its
substream, so the split is layout only and gives the same bits.  The
normals are also the same bits with or without NumPy's AVX-512 kernels
(tests/test_portability.py): the Philox words are integer arithmetic and
``ndtri`` is SciPy's own scalar code.

Two paths fill a block, chosen by ``count`` (samples per substream); both
give the words of a Philox freshly built for each substream:

* ``count <= _KERNEL_MAX_COUNT``: a NumPy Philox4x64-10 kernel.  A fresh
  Philox increments counter word 0 before each 4-word block, so block b of
  draw d is the Philox function of ``[b, d, channel, 0]``,
  b = 1..ceil(count/4).  The kernel evaluates these counters for many draws
  at once, with 64x64-bit products built from 32-bit limbs.
* above it, the native loop: one Philox per (seed, channel) whose counter is
  reset, for each draw, to ``[0, draw, channel, 0]`` with an empty output
  buffer.  The counter is reset rather than advanced: advancing carries out
  of the draw word into the channel word when the draw index wraps past 2^64.

The crossover is measured, not tuned per caller.  At short records the
native loop's cost is the per-draw state setter and ``random`` call (about
3 us per substream), not the Philox arithmetic, and the kernel avoids both;
its own cost grows with ``count``.  Filling 2000 draws on 2 cores
(NumPy 2.4), the kernel took 0.3x the native time at count 20, 0.6x at 48
and 0.87x at 96.  The native loop holds the GIL, so under
``reduced_dft_draws``' two-thread split it does not scale, while the kernel
does.  Kernel time over native time for ``reduced_dft_draws`` at 0 dB and
1 degree, medians of interleaved runs (31 at 2*10^5 samples for counts 96
to 112, 21 above; 9 at 4*10^6):

    count            96    100   104   108   112   120   128   200   256
    one thread, 2e5  0.91  0.96  1.13  1.08  1.02  1.09  1.11  1.24  1.32
    one thread, 4e6  1.00  0.99  0.95  1.00  0.91  0.82  0.97  1.22  1.25
    two threads, 4e6 0.65  0.72   -     -    0.74  0.72  0.71  0.95  1.09

Split, the kernel wins up to 200.  On one thread it stops winning after
100: at 100 it won 26 of 31 small batches, from 104 to 112 at most 14 of
31, at 120 and above none of 21.  So the kernel fills counts up to 100
and the native loop longer records.

The kernel works in sub-blocks of ``_SUB_BLOCK`` Philox blocks (3276 draws
at count 20) over one set of work buffers (about 1.8 MB), updated in
place, so its memory does not grow with ``n_draws`` and the buffers stay in
cache.  For a 200k-draw chunk at count 20, one pass over the whole chunk
took 0.29 s and 106 MB of work buffers; sub-blocked, 0.14 s and 1.8 MB.

Channels:
    CH_PHASE    multiplicative phase-noise samples
    CH_ADDITIVE additive noise samples
"""

from __future__ import annotations

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


def _philox_fill(u: np.ndarray, key0: int, first_draw: int, channel: int) -> None:
    """Fill u (n_draws, count) with ``random()`` values, (w >> 11) * 2^-53, of
    substreams first_draw + j: row j holds the first ``count`` words of the
    Philox blocks [b, first_draw + j, channel, 0], b = 1, 2, ..."""
    n_draws, count = u.shape
    n_blocks = -(-count // 4)
    if n_draws == 0 or n_blocks == 0:
        return
    rows = min(n_draws, max(1, _SUB_BLOCK // n_blocks))
    # counter words x0..x3, high products h0, h1, work s0..s2
    bufs = np.empty((9, rows, n_blocks), dtype=np.uint64)
    words = np.empty((rows, n_blocks, 4), dtype=np.uint64)
    offsets = np.arange(rows, dtype=np.uint64)[:, None]
    m0, m1 = np.uint64(_PHILOX_M[0]), np.uint64(_PHILOX_M[1])
    # Round 1 multiplies only b and the channel, so it is done once here in
    # Python ints; the draw word enters it through an XOR alone.
    p_ch = channel * _PHILOX_M[1]
    p_b = [b * _PHILOX_M[0] for b in range(1, n_blocks + 1)]
    x2_first = np.array([(p >> 64) ^ _KEY_SALT for p in p_b], dtype=np.uint64)
    x3_first = np.array([p & _MASK64 for p in p_b], dtype=np.uint64)
    for start in range(0, n_draws, rows):
        m = min(rows, n_draws - start)
        x0, x1, x2, x3, h0, h1, s0, s1, s2 = bufs[:, :m]
        # uint64 arithmetic wraps, so the draw word is taken mod 2^64
        np.add(offsets[:m], np.uint64((first_draw + start) & _MASK64), out=x0)
        x0 ^= np.uint64((p_ch >> 64) ^ key0)
        x1.fill(p_ch & _MASK64)
        x2[...] = x2_first
        x3[...] = x3_first
        k0 = (key0 + _PHILOX_W[0]) & _MASK64
        k1 = (_KEY_SALT + _PHILOX_W[1]) & _MASK64
        for _ in range(_PHILOX_ROUNDS - 1):
            # (x0, x1, x2, x3) <- (hi(x2 M1) ^ x1 ^ k0, lo(x2 M1),
            #                      hi(x0 M0) ^ x3 ^ k1, lo(x0 M0))
            _mulhi(x2, _PHILOX_M[1], h1, s0, s1, s2)
            h1 ^= x1
            h1 ^= np.uint64(k0)
            np.multiply(x2, m1, out=x1)
            _mulhi(x0, _PHILOX_M[0], h0, s0, s1, s2)
            h0 ^= x3
            h0 ^= np.uint64(k1)
            np.multiply(x0, m0, out=x3)
            x0, x2, h0, h1 = h1, h0, x2, x0  # old x0, x2 are free for reuse
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            k1 = (k1 + _PHILOX_W[1]) & _MASK64
        w = words[:m]
        for i, x in enumerate((x0, x1, x2, x3)):
            np.right_shift(x, _SHIFT11, out=w[:, :, i])
        np.multiply(
            w.reshape(m, 4 * n_blocks)[:, :count], 2.0 ** -53,
            out=u[start:start + m],
        )


def _native_fill(u: np.ndarray, key0: int, first_draw: int, channel: int) -> None:
    """Fill u (n_draws, count) with ``random()`` values of substreams
    first_draw + j from one native Philox whose counter is reset per draw."""
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
    for j, row in enumerate(u):
        counter[1] = (first_draw + j) & _MASK64
        bit_gen.state = state
        gen.random(out=row)


def _uniforms_block(
    seed: int, first_draw: int, n_draws: int, channel: int, count: int
) -> np.ndarray:
    """(n_draws, count) uniforms on (0, 1); row j is substream first_draw + j."""
    if n_draws < 0:
        raise OutOfRange("n_draws must be non-negative")
    if count < 0:
        raise OutOfRange("count must be non-negative")
    u = np.empty((n_draws, count))
    fill = _philox_fill if count <= _KERNEL_MAX_COUNT else _native_fill
    fill(u, seed & _MASK64, first_draw, channel)
    u += _HALF_STEP
    return u


def standard_normals_block(
    seed: int, first_draw: int, n_draws: int, channel: int, count: int
) -> np.ndarray:
    """(n_draws, count) standard normals; row j is substream first_draw + j,
    bit for bit its one-row block — batching is layout only, never a
    different stream.  The package's one normal-stream function."""
    u = _uniforms_block(seed, first_draw, n_draws, channel, count)
    return ndtri(u, out=u)
