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
it, so the package's one schedule of a batch
(``signal_model.RecordUnits.build``) makes every fill on the calling
thread and, in large batches, shares the transforms with a worker thread.
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
and 0.87x at 96.  Kernel time over native time for ``reduced_dft_draws``
at 0 dB and 1 degree, medians of interleaved runs (31 at 2*10^5 samples for
counts 96 to 112, 21 above; 9 at 4*10^6), on one thread:

    count            96    100   104   108   112   120   128   200   256
    one thread, 2e5  0.91  0.96  1.13  1.08  1.02  1.09  1.11  1.24  1.32
    one thread, 4e6  1.00  0.99  0.95  1.00  0.91  0.82  0.97  1.22  1.25

On one thread the kernel stops winning after 100: at 100 it won 26 of 31
small batches, from 104 to 112 at most 14 of 31, at 120 and above none
of 21.  With every fill on the calling thread and the transforms shared
with a worker, the crossover is lower (61 runs at 2*10^5, 9 at 4*10^6):

    count            80    84    88    92    96    100
    two threads, 2e5 1.00  1.06  1.08  1.12  1.15  1.15
    two threads, 4e6 0.89  0.98  0.95  0.96  1.00  1.09

In other sets of 31 to 61 runs at 2*10^5 (five at 80, four at 84 and 88)
the ratio was 0.89 to 1.02 at 80 and 0.97 to 1.12 at 84 and 88.  80 is
the largest count at which the kernel came within 2% of the native loop
in every set at either size, so the kernel fills counts up to 80 and the
native loop longer records.  On one CPU, counts 81 to 100 fill up to 9%
slower than they could.

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
_KERNEL_MAX_COUNT = 80
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


def unit_rows(count: int) -> int:
    """Draws per unit of work at ``count`` samples per substream: the draws
    whose Philox blocks make one kernel sub-block, at least one."""
    return max(1, _SUB_BLOCK // max(1, -(-count // 4)))


def _philox_filler(key0: int, channel: int, count: int,
                   max_rows: int) -> Callable[[np.ndarray, int], None]:
    """fill(u, first_draw) for the NumPy kernel: row j of u (n_draws,
    count) gets the ``random()`` values, (w >> 11) * 2^-53, of the first
    ``count`` words of the Philox blocks [b, first_draw + j, channel, 0],
    b = 1, 2, ...  The work buffers hold one sub-block of at most
    ``max_rows`` draws and are reused by every call."""
    n_blocks = -(-count // 4)
    rows = min(max(1, max_rows), unit_rows(count))
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

    def fill(u: np.ndarray, first_draw: int) -> None:
        n_draws = u.shape[0]
        if n_blocks == 0:
            return
        for start in range(0, n_draws, rows):
            m = min(rows, n_draws - start)
            x0, x1, x2, x3, h0, h1, s0, s1, s2 = bufs[:, :m]
            # uint64 arithmetic wraps, so the draw word is taken mod 2^64
            np.add(offsets[:m], np.uint64((first_draw + start) & _MASK64),
                   out=x0)
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
                x0, x2, h0, h1 = h1, h0, x2, x0  # old x0, x2 are free again
                k0 = (k0 + _PHILOX_W[0]) & _MASK64
                k1 = (k1 + _PHILOX_W[1]) & _MASK64
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


def uniform_filler(seed: int, channel: int, count: int,
                   max_rows: int) -> Callable[[np.ndarray, int], None]:
    """fill(u, first_draw): the uniforms on (0, 1) of substreams
    first_draw + j of ``channel``, written into the rows of u, an
    (n_draws, count) float array.  The fill stage: the filler keeps its
    generator or kernel buffers (sized for ``max_rows`` draws) from call to
    call, so one thread makes every call of one filler."""
    key0 = seed & _MASK64
    if count <= _KERNEL_MAX_COUNT:
        fill_words = _philox_filler(key0, channel, count, max_rows)
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
    uniform_filler(seed, channel, count, n_draws)(u, first_draw)
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
