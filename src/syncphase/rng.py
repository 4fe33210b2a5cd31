"""Deterministic, counter-based Gaussian streams.

Reproducibility contract: the noise consumed by draw ``d`` of a Monte-Carlo
run is a pure function of ``(master_seed, d, channel)`` — no global state, no
dependence on batching, chunking or worker count.  Each (draw, channel) pair
owns a private Philox-4x64 counter block: the key is ``[seed mod 2^64,
_KEY_SALT]`` and the stream starts at counter ``[0, draw mod 2^64, channel,
0]``.  Standard normals are produced by applying the inverse normal CDF to
the counter-based uniform stream.

A block call builds one Philox per (seed, channel) and, for each draw,
resets its counter to ``[0, draw, channel, 0]`` with an empty output buffer.
That is exactly the state of a Philox freshly built for that substream, so
the streams are those of a per-draw construction without its set-up cost.
The counter is reset rather than advanced: advancing carries out of the draw
word into the channel word when the draw index wraps past 2^64.

Channels:
    CH_PHASE    multiplicative phase-noise samples
    CH_ADDITIVE additive noise samples
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

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


def _uniforms_block(
    seed: int, first_draw: int, n_draws: int, channel: int, count: int
) -> np.ndarray:
    """(n_draws, count) uniforms on (0, 1); row j is substream first_draw + j."""
    if n_draws < 0:
        raise ValueError("n_draws must be non-negative")
    if count < 0:
        raise ValueError("count must be non-negative")
    # The key must be a uint64 array: Philox converts a plain list through
    # float64, which rounds the salt to a different key.
    bit_gen = np.random.Philox(
        key=np.array([seed & _MASK64, _KEY_SALT], dtype=np.uint64)
    )
    gen = np.random.Generator(bit_gen)
    # The state of a fresh generator: counter zero, output buffer empty
    # (buffer_pos 4).  The generator never writes to this dict, so assigning
    # it back after setting the draw word restarts the buffer as well.  The
    # counter is a list because the state setter reads Python ints faster
    # than uint64 array items.
    state = bit_gen.state
    counter = [0, 0, channel, 0]
    state["state"]["counter"] = counter
    u = np.empty((n_draws, count))
    for j, row in enumerate(u):
        counter[1] = (first_draw + j) & _MASK64
        bit_gen.state = state
        gen.random(out=row)
    u += _HALF_STEP
    return u


def uniforms(seed: int, draw_index: int, channel: int, count: int) -> np.ndarray:
    """Counter-based uniforms on (0, 1) for one (draw, channel) substream."""
    return _uniforms_block(seed, draw_index, 1, channel, count)[0]


def standard_normals(seed: int, draw_index: int, channel: int, count: int) -> np.ndarray:
    """Standard normal samples for one (draw, channel) substream."""
    return standard_normals_block(seed, draw_index, 1, channel, count)[0]


def standard_normals_block(
    seed: int, first_draw: int, n_draws: int, channel: int, count: int
) -> np.ndarray:
    """Stack per-draw substreams into an (n_draws, count) matrix.

    Row ``j`` is bit-identical to ``standard_normals(seed, first_draw + j,
    channel, count)`` — batching is layout only, never a different stream.
    """
    u = _uniforms_block(seed, first_draw, n_draws, channel, count)
    return ndtri(u, out=u)
