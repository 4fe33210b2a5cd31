"""Single-bin DFT phase estimation.

The estimator is the complex DFT coefficient at the (synchronous) tone bin,

    D = sum_n s[n] * exp(-2j*pi*k*n/N),

reduced by its noise-free magnitude A*N/2 and passed through arg().  The
coefficient comes from the Goertzel recurrence (one real multiply per
sample); the tests check it against a compensated-summation direct sum.
Each chunk's records come from ``signal_model.noisy_records``, which
decides how a batch is drawn and on how many threads.

Portability: the draws (Philox words, ``ndtri``, cosine synthesis and the
Goertzel recurrence) give the same bits with or without NumPy's AVX-512
kernels.  arg() goes through ``np.arctan2``, whose bits NumPy takes from an
AVX-512 kernel where the CPU has one, so a phase is bit-identical for one
NumPy build on one CPU feature set, whatever the chunking or thread
count.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .errors import EmptyInput, LengthMismatch, OutOfRange, ZeroVector
from .signal_model import SignalParams, noisy_records, snr_linear


def _check_bin(n_samples: int, k: int) -> None:
    if n_samples < 1:
        raise EmptyInput("need at least one sample")
    if not (0 < k < n_samples / 2):
        raise OutOfRange(
            f"bin index must satisfy 0 < k < N/2, got k={k}, N={n_samples}"
        )


def dft_bin(samples: np.ndarray, k: int) -> complex:
    """DFT coefficient at bin k of one record: :func:`dft_bin_batch` on a
    one-row matrix."""
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1:
        raise OutOfRange("samples must be a 1-D array")
    return complex(dft_bin_batch(s[None, :], k)[0])


def dft_bin_batch(matrix: np.ndarray, k: int) -> np.ndarray:
    """DFT coefficient at bin k of each row of an (m, N) matrix of records,
    via the Goertzel recurrence.

    v[n] = s[n] + 2*cos(w)*v[n-1] - v[n-2] with w = 2*pi*k/N, finalized as
    D = v[N-1]*e^{jw} - v[N-2], which equals sum_n s[n] e^{-j w n} for the
    synchronous case w = 2*pi*k/N.  The recurrence runs across all rows at
    once; each row sees the same operations in the same order, so a row's
    result does not depend on the other rows.
    """
    s = np.asarray(matrix, dtype=float)
    if s.ndim != 2:
        raise OutOfRange("matrix must be 2-D (draws x samples)")
    m, n_samples = s.shape
    _check_bin(n_samples, k)

    w = math.tau * k / n_samples
    coeff = 2.0 * math.cos(w)
    v1 = np.zeros(m)
    v2 = np.zeros(m)
    v0 = np.empty(m)
    for n in range(n_samples):
        # (s[n] + coeff*v1) - v2, in place: IEEE addition commutes
        np.multiply(v1, coeff, out=v0)
        v0 += s[:, n]
        v0 -= v2
        v0, v1, v2 = v2, v0, v1
    return v1 * cmath.exp(1j * w) - v2


@dataclass(frozen=True)
class PhaseStatistic:
    """Reduced DFT statistic and the phase estimate derived from it."""

    d_reduced: complex
    phase_estimate: float  # radians in (-pi, pi]


def principal_phase(d: np.ndarray) -> np.ndarray:
    """arg() of each statistic in the 1-D array d, in (-pi, pi]: np.arctan2
    with its -pi endpoint folded onto +pi.  The one arg() of the package."""
    phase = np.arctan2(d.imag, d.real)
    phase[phase == -math.pi] = math.pi
    return phase


def estimate_phase(samples: np.ndarray, params: SignalParams) -> PhaseStatistic:
    """Phase estimate of one record drawn with the configuration params.

    Raises LengthMismatch when the record does not hold params.n_samples
    samples, OutOfRange when a sample is nan or infinite, A*N is too small
    (see _reduction_scale), or the statistic or A*N overflowed, and
    ZeroVector when the record (or the bin statistic itself) is identically
    zero, in which case arg() is undefined.
    """
    if len(samples) == 0:
        raise EmptyInput("record holds no samples")
    if len(samples) != params.n_samples:
        raise LengthMismatch(f"record holds {len(samples)} samples, the "
                             f"configuration N = {params.n_samples}")
    if not np.all(np.isfinite(samples)):
        raise OutOfRange("record holds a non-finite sample: phase is undefined")
    if not np.any(samples):
        raise ZeroVector("all-zero record: phase is undefined")

    scale = _reduction_scale(params)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        d_reduced = complex(_reduce(dft_bin(samples, params.bin_index), scale))
    _check_finite(scale, d_reduced)
    if d_reduced == 0:
        raise ZeroVector("DFT bin statistic is zero: phase is undefined")
    return PhaseStatistic(
        d_reduced=d_reduced,
        phase_estimate=float(principal_phase(np.array([d_reduced]))[0]),
    )


@dataclass(frozen=True)
class TheoreticalMoments:
    """First/second moments of the reduced bin statistic, plus the context
    (record length, SNR, true phase) the downstream analysis needs."""

    mean: complex          # beta_p * e^{j*phase}
    variance: float        # total complex variance E|D - E D|^2
    beta_p: float          # phase-noise attenuation e^{-sigma_phase^2/2}
    one_minus_beta_sq: float  # 1 - beta_p^2 = -expm1(-sigma_phase^2), exact
    sigma2: float          # per-axis variance = variance / 2
    n_samples: int
    snr: float             # linear SNR, may be +inf
    phase: float


def theoretical_moments(params: SignalParams) -> TheoreticalMoments:
    """Moments of the reduced statistic: mean beta_p e^{j phi}, per-axis
    variance (1 - beta_p^2 + 1/SNR)/N split equally between the two axes."""
    try:
        sp2 = params.sigma_phase**2
    except OverflowError:  # ** raises where * would give inf: beta_p = 0
        sp2 = math.inf
    beta_p = math.exp(-0.5 * sp2)
    one_minus_beta_sq = -math.expm1(-sp2)  # not (1-b)(1+b): b is rounded
    snr = snr_linear(params)
    variance = (2.0 / params.n_samples) * (one_minus_beta_sq + 1.0 / snr)
    mean = beta_p * cmath.exp(1j * params.phase)
    return TheoreticalMoments(
        mean=mean,
        variance=variance,
        beta_p=beta_p,
        one_minus_beta_sq=one_minus_beta_sq,
        sigma2=variance / 2.0,
        n_samples=params.n_samples,
        snr=snr,
        phase=params.phase,
    )


# target samples per chunk; keeps peak memory flat across record lengths
_CHUNK_BUDGET = 4_000_000


def draw_chunks(n_samples: int, n_draws: int) -> Iterator[Tuple[int, int]]:
    """(start, stop) ranges that cover draws [0, n_draws) in order, each of
    at most ``_CHUNK_BUDGET`` samples, or one draw when a record of
    n_samples alone exceeds it.  The one chunk schedule of the package."""
    chunk = max(1, _CHUNK_BUDGET // max(1, n_samples))
    for start in range(0, n_draws, chunk):
        yield start, min(start + chunk, n_draws)


def _reduction_scale(params: SignalParams) -> float:
    """A*N.  NumPy divides by it as a product with 1/(A*N), so a subnormal
    A*N, whose reciprocal overflows, raises OutOfRange."""
    scale = params.amplitude * params.n_samples
    if math.isinf(1.0 / scale):
        raise OutOfRange(f"A*N = {scale!r} is too small: 1/(A*N) overflows")
    return scale


def _reduce(d, scale: float, out: Optional[np.ndarray] = None):
    """2*D/(A*N) for the single-record and the batched path alike."""
    return np.divide(2.0 * d, scale, out=out)


def _check_finite(scale: float, reduced) -> None:
    # an infinite scale would quietly reduce a finite sum to 0
    if not (math.isfinite(scale) and np.all(np.isfinite(reduced))):
        raise OutOfRange("a bin statistic overflowed: amplitude, noise or "
                         "record length too large")


def reduced_dft_draws(
    params: SignalParams, master_seed: int, first_draw: int, n_draws: int
) -> np.ndarray:
    """Reduced bin statistics for draws [first_draw, first_draw + n_draws).

    Entry j reproduces estimate_phase(generate(params, master_seed,
    first_draw + j), params).d_reduced: the records come from the same batched
    synthesis, the bin statistic from the same Goertzel recurrence and
    reduction.  Raises OutOfRange before any draw when A*N is too small,
    and after them when the records, their sum or the scale A*N overflowed.

    The draws are computed in the chunks of :func:`draw_chunks`, so memory
    beyond the 16 bytes per draw of the result does not grow with the
    batch.  Each chunk's records come from
    :func:`~syncphase.signal_model.noisy_records`, whose builder decides
    how the chunk is drawn and on how many threads; this thread then runs
    one Goertzel recurrence over the chunk and reduces it.  Every draw is
    a pure function of (seed, draw, channel), and its row passes through
    the same row-wise operations in any chunk, unit or thread, so the
    chunking is layout only and the result has the same bits.
    """
    if n_draws < 0:
        raise OutOfRange("n_draws must be non-negative")
    scale = _reduction_scale(params)
    reduced = np.empty(n_draws, dtype=complex)
    for start, stop in draw_chunks(params.n_samples, n_draws):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            # one expression, so a chunk's records are freed before the next
            _reduce(dft_bin_batch(noisy_records(params, master_seed,
                                                first_draw + start,
                                                stop - start),
                                  params.bin_index),
                    scale, out=reduced[start:stop])
    _check_finite(scale, reduced)
    return reduced
