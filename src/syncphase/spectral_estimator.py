"""Single-bin DFT phase estimation.

The estimator is the complex DFT coefficient at the (synchronous) tone bin,

    D = sum_n s[n] * exp(-2j*pi*k*n/N),

reduced by its noise-free magnitude A*N/2 and passed through arg().  The
production evaluation uses the Goertzel recurrence (one real multiply per
sample); a compensated-summation reference evaluation of the same coefficient
is kept alongside as an independent numerical route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, OutOfRange, ZeroVector
from .signal_model import (
    SignalParams,
    SignalRealization,
    noisy_records,
    snr_linear,
)

TWO_PI = 2.0 * math.pi


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
    _check_bin(s.shape[0], k)
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

    w = TWO_PI * k / n_samples
    coeff = 2.0 * math.cos(w)
    v1 = np.zeros(m)
    v2 = np.zeros(m)
    for n in range(n_samples):
        v0 = s[:, n] + coeff * v1 - v2
        v2 = v1
        v1 = v0
    return v1 * cmath.exp(1j * w) - v2


def dft_bin_reference(samples: np.ndarray, k: int) -> complex:
    """Direct-sum DFT coefficient with exact (compensated) accumulation.

    Twiddles are taken from a length-N root table indexed by (k*n) mod N, and
    the real/imaginary parts are accumulated with math.fsum, so the only
    rounding left is one product per sample.  This is the cross-check route
    for :func:`dft_bin`; it costs Python-loop time and is not meant for bulk
    work.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1:
        raise OutOfRange("samples must be a 1-D array")
    n_samples = s.shape[0]
    _check_bin(n_samples, k)

    idx = (k * np.arange(n_samples, dtype=np.int64)) % n_samples
    angles = idx * (TWO_PI / n_samples)
    re = math.fsum((s * np.cos(angles)).tolist())
    im = math.fsum((s * (-np.sin(angles))).tolist())
    return complex(re, im)


@dataclass(frozen=True)
class PhaseStatistic:
    """Reduced DFT statistic and the phase estimate derived from it."""

    d_reduced: complex
    phase_estimate: float  # radians in (-pi, pi]


def _principal(angle: float) -> float:
    # atan2 covers [-pi, pi]; fold the single -pi endpoint onto +pi
    return math.pi if angle == -math.pi else angle


def estimate_phase(realization: SignalRealization) -> PhaseStatistic:
    """Extract the phase estimate from one record.

    Raises OutOfRange when a sample is nan or infinite, and ZeroVector when
    the record (or the bin statistic itself) is identically zero, in which
    case arg() is undefined.
    """
    samples = realization.samples
    params = realization.params
    if samples.shape[0] == 0:
        raise EmptyInput("realization carries no samples")
    if not np.all(np.isfinite(samples)):
        raise OutOfRange("record holds a non-finite sample: phase is undefined")
    if not np.any(samples):
        raise ZeroVector("all-zero record: phase is undefined")

    d = dft_bin(samples, params.bin_index)
    d_reduced = 2.0 * d / (params.amplitude * params.n_samples)
    if d_reduced == 0:
        raise ZeroVector("DFT bin statistic is zero: phase is undefined")
    return PhaseStatistic(
        d_reduced=d_reduced,
        phase_estimate=_principal(math.atan2(d_reduced.imag, d_reduced.real)),
    )


@dataclass(frozen=True)
class TheoreticalMoments:
    """First/second moments of the reduced bin statistic, plus the context
    (record length, SNR, true phase) the downstream analysis needs."""

    mean: complex          # beta_p * e^{j*phase}
    variance: float        # total complex variance E|D - E D|^2
    beta_p: float          # phase-noise attenuation e^{-sigma_phase^2/2}
    sigma2: float          # per-axis variance = variance / 2
    n_samples: int
    snr: float             # linear SNR, may be +inf
    phase: float

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def theoretical_moments(params: SignalParams) -> TheoreticalMoments:
    """Moments of the reduced statistic: mean beta_p e^{j phi}, per-axis
    variance (1 - beta_p^2 + 1/SNR)/N split equally between the two axes."""
    sp2 = params.sigma_phase**2
    beta_p = math.exp(-0.5 * sp2)
    one_minus_beta_sq = -math.expm1(-sp2)  # 1 - beta_p^2, accurate for tiny sigma
    snr = snr_linear(params)
    variance = (2.0 / params.n_samples) * (one_minus_beta_sq + 1.0 / snr)
    mean = beta_p * cmath.exp(1j * params.phase)
    return TheoreticalMoments(
        mean=mean,
        variance=variance,
        beta_p=beta_p,
        sigma2=variance / 2.0,
        n_samples=params.n_samples,
        snr=snr,
        phase=params.phase,
    )


def reduced_dft_draws(
    params: SignalParams, master_seed: int, first_draw: int, n_draws: int
) -> np.ndarray:
    """Reduced bin statistics for draws [first_draw, first_draw + n_draws).

    Entry j reproduces estimate_phase(generate(params, master_seed,
    first_draw + j)).d_reduced: the records come from the same batched
    synthesis, and the bin statistic from the same Goertzel recurrence.
    Raises OutOfRange when the records, their sum or the scale A*N
    overflowed.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        signal = noisy_records(params, master_seed, first_draw, n_draws)
        d = dft_bin_batch(signal, params.bin_index)
        scale = params.amplitude * params.n_samples
        reduced = 2.0 * d / scale
    # an infinite scale would quietly reduce a finite sum to 0
    if not (math.isfinite(scale) and np.all(np.isfinite(reduced))):
        raise OutOfRange("a bin statistic overflowed: amplitude, noise or "
                         "record length too large")
    return reduced
