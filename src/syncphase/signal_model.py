"""Signal model: synchronously sampled sinusoid with additive and phase noise.

A record of ``N`` samples

    s[n] = A * cos(2*pi*f0/fs * n + phase + p[n]) + x[n]

where ``p[n] ~ N(0, sigma_phase^2)`` is per-sample phase noise (radians) and
``x[n] ~ N(0, sigma_additive^2)`` is additive white noise.  Sampling is
*synchronous*: ``k = N * f0 / fs`` must be an exact integer (the tone sits on
DFT bin ``k``), which is validated with rational arithmetic — never with a
floating-point remainder test.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TextIO, Union

import numpy as np

from . import rng
from .errors import (
    EmptyInput,
    NonPositiveAmplitude,
    NonSynchronous,
    NyquistViolation,
    OutOfRange,
)

Real = Union[int, float, str, Fraction]


def _as_fraction(value: Real, name: str) -> Fraction:
    """Exact rational view of a frequency-like parameter.

    Floats are read through their shortest decimal representation, so a CLI
    value like 0.1 means one tenth, not the nearest binary double.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise OutOfRange(f"{name} must be finite, got {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise OutOfRange(f"{name} is not a number: {value!r}") from exc
    raise OutOfRange(f"{name} has unsupported type {type(value).__name__}")


@dataclass(frozen=True)
class SignalParams:
    """Validated, immutable description of one measurement configuration."""

    amplitude: float
    f0: float
    fs: float
    phase: float            # radians, normalized to [0, 2*pi)
    sigma_additive: float   # std of additive noise
    sigma_phase: float      # std of phase noise, radians
    n_samples: int
    bin_index: int          # k = n_samples * f0 / fs, exact integer


def make_params(
    amplitude: Real,
    f0: Real,
    fs: Real,
    phase: float = 0.0,
    sigma_additive: float = 0.0,
    sigma_phase: float = 0.0,
    n_samples: int = 0,
) -> SignalParams:
    """Validate a configuration and derive the DFT bin index.

    Raises NonPositiveAmplitude, NyquistViolation (fs <= 2*f0) or
    NonSynchronous (N*f0/fs not an integer) as appropriate.
    """
    amp = float(amplitude)
    if not (amp > 0.0) or not math.isfinite(amp):
        raise NonPositiveAmplitude(f"amplitude must be > 0, got {amplitude!r}")

    n = int(n_samples)
    if n != n_samples or n < 1:
        raise OutOfRange(f"n_samples must be a positive integer, got {n_samples!r}")

    sx = float(sigma_additive)
    sp = float(sigma_phase)
    if sx < 0.0 or not math.isfinite(sx):
        raise OutOfRange(f"sigma_additive must be >= 0, got {sigma_additive!r}")
    if sp < 0.0 or not math.isfinite(sp):
        raise OutOfRange(f"sigma_phase must be >= 0, got {sigma_phase!r}")

    f0_frac = _as_fraction(f0, "f0")
    fs_frac = _as_fraction(fs, "fs")
    if f0_frac <= 0:
        raise OutOfRange(f"f0 must be > 0, got {f0!r}")
    if fs_frac <= 0:
        raise OutOfRange(f"fs must be > 0, got {fs!r}")
    if fs_frac <= 2 * f0_frac:
        raise NyquistViolation(
            f"sampling rate must exceed twice the signal frequency: "
            f"fs={fs!r} <= 2*f0={f0!r}*2"
        )

    k_frac = n * f0_frac / fs_frac
    if k_frac.denominator != 1:
        raise NonSynchronous(
            f"N*f0/fs = {k_frac} is not an integer; choose N, f0, fs so the "
            f"tone lands exactly on a DFT bin"
        )
    k = int(k_frac)
    if k < 1:
        # only reachable for very short records (fs > 2*f0 forces k < N/2)
        raise NonSynchronous(f"derived bin index k={k} must be >= 1")

    ph = float(phase)
    if not math.isfinite(ph):
        raise OutOfRange(f"phase must be finite, got {phase!r}")
    ph %= math.tau

    return SignalParams(
        amplitude=amp,
        f0=float(f0_frac),
        fs=float(fs_frac),
        phase=ph,
        sigma_additive=sx,
        sigma_phase=sp,
        n_samples=n,
        bin_index=k,
    )


def tone_phases(params: SignalParams) -> np.ndarray:
    """Noise-free instantaneous phases 2*pi*k*n/N + phase, reduced exactly.

    The integer product k*n is reduced mod N before any float arithmetic, so
    the tone phases stay at 1-ulp accuracy for arbitrarily long records.
    """
    n = np.arange(params.n_samples, dtype=np.int64)
    reduced = (params.bin_index * n) % params.n_samples
    return reduced * (math.tau / params.n_samples) + params.phase


def noisy_records(
    params: SignalParams, seed: int, first_draw: int, n_draws: int
) -> np.ndarray:
    """Records of draws [first_draw, first_draw + n_draws) as an (n_draws, N)
    matrix.  Row j is a pure function of (params, seed, first_draw + j).

    Phase noise and additive noise come from independent counter-based
    substreams; a zero sigma consumes nothing from its channel.  Every
    operation is elementwise, so a row does not depend on the batch it was
    drawn in.
    """
    if n_draws < 0:
        raise OutOfRange("n_draws must be non-negative")
    n = params.n_samples
    base = tone_phases(params)
    if params.sigma_phase > 0.0:
        records = rng.standard_normals_block(
            seed, first_draw, n_draws, rng.CH_PHASE, n
        )
        records *= params.sigma_phase
        records += base
        np.cos(records, out=records)
        records *= params.amplitude
    else:
        tone = params.amplitude * np.cos(base)
        records = np.broadcast_to(tone, (n_draws, n)).copy()
    if params.sigma_additive > 0.0:
        noise = rng.standard_normals_block(
            seed, first_draw, n_draws, rng.CH_ADDITIVE, n
        )
        noise *= params.sigma_additive
        records += noise
    return records


def generate(params: SignalParams, seed: int, draw_index: int = 0) -> np.ndarray:
    """One record as a read-only 1-D array: the one-row batch of
    :func:`noisy_records` at ``draw_index``, so a pure function of (params,
    seed, draw_index).

    Raises OutOfRange when a sample overflows (amplitude or noise near the
    largest float).
    """
    with np.errstate(over="ignore"):  # reported by the check below
        samples = noisy_records(params, seed, draw_index, 1)[0]
    if not np.all(np.isfinite(samples)):
        raise OutOfRange("a sample overflowed: amplitude or noise too large")
    samples.setflags(write=False)
    return samples


def snr_linear(params: SignalParams) -> float:
    """A^2 / (2*sigma_additive^2); +inf for a noiseless record (not an error).
    Where a square is subnormal or 0, or A^2 or 2*sigma_additive^2 passes
    the float range, it is (A/sigma_additive)^2 / 2."""
    if params.sigma_additive == 0.0:
        return math.inf
    try:
        a2, s2 = params.amplitude**2, params.sigma_additive**2
    except OverflowError:  # ** raises where * would give inf
        a2 = s2 = math.inf
    if min(a2, s2) < np.finfo(float).tiny or 2.0 * s2 == math.inf:
        ratio = params.amplitude / params.sigma_additive
        return 0.5 * ratio * ratio  # halved first: no spurious overflow
    return a2 / (2.0 * s2)


def sigma_x_for_snr(amplitude: float, snr: float) -> float:
    """Additive-noise std that realizes a target linear SNR (inf -> 0.0).

    A/sqrt(2*snr), taken as A/sqrt(2)/sqrt(snr) where 2*snr overflows.
    Raises OutOfRange when a finite SNR still gives a std of 0 (a tiny A at
    a high SNR): that configuration has noise, but no float can hold it.
    """
    if not (amplitude > 0.0):
        raise NonPositiveAmplitude(f"amplitude must be > 0, got {amplitude!r}")
    if not (snr > 0.0):
        raise OutOfRange(f"snr must be > 0, got {snr!r}")
    if snr == math.inf:
        return 0.0
    two_snr = 2.0 * snr
    if two_snr == math.inf:
        sigma = amplitude / math.sqrt(2.0) / math.sqrt(snr)
    else:
        sigma = amplitude / math.sqrt(two_snr)
    if sigma == 0.0:
        raise OutOfRange(
            f"additive-noise std underflows to 0 for amplitude {amplitude!r} "
            f"at SNR {snr!r}")
    return sigma


# --- sample CSV (schema: n,sample) -------------------------------------------

def read_samples_csv(fp: Union[TextIO, str]) -> np.ndarray:
    """Read the `n,sample` rows that ``syncphase gen`` writes.

    Accepts an open file or a string of CSV text; '#' comment lines and the
    header are skipped.  Raises EmptyInput when no data rows are present and
    OutOfRange on a malformed, out-of-order or non-finite sample row.
    """
    if isinstance(fp, str):
        fp = io.StringIO(fp)
    values = []
    reader = csv.reader(line for line in fp if not line.lstrip().startswith("#"))
    for row in reader:
        if not row:
            continue
        if row[0].strip() == "n":  # header
            continue
        if len(row) < 2:
            raise OutOfRange(f"malformed sample row: {row!r}")
        try:
            index = int(row[0])
            value = float(row[1])
        except ValueError as exc:
            raise OutOfRange(f"malformed sample row: {row!r}") from exc
        if not math.isfinite(value):
            raise OutOfRange(f"sample row n={index} is not finite: {row[1]!r}")
        if index != len(values):
            raise OutOfRange(
                f"sample index {index} out of order (expected {len(values)})"
            )
        values.append(value)
    if not values:
        raise EmptyInput("no sample rows found")
    return np.asarray(values, dtype=float)
