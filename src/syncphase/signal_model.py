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
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from queue import SimpleQueue
from typing import Any, Callable, TextIO, Tuple, Union

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


@functools.lru_cache(maxsize=64)
def _decimal(value: Union[float, str]) -> Fraction:
    """Fraction(str(value)), memoized: a table's cells share their --f0 and
    --fs, which are then parsed once.  A str that is not a number raises
    ValueError or ZeroDivisionError, which the cache does not keep."""
    return Fraction(str(value))


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
        return _decimal(value)
    if isinstance(value, str):
        try:
            return _decimal(value)
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


def _as_float(frac: Fraction, name: str, value) -> float:
    """float(frac), whose OverflowError past the float range names the
    parameter."""
    try:
        return float(frac)
    except OverflowError:
        raise OverflowError(
            f"{name} {value!r} is too large for a float") from None


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
    k = int(k_frac)  # >= 1: a positive integer, as N, f0 and fs are positive

    ph = float(phase)
    if not math.isfinite(ph):
        raise OutOfRange(f"phase must be finite, got {phase!r}")
    ph %= math.tau

    return SignalParams(
        amplitude=amp,
        f0=_as_float(f0_frac, "f0", f0),
        fs=_as_float(fs_frac, "fs", fs),
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


def _shape(params: SignalParams, channel: int, normals: np.ndarray,
           out: np.ndarray, base: np.ndarray) -> None:
    """One channel's share of the synthesis, from standard normals into out
    (which may be normals itself): A*cos(sigma_p*z + tone phase) for the
    phase channel, sigma_x*z for the additive one."""
    if channel == rng.CH_PHASE:
        np.multiply(normals, params.sigma_phase, out=out)
        out += base
        np.cos(out, out=out)
        out *= params.amplitude
    else:
        np.multiply(normals, params.sigma_additive, out=out)


# Smallest batch, in samples (n_draws * N), that RecordUnits.build
# pipelines across two threads.  Measured on 2 cores (NumPy 2.4), the
# pipeline's speed against one thread at 0 dB and 1 degree, the median of
# five sets, each a ratio of medians of 61 interleaved runs (15 at 10^6):
#
#     samples     N = 20   100    128    1000
#     10^4            0.94  0.96   1.03   1.06
#     2*10^4          0.97  1.06   1.13   1.24
#     2.5*10^4        1.01  1.01   1.11   1.28
#     3*10^4          1.03  1.05   1.12   1.37
#     4*10^4          1.09  1.10   1.13   1.33
#     8*10^4          1.35  1.34   1.37   1.39
#     10^6            1.64  1.70   1.72   1.86
#
# At N = 20 the five sets ranged 0.96-1.02 at 2*10^4, 1.00-1.08 at
# 2.5*10^4 and 1.01-1.04 at 3*10^4.  3*10^4 is the smallest size at which
# no record length lost in any set; mc_short's 80k-sample ops and the
# battery's 40k-sample batches are pipelined.
_PIPELINE_MIN_SAMPLES = 30_000
# Threads on_two_threads runs its two parts on: two when the process may
# use two CPUs.
_THREADS = min(2, len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _worker_pool() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=1,
                              thread_name_prefix="syncphase-draws")


def on_two_threads(head: Callable[[], Any], tail: Callable[[], Any], *,
                   split: bool) -> Tuple[Any, Any]:
    """(head(), tail()), with tail run on a worker thread started for this
    call and head on the calling thread.  The worker is joined before this
    returns or raises, also when head raises.  When the caller's work is
    too small to split (``split`` false) or the process may use only one
    CPU (``_THREADS < 2``), head and then tail run on the calling thread
    and no worker is started, so a caller need not ask how many CPUs there
    are.  Either way both parts run under the calling thread's NumPy error
    state, and an exception of head wins over one of tail."""
    if not split or _THREADS < 2:
        return head(), tail()
    errors = np.geterr()  # per thread: a worker starts from NumPy's default

    def tail_here() -> Any:
        with np.errstate(**errors):
            return tail()

    with _worker_pool() as pool:
        worker = pool.submit(tail_here)
        return head(), worker.result()


class RecordUnits:
    """The records of draws [first_draw, first_draw + n_draws), built in
    units of work.

    A unit ``(channel, start, stop)`` is one noise channel over batch rows
    start..stop, a block of at most ``rng.unit_rows(N)`` rows.  ``units``
    lists each row block's phase unit, then its additive one, block by
    block; a zero sigma has none.  A unit is drawn in one call on one
    thread (:meth:`draw`), or in two stages:

    * :meth:`fill` writes the unit's uniforms into its rows.  The fillers
      keep generator state, so one thread makes every fill of a batch.
      There is a filler for each channel of a unit before the last; the
      last unit is drawn in one call (:meth:`build`).
    * :meth:`transform` turns a filled unit's uniforms into normals and
      them into its share of the synthesis, on any thread.

    Both ways a row passes through the same operations in the same order,
    and units share no rows, so neither the order nor the thread of the
    units changes a bit.  :meth:`build` is the package's one schedule of a
    batch's units and decides whether a batch uses a second thread.
    """

    def __init__(self, params: SignalParams, seed: int, first_draw: int,
                 n_draws: int):
        if n_draws < 0:
            raise OutOfRange("n_draws must be non-negative")
        n = params.n_samples
        self.params, self.n_draws = params, n_draws
        self.seed = rng.as_int(seed, "seed")
        self.first_draw = rng.as_int(first_draw, "draw index")
        self.base = tone_phases(params)
        self._rows = {}
        if params.sigma_phase > 0.0:
            self._rows[rng.CH_PHASE] = np.empty((n_draws, n))
        if params.sigma_additive > 0.0:
            self._rows[rng.CH_ADDITIVE] = np.empty((n_draws, n))
        step = rng.unit_rows(n)
        self.units = [(channel, start, min(start + step, n_draws))
                      for start in range(0, n_draws, step)
                      for channel in self._rows]
        self._fills = {channel: rng.uniform_filler(self.seed, channel, n)
                       for channel in {unit[0] for unit in self.units[:-1]}}

    def draw(self, unit) -> None:
        """Fill and transform a unit through ``rng.standard_normals_block``."""
        channel, start, stop = unit
        normals = rng.standard_normals_block(
            self.seed, self.first_draw + start, stop - start, channel,
            self.params.n_samples)
        _shape(self.params, channel, normals,
               self._rows[channel][start:stop], self.base)

    def fill(self, unit) -> None:
        channel, start, stop = unit
        self._fills[channel](self._rows[channel][start:stop],
                             self.first_draw + start)

    def transform(self, unit) -> None:
        channel, start, stop = unit
        block = self._rows[channel][start:stop]
        _shape(self.params, channel, rng.to_normals(block), block, self.base)

    def build(self) -> np.ndarray:
        """Draw every unit in two parts through :func:`on_two_threads`, then
        return :meth:`records`.  Only a batch of at least
        ``_PIPELINE_MIN_SAMPLES`` samples in two units or more is split.

        head fills every unit but the last, in order, and queues each; draws
        the last unit in one call through ``rng.standard_normals_block``
        (perfbench's tracer times the RNG layer there); then transforms
        queued units.  tail transforms queued units.  After its fills, also
        when one raises, head queues one stop for each part, and each part
        ends at the first stop it takes, so neither waits for a unit that
        will not come."""
        units = self.units
        queued: SimpleQueue = SimpleQueue()

        def transform_queued() -> None:
            unit = queued.get()
            while unit is not None:
                self.transform(unit)
                unit = queued.get()

        def head() -> None:
            try:
                for unit in units[:-1]:
                    self.fill(unit)
                    queued.put(unit)
            finally:
                queued.put(None)
                queued.put(None)
            if units:
                self.draw(units[-1])
            transform_queued()

        on_two_threads(head, transform_queued, split=(
            len(units) > 1
            and self.n_draws * self.params.n_samples >= _PIPELINE_MIN_SAMPLES))
        return self.records()

    def records(self) -> np.ndarray:
        """The (n_draws, N) records, once every unit is drawn."""
        records = self._rows.get(rng.CH_PHASE)
        noise = self._rows.get(rng.CH_ADDITIVE)
        if records is None:
            # the tone plus the noise: IEEE addition commutes, so adding
            # the tone into the noise gives the bits of tone + noise
            tone = self.params.amplitude * np.cos(self.base)
            if noise is None:
                return np.broadcast_to(
                    tone, (self.n_draws, self.params.n_samples)).copy()
            noise += tone
            return noise
        if noise is not None:
            records += noise
        return records


def noisy_records(
    params: SignalParams, seed: int, first_draw: int, n_draws: int
) -> np.ndarray:
    """Records of draws [first_draw, first_draw + n_draws) as an (n_draws, N)
    matrix, built by :meth:`RecordUnits.build`: the package's one noise
    synthesizer, for one record and for every Monte-Carlo chunk alike.
    Row j is a pure function of (params, seed, first_draw + j).

    Phase noise and additive noise come from independent counter-based
    substreams; a zero sigma consumes nothing from its channel.  Every
    operation is elementwise, so a row does not depend on the batch it was
    drawn in.
    """
    return RecordUnits(params, seed, first_draw, n_draws).build()


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

def read_samples_csv(fp: TextIO) -> np.ndarray:
    """Read the `n,sample` rows that ``syncphase gen`` writes.

    Reads an open file; '#' comment lines and the header are skipped.  Raises EmptyInput when no data rows are present and
    OutOfRange on a malformed, out-of-order or non-finite sample row.
    """
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
