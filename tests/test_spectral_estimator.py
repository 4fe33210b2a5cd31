"""Tests for the single-bin DFT estimator and its theoretical moments."""
import cmath
import math
import multiprocessing
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from syncphase.errors import (EmptyInput, LengthMismatch, OutOfRange,
                             ZeroVector)
from syncphase.signal_model import (RecordUnits, generate, make_params,
                                    sigma_x_for_snr)
from syncphase.spectral_estimator import (
    dft_bin,
    dft_bin_batch,
    draw_chunks,
    estimate_phase,
    principal_phase,
    reduced_dft_draws,
    theoretical_moments,
)
import syncphase.signal_model as signal_model
import syncphase.spectral_estimator as spectral_estimator
from syncphase import rng

SEED = 12


def params_for(n, snr_db=None, sigma_p=0.0, phase=0.0):
    """Synchronous k=1 configuration with the requested noise levels."""
    snr = math.inf if snr_db is None else 10.0 ** (snr_db / 10.0)
    return make_params(
        amplitude=1.0, f0=1.0, fs=float(n), phase=phase,
        sigma_additive=sigma_x_for_snr(1.0, snr), sigma_phase=sigma_p,
        n_samples=n)


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
    spectral_estimator._check_bin(n_samples, k)

    idx = (k * np.arange(n_samples, dtype=np.int64)) % n_samples
    angles = idx * (math.tau / n_samples)
    re = math.fsum((s * np.cos(angles)).tolist())
    im = math.fsum((s * (-np.sin(angles))).tolist())
    return complex(re, im)


def empirical_moments(params, seed, n_draws, chunk=40_000,
                      draws=reduced_dft_draws):
    """Mean and total variance of the reduced statistic, chunked."""
    s = 0.0 + 0.0j
    s2 = 0.0
    done = 0
    while done < n_draws:
        m = min(chunk, n_draws - done)
        d = draws(params, seed, done, m)
        s += complex(d.sum())
        s2 += float(np.sum(d.real**2 + d.imag**2))
        done += m
    mean = s / n_draws
    var = s2 / n_draws - abs(mean) ** 2
    return mean, var


class TestDftBin:
    def test_quarter_period_hand_sum(self):
        assert dft_bin(np.array([1.0, 0.0, -1.0, 0.0]), 1) == \
            pytest.approx(2.0 + 0.0j, abs=1e-12)

    def test_constant_vector_has_no_tone_content(self):
        c = 0.7
        n = 16
        d = dft_bin(np.full(n, c), 1)
        assert abs(d) <= 1e-10 * n * abs(c)

    def test_recurrence_matches_compensated_reference(self):
        gen = np.random.default_rng(0)
        s = gen.standard_normal(1024)
        for k in (1, 5, 137, 511):
            got = dft_bin(s, k)
            want = dft_bin_reference(s, k)
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_linearity(self):
        gen = np.random.default_rng(3)
        s1 = gen.standard_normal(128)
        s2 = gen.standard_normal(128)
        a = -2.5
        combined = dft_bin(a * s1 + s2, 7)
        separate = a * dft_bin(s1, 7) + dft_bin(s2, 7)
        assert abs(combined - separate) <= 1e-10 * abs(separate)

    def test_batch_rows_match_single_records_bitwise(self):
        gen = np.random.default_rng(8)
        m = gen.standard_normal((8, 64))
        d = dft_bin_batch(m, 3)
        for j in range(8):
            assert d[j] == dft_bin(m[j], 3)

    def test_matches_scalar_goertzel_loop_bitwise(self):
        # the scalar recurrence, one Python float at a time, is the
        # reference: the vectorized rows must do the same operations
        def goertzel(s, k):
            w = 2.0 * math.pi * k / len(s)
            coeff = 2.0 * math.cos(w)
            v1 = v2 = 0.0
            for x in s.tolist():
                v1, v2 = x + coeff * v1 - v2, v1
            return v1 * cmath.exp(1j * w) - v2

        gen = np.random.default_rng(21)
        for n in (3, 4, 7, 20, 33, 128, 1000):
            for scale in (1e-8, 1.0, 1e8):
                s = scale * gen.standard_normal(n)
                for k in (1, (n - 1) // 2):  # lowest and highest bin
                    assert dft_bin(s, k) == goertzel(s, k)

    def test_bin_range_validation(self):
        s = np.zeros(8)
        with pytest.raises(OutOfRange):
            dft_bin(s, 0)
        with pytest.raises(OutOfRange):
            dft_bin(s, 4)  # k = N/2 excluded
        with pytest.raises(EmptyInput):
            dft_bin(np.array([]), 1)
        with pytest.raises(OutOfRange):
            dft_bin(np.zeros((2, 4)), 1)
        with pytest.raises(OutOfRange):
            dft_bin_batch(np.zeros(8), 1)


class TestEstimatePhase:
    def test_noiseless_recovers_phase_exactly(self):
        p = params_for(20, phase=math.radians(60.0))
        est = estimate_phase(generate(p, seed=0), p)
        assert est.phase_estimate == pytest.approx(
            math.radians(60.0), abs=math.radians(1e-9))

    def test_quarter_period_reduced_statistic(self):
        p = params_for(4)
        est = estimate_phase(generate(p, seed=0), p)
        assert est.d_reduced == pytest.approx(1.0 + 0.0j, abs=1e-15)
        assert est.phase_estimate == pytest.approx(0.0, abs=1e-15)

    def test_estimate_lies_in_principal_interval(self):
        p = params_for(8, snr_db=-5.0, phase=math.pi)
        for draw in range(200):
            est = estimate_phase(generate(p, seed=17, draw_index=draw), p)
            assert -math.pi < est.phase_estimate <= math.pi

    def test_minus_pi_folds_onto_plus_pi(self):
        # arctan2(-0.0, -1.0) is -pi, the one endpoint outside (-pi, pi]
        assert principal_phase(np.array([complex(-1.0, -0.0)]))[0] == math.pi
        assert principal_phase(np.array([complex(-1.0, 0.0)]))[0] == math.pi

    @pytest.mark.parametrize("n_record", [40, 19])  # too long, too short
    def test_record_of_another_length_rejected(self, n_record):
        # The tone of p for n_record samples.  Read with N = 20, 40 samples
        # once gave a statistic of 3e-15, whose phase is rounding noise,
        # and 19 samples a phase of 0.877 rad for a true 1.0, with no error.
        p = params_for(20, phase=1.0)
        record = np.cos(math.tau * np.arange(n_record) / 20 + 1.0)
        with pytest.raises(LengthMismatch, match=f"{n_record} samples"):
            estimate_phase(record, p)

    def test_empty_record_rejected(self):
        with pytest.raises(EmptyInput):
            estimate_phase(np.array([]), params_for(4))

    def test_zero_statistic_rejected(self):
        # one subnormal sample, reduced by A*N = 2e301, gives a bin
        # statistic of exactly 0: the record is not all zero, its phase
        # is still undefined
        p = make_params(1e300, 1.0, 10.0, n_samples=20)
        samples = np.zeros(20)
        samples[0] = 5e-324
        with pytest.raises(ZeroVector, match="statistic is zero"):
            estimate_phase(samples, p)

    def test_all_zero_record_rejected(self):
        p = params_for(4)
        with pytest.raises(ZeroVector):
            estimate_phase(np.zeros(4), p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_record_rejected(self, bad):
        p = params_for(4)
        samples = np.array([1.0, bad, -1.0, 0.0])
        with pytest.raises(OutOfRange):
            estimate_phase(samples, p)

    @pytest.mark.parametrize("record_scale", [1e308, 1.0])
    def test_overflowing_statistic_rejected(self, record_scale):
        # A*N = 2e309 overflows.  At 1e308 the Goertzel sum overflows too
        # (a NaN statistic); at 1.0 it stays finite and the infinite scale
        # would reduce it to 0.
        p = make_params(1e308, 1.0, 10.0, n_samples=20)
        samples = record_scale * np.cos(4.0 * math.pi * np.arange(20) / 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="overflowed"):
                estimate_phase(samples, p)

    @pytest.mark.slow
    def test_mean_of_reduced_statistic_tracks_theory(self):
        # 0 dB, sigma_p = 1 deg, N = 1000: the empirical mean over 1e6
        # draws must sit within 4 standard errors of beta_p * e^{i phi}
        p = params_for(1000, snr_db=0.0, sigma_p=math.radians(1.0),
                       phase=math.pi / 3.0)
        mom = theoretical_moments(p)
        mean, _ = empirical_moments(p, SEED, 10**6, chunk=4000)
        se_axis = math.sqrt(mom.sigma2 / 10**6)
        assert abs(mean.real - mom.mean.real) <= 4.0 * se_axis
        assert abs(mean.imag - mom.mean.imag) <= 4.0 * se_axis


class TestTheoreticalMoments:
    def test_noiseless_limit(self):
        mom = theoretical_moments(params_for(16, phase=0.4))
        assert mom.mean == pytest.approx(cmath.exp(0.4j), abs=1e-15)
        assert mom.variance == 0.0
        assert mom.beta_p == 1.0

    def test_unit_snr_variance(self):
        p = params_for(10, snr_db=0.0)
        mom = theoretical_moments(p)
        assert mom.variance == pytest.approx(0.2, rel=1e-12)
        assert mom.sigma2 == pytest.approx(0.1, rel=1e-12)

    def test_overflowing_phase_noise_square_is_the_uniform_limit(self):
        # sigma_p**2 raises OverflowError past about 1.34e154 rad
        mom = theoretical_moments(params_for(10, snr_db=0.0, sigma_p=1e160))
        assert (mom.beta_p, mom.one_minus_beta_sq) == (0.0, 1.0)
        assert mom.variance == pytest.approx(0.4, rel=1e-12)

    def test_unit_snr_variance_against_simulation(self):
        p = params_for(10, snr_db=0.0)
        _, var = empirical_moments(p, SEED, 10**6)
        assert var == pytest.approx(0.2, rel=0.01)

    def test_beta_p_closed_form(self):
        p = params_for(10, sigma_p=0.1)
        mom = theoretical_moments(p)
        assert mom.beta_p == pytest.approx(math.exp(-0.005), rel=1e-12)
        assert mom.beta_p == pytest.approx(0.995012, abs=1e-6)

    def test_beta_p_is_circular_mean_of_phase_noise(self):
        z = rng.standard_normals_block(SEED, 0, 1, rng.CH_PHASE, 10**6)[0]
        empirical = np.exp(1j * 0.1 * z).mean()
        assert empirical.real == pytest.approx(math.exp(-0.005), abs=4e-4)
        assert abs(empirical.imag) < 4e-4

    def test_mean_modulus_is_beta_p(self):
        p = params_for(64, snr_db=7.0, sigma_p=0.3, phase=1.1)
        mom = theoretical_moments(p)
        assert abs(mom.mean) == pytest.approx(mom.beta_p, rel=1e-12)

    def test_variance_positive_when_any_noise_present(self):
        assert theoretical_moments(params_for(8, snr_db=30.0)).variance > 0.0
        assert theoretical_moments(params_for(8, sigma_p=1e-6)).variance > 0.0

    @pytest.mark.slow
    def test_variance_matches_model_over_grid(self, shared_draws):
        # empirical total variance of the bin statistic within 1% of the
        # model value for N=100, SNR in {0, 10} dB, sigma_p in {0, 2 deg};
        # the 0 dB cells come from the session's shared draws
        for snr_db in (0.0, 10.0):
            for sp_deg in (0.0, 2.0):
                p = params_for(100, snr_db=snr_db,
                               sigma_p=math.radians(sp_deg))
                mom = theoretical_moments(p)
                _, var = empirical_moments(p, SEED, 10**6,
                                           draws=shared_draws)
                assert var == pytest.approx(mom.variance, rel=0.01), \
                    (snr_db, sp_deg)


class TestShiftCovariance:
    def test_phase_shift_rotates_mean_and_estimates(self):
        delta = 0.9
        base = params_for(20, snr_db=10.0, sigma_p=math.radians(2.0),
                          phase=0.3)
        shifted = params_for(20, snr_db=10.0, sigma_p=math.radians(2.0),
                             phase=0.3 + delta)
        d0 = reduced_dft_draws(base, SEED, 0, 10**5)
        d1 = reduced_dft_draws(shifted, SEED, 0, 10**5)
        rotated = cmath.exp(1j * delta) * d0.mean()
        assert abs(d1.mean() - rotated) < 5e-4
        turn = np.exp(1j * np.angle(d1)).mean() / np.exp(1j * np.angle(d0)).mean()
        assert np.angle(turn) == pytest.approx(delta, abs=2e-3)


class TestBinScatter:
    @pytest.mark.parametrize("sigma_p_deg", [1.0, 5.0])
    def test_scatter_is_anisotropic_about_the_mean(self, sigma_p_deg):
        # Rotated onto the mean's axis, the bin statistic's variance differs
        # per axis: phase noise puts (1-b^4)/2 + (1-b^2)/2 across the mean
        # and (1-b^2)^2/2 + (1-b^2)/2 along it, each plus 1/SNR, over N.
        # The isotropic (1-b^2+1/SNR)/N is their mean and fits neither axis;
        # this is why the floor's RMSE sits above the isotropic model.
        n, snr, phi, m = 1000, 1e6, math.radians(60.0), 10**4
        sigma_p = math.radians(sigma_p_deg)
        p = make_params(1.0, 1.0, 10.0, phase=phi,
                        sigma_additive=sigma_x_for_snr(1.0, snr),
                        sigma_phase=sigma_p, n_samples=n)
        d = reduced_dft_draws(p, SEED, 0, m) * cmath.exp(-1j * phi)
        one_minus_b2 = -math.expm1(-sigma_p**2)
        b2 = 1.0 - one_minus_b2
        isotropic = (one_minus_b2 + 1.0 / snr) / n
        for var, model in [
            (np.var(d.imag),
             ((1.0 - b2 * b2) / 2 + one_minus_b2 / 2 + 1.0 / snr) / n),
            (np.var(d.real),
             (one_minus_b2**2 / 2 + one_minus_b2 / 2 + 1.0 / snr) / n),
        ]:
            assert abs(var - model) < 4 * model * math.sqrt(2.0 / m)
            assert abs(var - isotropic) > 20 * isotropic * math.sqrt(2.0 / m)


class TestReducedDraws:
    def test_matches_single_draw_pipeline(self):
        p = params_for(30, snr_db=5.0, sigma_p=0.05, phase=0.8)
        d = reduced_dft_draws(p, 21, 4, 6)
        phase = principal_phase(d)
        for j in range(6):
            est = estimate_phase(generate(p, seed=21, draw_index=4 + j), p)
            assert d[j] == est.d_reduced
            assert est.phase_estimate == phase[j]
        # both paths share one reduction and one arg(), so the bits agree at
        # any scale
        for amplitude in (1.0, 0.37, 3e-5, 2.5e7, 1e-300):
            for n in (7, 20, 128):
                p = make_params(amplitude, 1.0, n / 2.0, phase=1.0,
                                sigma_additive=sigma_x_for_snr(amplitude, 1.0),
                                sigma_phase=0.02, n_samples=n)
                d = reduced_dft_draws(p, 5, 0, 50)
                phase = principal_phase(d)
                for j in range(50):
                    est = estimate_phase(generate(p, seed=5, draw_index=j), p)
                    assert d[j] == est.d_reduced, (amplitude, n, j)
                    assert est.phase_estimate == phase[j], (amplitude, n, j)

    @pytest.mark.parametrize("amplitude", [1e-310, 5e-324])
    def test_subnormal_scale_rejected_before_any_draw(self, monkeypatch,
                                                      amplitude):
        # 1/(A*N) overflows: NumPy's division would make the statistic inf
        p = make_params(amplitude, 1.0, 10.0, sigma_phase=0.02, n_samples=20)
        rec = generate(p, seed=0)

        def no_draws(*args):
            raise AssertionError("no record may be drawn")

        monkeypatch.setattr(spectral_estimator, "noisy_records", no_draws)
        with pytest.raises(OutOfRange, match=r"A\*N = .* is too small"):
            reduced_dft_draws(p, 0, 0, 10)
        with pytest.raises(OutOfRange, match=r"A\*N = .* is too small"):
            estimate_phase(rec, p)

    def test_smallest_normal_scale_is_reduced(self):
        p = make_params(1e-308, 1.0, 10.0, sigma_phase=0.02, n_samples=20)
        d = reduced_dft_draws(p, 0, 0, 10)
        assert np.all(np.isfinite(d)) and np.all(np.abs(d) > 0.5)

    def test_negative_count_rejected(self):
        with pytest.raises(OutOfRange):
            reduced_dft_draws(params_for(8), 0, 0, -1)

    @pytest.mark.parametrize("n_samples, n_draws", [
        (20, 1), (20, 9), (20, 10), (20, 11), (30, 7), (40, 5), (1, 3)])
    def test_draw_chunks_cover_the_batch_within_budget(
            self, monkeypatch, n_samples, n_draws):
        monkeypatch.setattr(spectral_estimator, "_CHUNK_BUDGET", 100)
        chunks = list(draw_chunks(n_samples, n_draws))
        assert chunks[0][0] == 0 and chunks[-1][1] == n_draws
        for (_, stop), (start, _) in zip(chunks, chunks[1:]):
            assert start == stop
        for start, stop in chunks:
            assert 0 < (stop - start) * n_samples <= 100

    def test_draw_chunks_hold_one_draw_above_the_budget(self, monkeypatch):
        monkeypatch.setattr(spectral_estimator, "_CHUNK_BUDGET", 100)
        assert list(draw_chunks(101, 3)) == [(0, 1), (1, 2), (2, 3)]
        assert list(draw_chunks(10**6, 2)) == [(0, 1), (1, 2)]

    def test_draw_chunks_of_no_draws_is_empty(self):
        assert list(draw_chunks(20, 0)) == []

    @pytest.mark.parametrize("sigma_p_deg", [1.0, 170.0])
    def test_overflowing_statistic_rejected(self, sigma_p_deg):
        # Finite records with A*N > max float.  At 1 degree the Goertzel sum
        # overflows too; at 170 degrees (beta_p ~ 0.01) it stays finite and
        # only the scale A*N overflows, which would reduce it to 0.
        p = make_params(amplitude=1e306, f0=1.0, fs=1000.0,
                        sigma_phase=math.radians(sigma_p_deg), n_samples=1000)
        with pytest.raises(OutOfRange, match="overflowed"):
            reduced_dft_draws(p, 0, 0, 10)


def one_draw_at_a_time(params, seed, first_draw, n_draws):
    return np.concatenate([reduced_dft_draws(params, seed, first_draw + j, 1)
                           for j in range(n_draws)])


def no_pool():
    raise AssertionError("this batch must stay on the calling thread")


def syncphase_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("syncphase")]


def on_worker():
    return threading.current_thread().name.startswith("syncphase-draws")


@pytest.fixture
def two_threads(monkeypatch):
    """Force the two-thread pipeline, whatever this host's CPU count, and
    record (stage, on the worker, first draw, draws, channel) for every
    fill, transform and one-call draw of a unit, and ("pool", ...) for
    every worker started."""
    monkeypatch.setattr(signal_model, "_THREADS", 2)
    calls = []
    worker_pool = signal_model._worker_pool

    def recording_pool():
        calls.append(("pool", False, None, None, None))
        return worker_pool()

    monkeypatch.setattr(signal_model, "_worker_pool", recording_pool)

    def recording(stage):
        method = getattr(RecordUnits, stage)

        def record(self, unit):
            channel, start, stop = unit
            calls.append((stage, on_worker(), self.first_draw + start,
                          stop - start, channel))
            method(self, unit)
        monkeypatch.setattr(RecordUnits, stage, record)

    for stage in ("fill", "transform", "draw"):
        recording(stage)
    return calls


def stages(calls, stage):
    return sorted((first, size, channel)
                  for name, _, first, size, channel in calls if name == stage)


def pools(calls):
    return sum(name == "pool" for name, *_ in calls)


def on_the_worker(calls):
    return [call for call in calls if call[1]]


def assert_drawn_once(calls):
    """Every unit but the last was filled and transformed, the last drawn
    in one call, each exactly once; fills and one-call draws ran on the
    calling thread."""
    assert calls
    assert not any(worker for name, worker, *_ in calls
                   if name in ("fill", "draw"))
    assert stages(calls, "fill") == stages(calls, "transform")
    drawn = stages(calls, "fill") + stages(calls, "draw")
    assert len(set(drawn)) == len(drawn)


def assert_worker_started(calls):
    """assert_drawn_once, with a worker started for the units."""
    assert_drawn_once(calls)
    assert stages(calls, "fill") and pools(calls) >= 1


def worker_goes_first(monkeypatch):
    """Hold the fill of each chunk's second unit until the worker has
    transformed a unit, or failed to (10 s at most), so the worker surely
    takes one."""
    fill = RecordUnits.fill
    transform = RecordUnits.transform
    worked = threading.Event()

    def held_fill(self, unit):
        if unit == self.units[1]:
            worked.wait(timeout=10)
        fill(self, unit)

    def noting_transform(self, unit):
        try:
            transform(self, unit)
        finally:
            if on_worker():
                worked.set()

    monkeypatch.setattr(RecordUnits, "fill", held_fill)
    monkeypatch.setattr(RecordUnits, "transform", noting_transform)
    return worked


def finishes(call, timeout=60):
    """call() on a thread of its own, which must end within timeout
    seconds; its result, or its exception re-raised."""
    done = {}

    def run():
        try:
            done["value"] = call()
        except BaseException as exc:  # re-raised below, on this thread
            done["error"] = exc

    runner = threading.Thread(target=run, name="caller", daemon=True)
    runner.start()
    runner.join(timeout=timeout)
    assert not runner.is_alive(), "the pipeline deadlocked"
    if "error" in done:
        raise done["error"]
    return done["value"]


@pytest.mark.parametrize("n, n_draws", [
    (20, 4000),   # an mc_short chunk: kernel fill, pipelined
    (1000, 1000),  # an mc_long chunk: native fill, pipelined
])
def test_each_chunk_draws_its_last_unit_through_the_rng_module(
        monkeypatch, n, n_draws):
    # perfbench's tracer replaces rng.standard_normals_block to time the
    # RNG layer: the package must look it up through the module, once per
    # chunk, for the chunk's last unit
    p = params_for(n, snr_db=0.0, sigma_p=math.radians(1.0), phase=1.0)
    want = reduced_dft_draws(p, SEED, 9, n_draws)
    block = rng.standard_normals_block
    calls = []

    def counting(*args):
        calls.append(args)
        return block(*args)

    monkeypatch.setattr(rng, "standard_normals_block", counting)
    d = reduced_dft_draws(p, SEED, 9, n_draws)
    channel, start, stop = RecordUnits(p, SEED, 9, n_draws).units[-1]
    assert start > 0
    assert calls == [(SEED, 9 + start, stop - start, channel, n)]
    assert d.tobytes() == want.tobytes()


class TestTwoThreadSplit:
    # The two-stage pipeline that splits a chunk's work across two threads:
    # the calling thread fills every unit, a worker transforms them.  A
    # small threshold keeps the one-draw-at-a-time references cheap; the
    # pipeline code is the same at any threshold.
    MIN_SAMPLES = 2000

    @pytest.mark.parametrize("n, extra", [
        (20, 0), (20, 1), (20, 2),     # NumPy Philox kernel fill
        (200, 0), (200, 1),           # native Philox fill
    ])
    @pytest.mark.parametrize("first_draw", [0, 2**64 - 7])
    def test_split_equals_one_draw_at_a_time(self, monkeypatch, two_threads,
                                             n, extra, first_draw):
        assert (n <= rng._KERNEL_MAX_COUNT) == (n == 20)
        monkeypatch.setattr(signal_model, "_PIPELINE_MIN_SAMPLES",
                            self.MIN_SAMPLES)
        n_draws = -(-self.MIN_SAMPLES // n) + extra  # odd and even counts
        p = params_for(n, snr_db=3.0, sigma_p=0.2, phase=0.7)
        d = reduced_dft_draws(p, SEED, first_draw, n_draws)
        assert_worker_started(two_threads)
        drawn = stages(two_threads, "fill") + stages(two_threads, "draw")
        assert sum(size for _, size, _ in drawn) == 2 * n_draws
        two_threads.clear()
        want = one_draw_at_a_time(p, SEED, first_draw, n_draws)
        assert d.tobytes() == want.tobytes()

    @pytest.mark.parametrize("noise", ["both", "phase only", "additive only"])
    @pytest.mark.parametrize("n", [20, 80, 81, 88, 89, 100, 101, 1000])
    @pytest.mark.parametrize("first_draw", [0, 2**64 - 7])
    def test_pipeline_equals_one_thread_and_one_draw_at_a_time(
            self, monkeypatch, two_threads, n, noise, first_draw):
        # Units of 12, 3, 3, 2, 2, 2, 2 and 1 draws (64 Philox blocks each at
        # most): 75 draws in chunks of 30, 30 and 15, so at N = 20 each chunk
        # ends on a partial unit, and from 2^64 - 7 the draw word wraps
        # inside the first chunk.
        assert (n <= rng._KERNEL_MAX_COUNT) == (n <= 100)
        monkeypatch.setattr(rng, "_SUB_BLOCK", 64)
        monkeypatch.setattr(spectral_estimator, "_CHUNK_BUDGET", 30 * n)
        monkeypatch.setattr(signal_model, "_PIPELINE_MIN_SAMPLES", 0)
        p = params_for(n, snr_db=None if noise == "phase only" else 3.0,
                       sigma_p=0.0 if noise == "additive only" else 0.2,
                       phase=0.7)
        n_draws = 75
        d = reduced_dft_draws(p, SEED, first_draw, n_draws)
        assert_worker_started(two_threads)
        assert pools(two_threads) == 3  # one worker per chunk
        channels = 2 if noise == "both" else 1
        rows = rng.unit_rows(n)
        units = channels * sum(-(-size // rows) for size in (30, 30, 15))
        assert len(stages(two_threads, "fill")) == units - 3
        assert len(stages(two_threads, "draw")) == 3  # each chunk's last
        if n == 20:  # the first chunk's last unit, rows 24..30, is partial
            last = rng.CH_PHASE if noise == "phase only" else rng.CH_ADDITIVE
            assert (first_draw + 24, 6, last) in stages(two_threads, "draw")
        monkeypatch.setattr(signal_model, "_THREADS", 1)
        two_threads.clear()
        one_thread = reduced_dft_draws(p, SEED, first_draw, n_draws)
        assert_drawn_once(two_threads)
        assert pools(two_threads) == 0 and not on_the_worker(two_threads)
        assert d.tobytes() == one_thread.tobytes()
        want = one_draw_at_a_time(p, SEED, first_draw, n_draws)
        assert d.tobytes() == want.tobytes()

    def test_split_at_the_measured_threshold_keeps_its_bits(
            self, monkeypatch, two_threads):
        n = 1000
        n_draws = signal_model._PIPELINE_MIN_SAMPLES // n + 1
        p = params_for(n, snr_db=0.0, sigma_p=math.radians(1.0), phase=1.0)
        d = reduced_dft_draws(p, SEED, 5, n_draws)
        assert_worker_started(two_threads)
        monkeypatch.setattr(signal_model, "_THREADS", 1)
        two_threads.clear()
        sequential = reduced_dft_draws(p, SEED, 5, n_draws)
        assert_drawn_once(two_threads)
        assert pools(two_threads) == 0 and not on_the_worker(two_threads)
        assert d.tobytes() == sequential.tobytes()
        head = one_draw_at_a_time(p, SEED, 5, 3)
        tail = one_draw_at_a_time(p, SEED, 5 + n_draws - 3, 3)
        assert d[:3].tobytes() == head.tobytes()
        assert d[-3:].tobytes() == tail.tobytes()

    def test_single_cpu_never_splits(self, monkeypatch, two_threads):
        # one whole call: on one CPU every unit is drawn on this thread,
        # the head part (fills, the last unit's draw) before the transforms
        monkeypatch.setattr(signal_model, "_THREADS", 1)
        monkeypatch.setattr(signal_model, "_PIPELINE_MIN_SAMPLES",
                            self.MIN_SAMPLES)
        monkeypatch.setattr(signal_model, "_worker_pool", no_pool)
        p = params_for(20, snr_db=3.0, sigma_p=0.2)
        # each part must take a stop of its own, or the tail waits forever
        d = finishes(lambda: reduced_dft_draws(p, SEED, 0, 301))
        assert two_threads == [("fill", False, 0, 301, rng.CH_PHASE),
                               ("draw", False, 0, 301, rng.CH_ADDITIVE),
                               ("transform", False, 0, 301, rng.CH_PHASE)]
        assert d.tobytes() == one_draw_at_a_time(p, SEED, 0, 301).tobytes()

    @pytest.mark.parametrize("n, n_draws, sigma_p", [
        (20, 300, 0.1),    # a tiny mc op, 6k samples
        (20, None, 0.1),   # one sample short of the threshold
        (1000, None, 0.1),  # one sample short of the threshold
        (20, 3000, 0.0),   # 60k samples in one unit: nothing to overlap
    ])
    def test_batch_below_threshold_never_touches_the_pool(
            self, monkeypatch, two_threads, n, n_draws, sigma_p):
        if n_draws is None:
            n_draws = -(-signal_model._PIPELINE_MIN_SAMPLES // n) - 1
            assert n * n_draws < signal_model._PIPELINE_MIN_SAMPLES
        monkeypatch.setattr(signal_model, "_worker_pool", no_pool)
        reduced_dft_draws(params_for(n, snr_db=0.0, sigma_p=sigma_p), SEED,
                          0, n_draws)
        assert_drawn_once(two_threads)
        assert not on_the_worker(two_threads)

    @pytest.mark.parametrize("n, n_draws", [
        (20, 4000),   # a mc_short op, 80k samples
        (20, 2000),   # a normality battery batch, 40k samples
    ])
    def test_benchmark_batches_are_pipelined(self, two_threads, n, n_draws):
        assert n * n_draws >= signal_model._PIPELINE_MIN_SAMPLES
        reduced_dft_draws(params_for(n, snr_db=0.0, sigma_p=0.1), SEED, 0,
                          n_draws)
        assert_worker_started(two_threads)

    def test_a_long_record_is_pipelined_with_the_same_bytes(
            self, monkeypatch, two_threads):
        # one record of 40000 samples: two one-row units, above the
        # threshold, so generate takes the chunks' pipeline
        p = params_for(40_000, snr_db=3.0, sigma_p=0.2, phase=0.7)
        record = generate(p, SEED, 5)
        assert_worker_started(two_threads)
        monkeypatch.setattr(signal_model, "_THREADS", 1)
        two_threads.clear()
        one_thread = generate(p, SEED, 5)
        assert_drawn_once(two_threads)
        assert pools(two_threads) == 0 and not on_the_worker(two_threads)
        assert record.tobytes() == one_thread.tobytes()

    def test_worker_transforms_while_the_caller_fills(self, monkeypatch,
                                                      two_threads):
        monkeypatch.setattr(signal_model, "_PIPELINE_MIN_SAMPLES", 0)
        monkeypatch.setattr(rng, "_SUB_BLOCK", 64)
        worked = worker_goes_first(monkeypatch)
        p = params_for(20, snr_db=3.0, sigma_p=0.2)
        d = reduced_dft_draws(p, SEED, 0, 40)
        assert worked.is_set()
        assert any(worker for name, worker, *_ in two_threads
                   if name == "transform")
        assert d.tobytes() == one_draw_at_a_time(p, SEED, 0, 40).tobytes()

    def test_overflow_in_the_worker_half_is_rejected_silently(
            self, monkeypatch, two_threads):
        # Only the worker's units overflow.  NumPy's error state is per
        # thread, so the worker must set its own or warn.
        monkeypatch.setattr(signal_model, "_PIPELINE_MIN_SAMPLES", 0)
        monkeypatch.setattr(rng, "_SUB_BLOCK", 64)
        transform = RecordUnits.transform

        def overflowing_on_the_worker(self, unit):
            transform(self, unit)
            if on_worker():
                channel, start, stop = unit
                self._rows[channel][start:stop] *= 1e308

        monkeypatch.setattr(RecordUnits, "transform",
                            overflowing_on_the_worker)
        worker_goes_first(monkeypatch)
        p = params_for(100, snr_db=0.0, sigma_p=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="overflowed"):
                reduced_dft_draws(p, SEED, 0, 40)
        assert any(worker for name, worker, *_ in two_threads
                   if name == "transform")

    @pytest.mark.parametrize("where", [
        "fill", "transform on the worker", "transform on the caller",
        "last unit"])
    def test_a_failing_stage_propagates_and_stops_both_threads(
            self, monkeypatch, two_threads, where):
        monkeypatch.setattr(signal_model, "_PIPELINE_MIN_SAMPLES", 0)
        monkeypatch.setattr(rng, "_SUB_BLOCK", 64)
        stage = where.split()[0] if where != "last unit" else "draw"
        method = getattr(RecordUnits, stage)
        release = threading.Event()

        def failing(self, unit):
            if where == "fill" and unit == self.units[3]:
                raise ValueError(where)
            if where == "transform on the worker" and on_worker():
                raise ValueError(where)
            if where == "transform on the caller":
                if on_worker():
                    # hold the worker so this thread transforms a unit
                    release.wait(timeout=10)
                else:
                    release.set()
                    raise ValueError(where)
            if where == "last unit":
                raise ValueError(where)
            method(self, unit)

        monkeypatch.setattr(RecordUnits, stage, failing)
        if where == "transform on the worker":
            worker_goes_first(monkeypatch)
        p = params_for(20, snr_db=3.0, sigma_p=0.2)
        with pytest.raises(ValueError, match=where):
            finishes(lambda: reduced_dft_draws(p, SEED, 0, 40))
        assert syncphase_threads() == []

    def test_a_failing_draw_on_one_cpu_starts_no_worker(self, monkeypatch):
        monkeypatch.setattr(signal_model, "_THREADS", 1)
        monkeypatch.setattr(signal_model, "_PIPELINE_MIN_SAMPLES", 0)
        monkeypatch.setattr(signal_model, "_worker_pool", no_pool)

        def failing(self, unit):
            raise ValueError("draw failed")

        monkeypatch.setattr(RecordUnits, "draw", failing)
        with pytest.raises(ValueError, match="draw failed"):
            finishes(lambda: reduced_dft_draws(
                params_for(20, snr_db=3.0, sigma_p=0.2), SEED, 0, 4000))
        assert syncphase_threads() == []

    def test_concurrent_callers_share_the_pool(self, monkeypatch):
        # more calling threads than cores, switching often, each pipelining
        # onto a worker of its own: every result keeps its bits
        monkeypatch.setattr(signal_model, "_PIPELINE_MIN_SAMPLES",
                            self.MIN_SAMPLES)
        p = params_for(20, snr_db=3.0, sigma_p=0.2)
        windows = [(start, 150 + start // 100) for start in range(0, 800, 100)]
        monkeypatch.setattr(signal_model, "_THREADS", 1)
        want = [reduced_dft_draws(p, SEED, a, n) for a, n in windows]
        monkeypatch.setattr(signal_model, "_THREADS", 2)
        monkeypatch.setattr(rng, "_SUB_BLOCK", 64)  # many units per call
        got = [None] * len(windows)

        def call(i):
            got[i] = reduced_dft_draws(p, SEED, *windows[i])

        callers = [threading.Thread(target=call, args=(i,))
                   for i in range(len(windows))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for g, w in zip(got, want):
            assert g is not None and g.tobytes() == w.tobytes()

    def test_forked_child_still_splits(self, monkeypatch):
        # The child is forked right after a pipelined call; its own
        # pipeline must start and join a worker of its own.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        monkeypatch.setattr(signal_model, "_THREADS", 2)
        monkeypatch.setattr(signal_model, "_PIPELINE_MIN_SAMPLES",
                            self.MIN_SAMPLES)
        p = params_for(20, snr_db=3.0, sigma_p=0.2)
        reduced_dft_draws(p, SEED, 0, 200)  # a pipeline before the fork
        child = multiprocessing.get_context("fork").Process(
            target=reduced_dft_draws, args=(p, SEED, 0, 200))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
            pytest.fail("the forked child's pipeline never finished")
        assert child.exitcode == 0

    @pytest.mark.parametrize("n_draws", [
        113,  # 40 + 40 + 33: the last chunk is pipelined too
        95,   # 40 + 40 + 15: the last chunk is below the threshold
    ])
    @pytest.mark.parametrize("first_draw", [0, 2**64 - 7])
    def test_chunks_split_equal_one_draw_at_a_time(
            self, monkeypatch, two_threads, n_draws, first_draw):
        n, chunk, min_draws = 20, 40, 30
        monkeypatch.setattr(spectral_estimator, "_CHUNK_BUDGET", chunk * n)
        monkeypatch.setattr(signal_model, "_PIPELINE_MIN_SAMPLES",
                            min_draws * n)
        p = params_for(n, snr_db=3.0, sigma_p=0.2, phase=0.7)
        d = reduced_dft_draws(p, SEED, first_draw, n_draws)
        # each chunk is one row block: its phase unit is filled and
        # transformed, its additive one drawn in one call, and a worker
        # is started for each chunk of at least min_draws
        want_fills, want_draws, want_pools = [], [], 0
        for start in range(0, n_draws, chunk):
            size = min(chunk, n_draws - start)
            first = first_draw + start
            want_fills.append((first, size, rng.CH_PHASE))
            want_draws.append((first, size, rng.CH_ADDITIVE))
            want_pools += size >= min_draws
        assert_drawn_once(two_threads)
        assert stages(two_threads, "fill") == want_fills
        assert stages(two_threads, "draw") == want_draws
        assert pools(two_threads) == want_pools
        two_threads.clear()
        want = one_draw_at_a_time(p, SEED, first_draw, n_draws)
        assert d.tobytes() == want.tobytes()

    def test_no_worker_thread_outlives_a_split(self, monkeypatch,
                                               two_threads):
        monkeypatch.setattr(signal_model, "_PIPELINE_MIN_SAMPLES",
                            self.MIN_SAMPLES)
        reduced_dft_draws(params_for(20, snr_db=3.0), SEED, 0, 200)
        # sigma_p = 0: one additive unit, nothing to overlap
        assert two_threads == [("draw", False, 0, 200, rng.CH_ADDITIVE)]
        two_threads.clear()
        reduced_dft_draws(params_for(20, snr_db=3.0, sigma_p=0.2), SEED, 0,
                          200)
        assert_worker_started(two_threads)
        assert syncphase_threads() == []

    def test_worker_is_joined_when_head_raises(self, monkeypatch):
        monkeypatch.setattr(signal_model, "_THREADS", 2)
        started = threading.Event()
        finished = []

        def tail():
            started.wait(timeout=10)
            time.sleep(0.05)  # still running when head raises
            finished.append(threading.current_thread().name)

        def head():
            started.set()
            raise ValueError("head failed")

        with pytest.raises(ValueError, match="head failed"):
            signal_model.on_two_threads(head, tail, split=True)
        assert len(finished) == 1
        assert finished[0].startswith("syncphase-draws")
        assert syncphase_threads() == []

    def test_two_threads_return_head_then_tail(self, monkeypatch):
        monkeypatch.setattr(signal_model, "_THREADS", 2)
        main = threading.current_thread()
        head, tail = signal_model.on_two_threads(
            lambda: threading.current_thread(),
            lambda: threading.current_thread(), split=True)
        assert head is main and tail is not main
        assert not tail.is_alive()

    @pytest.mark.parametrize("threads, split", [(1, True), (2, False)],
                             ids=["one_cpu", "no_split"])
    def test_one_cpu_runs_head_then_tail_on_the_calling_thread(
            self, monkeypatch, threads, split):
        # one CPU, or a caller's work too small to split: no worker either way
        monkeypatch.setattr(signal_model, "_THREADS", threads)
        monkeypatch.setattr(signal_model, "_worker_pool", no_pool)
        calls = []

        def call(name):
            calls.append(name)
            return threading.current_thread()

        main = threading.current_thread()
        assert signal_model.on_two_threads(
            lambda: call("head"), lambda: call("tail"),
            split=split) == (main, main)
        assert calls == ["head", "tail"]

    def test_tail_runs_under_the_callers_error_state(self, monkeypatch):
        # a worker thread starts from NumPy's default error state; the tail
        # must see the caller's, as the head does
        monkeypatch.setattr(signal_model, "_THREADS", 2)

        def log_zero():
            return np.log(np.zeros(1))

        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                signal_model.on_two_threads(lambda: None, log_zero,
                                            split=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(divide="ignore"):
                _, tail = signal_model.on_two_threads(lambda: None, log_zero,
                                                      split=True)
        assert tail[0] == -np.inf
        assert syncphase_threads() == []
