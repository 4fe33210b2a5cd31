"""Tests for the single-bin DFT estimator and its theoretical moments."""
import cmath
import math

import numpy as np
import pytest

from syncphase.errors import EmptyInput, OutOfRange, ZeroVector
from syncphase.signal_model import (
    SignalRealization,
    generate,
    make_params,
    sigma_x_for_snr,
)
from syncphase.spectral_estimator import (
    dft_bin,
    dft_bin_batch,
    dft_bin_reference,
    estimate_phase,
    reduced_dft_draws,
    theoretical_moments,
)
from syncphase import rng

SEED = 12


def params_for(n, snr_db=None, sigma_p=0.0, phase=0.0):
    """Synchronous k=1 configuration with the requested noise levels."""
    snr = math.inf if snr_db is None else 10.0 ** (snr_db / 10.0)
    return make_params(
        amplitude=1.0, f0=1.0, fs=float(n), phase=phase,
        sigma_additive=sigma_x_for_snr(1.0, snr), sigma_phase=sigma_p,
        n_samples=n)


def empirical_moments(params, seed, n_draws, chunk=40_000):
    """Mean and total variance of the reduced statistic, chunked."""
    s = 0.0 + 0.0j
    s2 = 0.0
    done = 0
    while done < n_draws:
        m = min(chunk, n_draws - done)
        d = reduced_dft_draws(params, seed, done, m)
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
        est = estimate_phase(generate(p, seed=0))
        assert est.phase_estimate == pytest.approx(
            math.radians(60.0), abs=math.radians(1e-9))

    def test_quarter_period_reduced_statistic(self):
        p = params_for(4)
        est = estimate_phase(generate(p, seed=0))
        assert est.d_reduced == pytest.approx(1.0 + 0.0j, abs=1e-15)
        assert est.phase_estimate == pytest.approx(0.0, abs=1e-15)

    def test_estimate_lies_in_principal_interval(self):
        p = params_for(8, snr_db=-5.0, phase=math.pi)
        for draw in range(200):
            est = estimate_phase(generate(p, seed=17, draw_index=draw))
            assert -math.pi < est.phase_estimate <= math.pi

    def test_all_zero_record_rejected(self):
        p = params_for(4)
        r = SignalRealization(samples=np.zeros(4), params=p, seed=0)
        with pytest.raises(ZeroVector):
            estimate_phase(r)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_record_rejected(self, bad):
        p = params_for(4)
        samples = np.array([1.0, bad, -1.0, 0.0])
        r = SignalRealization(samples=samples, params=p, seed=0)
        with pytest.raises(OutOfRange):
            estimate_phase(r)

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
        z = rng.standard_normals(SEED, 0, rng.CH_PHASE, 10**6)
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

    def test_variance_matches_model_over_grid(self):
        # empirical total variance of the bin statistic within 1% of the
        # model value for N=100, SNR in {0, 10} dB, sigma_p in {0, 2 deg}
        for snr_db in (0.0, 10.0):
            for sp_deg in (0.0, 2.0):
                p = params_for(100, snr_db=snr_db,
                               sigma_p=math.radians(sp_deg))
                mom = theoretical_moments(p)
                _, var = empirical_moments(p, SEED, 10**6)
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


class TestReducedDraws:
    def test_matches_single_draw_pipeline(self):
        p = params_for(30, snr_db=5.0, sigma_p=0.05, phase=0.8)
        d = reduced_dft_draws(p, 21, 4, 6)
        for j in range(6):
            est = estimate_phase(generate(p, seed=21, draw_index=4 + j))
            assert d[j] == est.d_reduced

    def test_negative_count_rejected(self):
        with pytest.raises(OutOfRange):
            reduced_dft_draws(params_for(8), 0, 0, -1)

    @pytest.mark.parametrize("sigma_p_deg", [1.0, 170.0])
    def test_overflowing_statistic_rejected(self, sigma_p_deg):
        # Finite records with A*N > max float.  At 1 degree the Goertzel sum
        # overflows too; at 170 degrees (beta_p ~ 0.01) it stays finite and
        # only the scale A*N overflows, which would reduce it to 0.
        p = make_params(amplitude=1e306, f0=1.0, fs=1000.0,
                        sigma_phase=math.radians(sigma_p_deg), n_samples=1000)
        with pytest.raises(OutOfRange, match="overflowed"):
            reduced_dft_draws(p, 0, 0, 10)
