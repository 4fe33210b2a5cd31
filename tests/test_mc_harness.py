"""Tests for the Monte-Carlo engine and the statistical-test battery."""
import math

import numpy as np
import pytest

from syncphase import mc_harness
from syncphase.errors import (
    EmptyInput,
    LengthMismatch,
    OutOfRange,
    SingularCovariance,
    TooFewPoints,
)
from syncphase.mc_harness import (
    HIST_BINS,
    _hz_pair_sum,
    McConfig,
    McReport,
    TestBatteryReport as BatteryReport,
    benjamini_hochberg,
    fisher_combine,
    henze_zirkler,
    hoeffding_d,
    run_convergence_battery,
    run_mc,
)
from syncphase.phase_pdf import PolarPdf, pdf_value, rmse_polar, wrap_angle
from syncphase.signal_model import make_params, sigma_x_for_snr
from syncphase.spectral_estimator import reduced_dft_draws, theoretical_moments

SEED = 12


def params_for(n, snr_db=None, sigma_p=0.0, phase=0.0):
    snr = math.inf if snr_db is None else 10.0 ** (snr_db / 10.0)
    return make_params(
        amplitude=1.0, f0=1.0, fs=float(n), phase=phase,
        sigma_additive=sigma_x_for_snr(1.0, snr), sigma_phase=sigma_p,
        n_samples=n)


def phase_estimates(params, seed, n_draws):
    d = reduced_dft_draws(params, seed, 0, n_draws)
    a = np.angle(d)
    a[a == -math.pi] = math.pi
    return a


class TestRunMc:
    def test_noiseless_run_is_exact(self):
        report = run_mc(McConfig(params=params_for(16, phase=0.25),
                                 n_draws=50, master_seed=3))
        assert report.rmse_empirical == 0.0
        assert report.bias_empirical == 0.0
        assert report.mc_standard_error == 0.0
        assert report.var_d == pytest.approx(0.0, abs=1e-30)
        assert report.mean_d == pytest.approx(np.exp(0.25j), abs=1e-12)

    def test_report_agrees_with_direct_recomputation(self):
        p = params_for(20, snr_db=3.0, sigma_p=0.05, phase=1.0)
        report = run_mc(McConfig(params=p, n_draws=2001, master_seed=SEED))
        a = phase_estimates(p, SEED, 2001)
        err = np.asarray(wrap_angle(a - p.phase))
        rmse = math.sqrt(float(np.mean(err**2)))
        assert report.rmse_empirical == pytest.approx(rmse, rel=1e-12)
        assert report.bias_empirical == \
            pytest.approx(float(np.mean(err)), abs=1e-15)
        se = math.sqrt(np.var(err**2, ddof=1) / err.size) / (2.0 * rmse)
        assert report.mc_standard_error == pytest.approx(se, rel=1e-9)
        d = reduced_dft_draws(p, SEED, 0, 2001)
        assert report.mean_d == pytest.approx(complex(d.mean()), rel=1e-12)
        var_d = float(np.mean(np.abs(d - d.mean()) ** 2))
        assert report.var_d == pytest.approx(var_d, rel=1e-9)
        counts, _ = np.histogram(a, bins=report.hist_edges)
        assert np.array_equal(counts, report.hist_counts)

    def test_chunked_run_equals_single_pipeline(self):
        # 450001 draws at N=20 span three internal chunks, one partial
        p = params_for(20, snr_db=0.0, phase=0.6)
        report = run_mc(McConfig(params=p, n_draws=450_001, master_seed=1))
        a = np.concatenate([phase_estimates(p, 1, 250_000),
                            np.angle(reduced_dft_draws(p, 1, 250_000,
                                                       200_001))])
        a[a == -math.pi] = math.pi
        err = np.asarray(wrap_angle(a - p.phase))
        assert report.rmse_empirical == \
            pytest.approx(math.sqrt(float(np.mean(err**2))), rel=1e-12)
        assert int(report.hist_counts.sum()) == 450_001

    def test_chunk_partials_reduce_like_scalar_sums(self, monkeypatch):
        # 7 draws per chunk: 50 draws make 8 chunks, the last one partial;
        # each statistic must be the scalar pairwise sum of its chunk sums,
        # bit for bit
        monkeypatch.setattr(mc_harness, "_CHUNK_BUDGET", 7 * 20)
        p = params_for(20, snr_db=2.0, sigma_p=0.1, phase=0.4)
        report = run_mc(McConfig(params=p, n_draws=50, master_seed=SEED))
        s_e, s_e2, s_e4, s_re, s_im, s_d2 = ([] for _ in range(6))
        for start in range(0, 50, 7):
            d = reduced_dft_draws(p, SEED, start, min(7, 50 - start))
            a = np.arctan2(d.imag, d.real)
            a[a == -math.pi] = math.pi
            err = np.asarray(wrap_angle(a - p.phase))
            s_e.append(float(np.sum(err)))
            s_e2.append(float(np.sum(err * err)))
            s_e4.append(float(np.sum((err * err) ** 2)))
            z = complex(np.sum(d))
            s_re.append(z.real)
            s_im.append(z.imag)
            s_d2.append(float(np.sum(d.real**2 + d.imag**2)))
        sum_e, sum_e2, sum_e4, sum_re, sum_im, sum_d2 = (
            mc_harness._pairwise_sum(s)
            for s in (s_e, s_e2, s_e4, s_re, s_im, s_d2))
        mean_d = complex(sum_re, sum_im) / 50
        rmse = math.sqrt(sum_e2 / 50)
        assert report.bias_empirical == sum_e / 50
        assert report.rmse_empirical == rmse
        assert report.mean_d == mean_d
        assert report.var_d == sum_d2 / 50 - abs(mean_d) ** 2
        mse_var = (sum_e4 - sum_e2**2 / 50) / 49
        assert report.mc_standard_error == \
            math.sqrt(mse_var / 50) / (2.0 * rmse)

    def test_rmse_bounds_bias(self):
        report = run_mc(McConfig(params=params_for(10, snr_db=-5.0),
                                 n_draws=3000, master_seed=4))
        assert report.rmse_empirical >= abs(report.bias_empirical)

    def test_rmse_tracks_analytic_value(self):
        p = params_for(1000, snr_db=20.0)
        report = run_mc(McConfig(params=p, n_draws=10**5, master_seed=SEED))
        analytic = rmse_polar(PolarPdf.from_moments(theoretical_moments(p)))
        gap = abs(report.rmse_empirical - analytic)
        assert gap <= 3.0 * report.mc_standard_error

    def test_histogram_matches_density_pointwise(self):
        # N=20 at fs=10 Hz, -10 dB, sigma_p=5 deg, phi=60 deg, 1e6 draws;
        # every bin within 3 sqrt(count)/count of the closed-form density
        p = make_params(
            amplitude=1.0, f0=1.0, fs=10.0, phase=math.radians(60.0),
            sigma_additive=sigma_x_for_snr(1.0, 10.0 ** (-10.0 / 10.0)),
            sigma_phase=math.radians(5.0), n_samples=20)
        report = run_mc(McConfig(params=p, n_draws=10**6, master_seed=SEED))
        assert report.hist_counts.shape == (HIST_BINS,)
        assert int(report.hist_counts.sum()) == 10**6
        assert np.all(report.hist_counts > 0)
        pdf = PolarPdf.from_moments(theoretical_moments(p))
        centers = 0.5 * (report.hist_edges[:-1] + report.hist_edges[1:])
        width = report.hist_edges[1] - report.hist_edges[0]
        g = pdf_value(pdf, centers)
        h = report.hist_counts / (10**6 * width)
        rel = np.abs(h - g) / g
        band = 3.0 * np.sqrt(report.hist_counts) / report.hist_counts
        assert np.all(rel <= band)

    def test_moments_track_theory_on_grid(self):
        # N=100, 1e6 draws: mean_d within 4 per-axis MC sigma, var_d
        # within 2% of the model variance
        for snr_db in (0.0, 20.0):
            for sp_deg in (0.0, 2.0):
                p = params_for(100, snr_db=snr_db,
                               sigma_p=math.radians(sp_deg))
                mom = theoretical_moments(p)
                report = run_mc(McConfig(params=p, n_draws=10**6,
                                         master_seed=SEED))
                se = math.sqrt(mom.sigma2 / 10**6)
                assert abs(report.mean_d.real - mom.mean.real) <= 4 * se
                assert abs(report.mean_d.imag - mom.mean.imag) <= 4 * se
                assert report.var_d == pytest.approx(mom.variance, rel=0.02)
                bound = 4 * report.rmse_empirical / math.sqrt(10**6)
                assert abs(report.bias_empirical) <= bound

    def test_invalid_config_rejected(self):
        with pytest.raises(OutOfRange):
            run_mc(McConfig(params=params_for(8), n_draws=0, master_seed=0))


class TestHenzeZirkler:
    def test_null_calibration(self):
        accepted = 0
        for rep in range(10):
            gen = np.random.default_rng(100 + rep)
            result = henze_zirkler(gen.standard_normal((2000, 2)))
            accepted += result.p_value > 0.05
        assert accepted >= 9

    def test_rejects_uniform_square(self):
        gen = np.random.default_rng(7)
        result = henze_zirkler(gen.random((2000, 2)))
        assert result.p_value < 0.01

    def test_statistic_is_affine_invariant(self):
        gen = np.random.default_rng(11)
        x = gen.standard_normal((500, 2))
        a = np.array([[2.0, 0.7], [-0.3, 1.4]])
        b = np.array([5.0, -2.0])
        s0 = henze_zirkler(x).statistic
        s1 = henze_zirkler(x @ a.T + b).statistic
        assert s1 == pytest.approx(s0, rel=1e-12)

    def test_pair_sum_matches_allocating_expression_bitwise(self):
        # the allocating expression is the reference: the in-place buffer
        # must do the same operations on the same values
        gen = np.random.default_rng(31)
        for n in (20, 21, 64, 200, 500, 999, 1000, 1500, 2000, 2000):
            x = gen.standard_normal((n, 2)) @ gen.standard_normal((2, 2))
            centered = x - x.mean(axis=0)
            cov = np.cov(x, rowvar=False, bias=True)
            half = centered @ np.linalg.inv(cov) @ centered.T
            d_diag = np.diag(half).copy()
            b2 = ((5 * n / 4.0) ** (1.0 / 6.0) / math.sqrt(2.0)) ** 2
            d_pair = d_diag[:, None] + d_diag[None, :] - 2.0 * half
            want = float(np.sum(np.exp(-0.5 * b2 * d_pair)))
            assert _hz_pair_sum(half, d_diag, b2) == want

    def test_degenerate_inputs(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal(50)
        with pytest.raises(SingularCovariance):
            henze_zirkler(np.column_stack((x, 2.0 * x)))
        with pytest.raises(TooFewPoints):
            henze_zirkler(gen.standard_normal((19, 2)))
        with pytest.raises(OutOfRange):
            henze_zirkler(x)
        bad = gen.standard_normal((30, 2))
        bad[3, 1] = math.nan
        with pytest.raises(OutOfRange):
            henze_zirkler(bad)


def brute_hoeffding(x, y):
    """Definitional O(n^2) evaluation with the u = (1, 1/2, 0) convention."""
    n = len(x)

    def u(a):
        return 1.0 if a > 0 else (0.5 if a == 0 else 0.0)

    q = np.empty(n)
    r = np.empty(n)
    s = np.empty(n)
    for i in range(n):
        q[i] = 1.0 + sum(u(x[i] - x[j]) * u(y[i] - y[j])
                         for j in range(n) if j != i)
        r[i] = 1.0 + sum(u(x[i] - x[j]) for j in range(n) if j != i)
        s[i] = 1.0 + sum(u(y[i] - y[j]) for j in range(n) if j != i)
    d1 = float(np.sum((q - 1) * (q - 2)))
    d2 = float(np.sum((r - 1) * (r - 2) * (s - 1) * (s - 2)))
    d3 = float(np.sum((r - 2) * (s - 2) * (q - 1)))
    num = 30.0 * ((n - 2) * (n - 3) * d1 + d2 - 2 * (n - 2) * d3)
    return num / (n * (n - 1) * (n - 2) * (n - 3) * (n - 4))


class TestHoeffdingD:
    def test_small_samples_match_brute_force(self):
        gen = np.random.default_rng(2)
        for trial in range(30):
            n = int(gen.integers(5, 12))
            if trial % 2:
                x = gen.integers(0, 4, n).astype(float)  # heavy ties
                y = gen.integers(0, 3, n).astype(float)
            else:
                x = gen.standard_normal(n)
                y = gen.standard_normal(n)
            assert hoeffding_d(x, y) == \
                pytest.approx(brute_hoeffding(x, y), abs=1e-12), trial

    def test_perfect_dependence_is_maximal(self):
        x = np.random.default_rng(6).standard_normal(1000)
        assert hoeffding_d(x, x) == pytest.approx(1.0, abs=1e-3)

    def test_null_mean_is_exactly_zero(self):
        import itertools
        x = np.arange(5, dtype=float)
        vals = [hoeffding_d(x, np.array(p, dtype=float))
                for p in itertools.permutations(range(5))]
        assert math.fsum(vals) / len(vals) == pytest.approx(0.0, abs=1e-14)

    def test_independent_streams_are_near_zero(self):
        gen = np.random.default_rng(0)
        d = hoeffding_d(gen.random(10**5), gen.random(10**5))
        assert abs(d) < 1e-4

    def test_validation(self):
        with pytest.raises(LengthMismatch):
            hoeffding_d(np.arange(6.0), np.arange(7.0))
        with pytest.raises(TooFewPoints):
            hoeffding_d(np.arange(4.0), np.arange(4.0))
        with pytest.raises(OutOfRange):
            hoeffding_d(np.full(6, math.inf), np.arange(6.0))


class TestPValueMachinery:
    def test_bh_hand_example(self):
        adjusted = benjamini_hochberg([0.005, 0.01, 0.03, 0.04])
        assert adjusted == pytest.approx([0.02, 0.02, 0.04, 0.04], abs=1e-12)

    def test_bh_respects_input_order(self):
        p = [0.03, 0.005, 0.04, 0.01]
        adjusted = benjamini_hochberg(p)
        assert adjusted == pytest.approx([0.04, 0.02, 0.04, 0.02], abs=1e-12)

    def test_bh_sorted_output_is_monotone_and_dominates_raw(self):
        gen = np.random.default_rng(3)
        p = gen.random(25)
        adjusted = benjamini_hochberg(p)
        order = np.argsort(p)
        assert np.all(np.diff(adjusted[order]) >= -1e-15)
        assert np.all(adjusted >= p - 1e-15)
        assert np.all(adjusted <= 1.0)

    def test_bh_validation(self):
        with pytest.raises(OutOfRange):
            benjamini_hochberg([0.5, 1.5])
        with pytest.raises(EmptyInput):
            benjamini_hochberg([])

    def test_fisher_all_ones(self):
        stat, p = fisher_combine([1.0, 1.0, 1.0])
        assert stat == 0.0
        assert p == 1.0

    def test_fisher_pair_of_05(self):
        stat, p = fisher_combine([0.05, 0.05])
        assert stat == pytest.approx(11.983, abs=1e-3)
        assert p == pytest.approx(0.0175, abs=1e-4)

    def test_fisher_zero_p_value_degenerates(self):
        stat, p = fisher_combine([0.0, 0.5])
        assert math.isinf(stat) and stat > 0
        assert p == 0.0

    def test_fisher_validation(self):
        with pytest.raises(OutOfRange):
            fisher_combine([0.5, -0.1])
        with pytest.raises(EmptyInput):
            fisher_combine([])


class TestConvergenceBattery:
    def test_well_behaved_point_passes(self):
        p = params_for(20, snr_db=0.0, sigma_p=math.radians(1.0))
        (report,) = run_convergence_battery([p], master_seed=SEED)
        assert isinstance(report, BatteryReport)
        assert report.failure is None
        assert len(report.hz_p_values) == 10
        assert len(report.hz_p_adjusted) == 10
        assert report.fisher_statistic >= 0.0
        assert report.verdict_normality
        assert report.fisher_p_value >= 0.05
        assert abs(report.hoeffding_statistic) < 1e-4
        order = np.argsort(report.hz_p_values)
        assert np.all(np.diff(np.asarray(report.hz_p_adjusted)[order])
                      >= -1e-15)

    def test_extreme_point_is_recorded_without_judgement(self):
        # N=10 with 10 deg phase noise: outside the documented convergence
        # envelope; the battery must still produce a full record
        p = params_for(10, snr_db=0.0, sigma_p=math.radians(10.0))
        (report,) = run_convergence_battery([p], master_seed=SEED)
        assert report.failure is None
        assert math.isfinite(report.fisher_p_value)
        assert math.isfinite(report.hoeffding_statistic)

    def test_degenerate_point_is_isolated(self):
        grid = [params_for(20), params_for(20, snr_db=0.0)]
        reports = run_convergence_battery(grid, master_seed=SEED)
        assert reports[0].failure is not None
        assert "SingularCovariance" in reports[0].failure
        assert not reports[0].verdict_normality
        assert reports[1].failure is None

    def test_parameter_validation(self):
        p = params_for(20, snr_db=0.0)
        with pytest.raises(OutOfRange):
            run_convergence_battery([p], master_seed=0, repetitions=0)
        with pytest.raises(OutOfRange):
            run_convergence_battery([p], master_seed=0, alpha=1.5)
