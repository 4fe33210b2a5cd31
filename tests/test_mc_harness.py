"""Tests for the Monte-Carlo engine and the statistical-test battery."""
import dataclasses
import gc
import math
import multiprocessing
import threading
import tracemalloc
import warnings
from itertools import accumulate

import numpy as np
import pytest
from scipy.stats import chi2, lognorm, rankdata

from syncphase import mc_harness, signal_model, spectral_estimator
from syncphase.errors import (
    EmptyInput,
    LengthMismatch,
    OutOfRange,
    SingularCovariance,
    TooFewPoints,
)
from syncphase.mc_harness import (
    BatteryReport,
    HIST_BINS,
    _hz_pair_sum,
    McConfig,
    McReport,
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


def no_pool():
    raise AssertionError("this batch must stay on the calling thread")


def hz_must_equal(x, want):
    if henze_zirkler(x) != want:
        raise SystemExit(1)


def battery_one_batch_at_a_time(params, seed, repetitions, hz_draws,
                                hoeffding_draws, alpha=0.05):
    """The battery's report for one point, as it was computed before
    batches shared a draw call: one reduced_dft_draws call per batch, and
    the tests one after the other on this thread."""
    try:
        stats, p_raw = [], []
        for rep in range(repetitions):
            d = reduced_dft_draws(params, seed, rep * hz_draws, hz_draws)
            result = henze_zirkler(np.column_stack((d.real, d.imag)))
            stats.append(result.statistic)
            p_raw.append(result.p_value)
        adjusted = benjamini_hochberg(p_raw)
        fisher_stat, fisher_p = fisher_combine(adjusted)
        d = reduced_dft_draws(params, seed, repetitions * hz_draws,
                              hoeffding_draws)
        return BatteryReport(
            hz_statistic=float(np.mean(stats)), hz_p_values=tuple(p_raw),
            hz_p_adjusted=tuple(adjusted), fisher_statistic=fisher_stat,
            fisher_p_value=fisher_p,
            hoeffding_statistic=hoeffding_d(d.real, d.imag),
            verdict_normality=bool(fisher_p >= alpha))
    except SingularCovariance as exc:
        nan = math.nan
        return BatteryReport(nan, (), (), nan, nan, nan, False,
                             failure=f"{type(exc).__name__}: {exc}")


def report_bits(report):
    """Every field of a BatteryReport, each float as its hex string."""
    def bits(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(bits(v) for v in value)
        return value
    return {field.name: bits(getattr(report, field.name))
            for field in dataclasses.fields(report)}


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
        monkeypatch.setattr(spectral_estimator, "_CHUNK_BUDGET", 7 * 20)
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

    @pytest.mark.slow
    def test_moments_track_theory_on_grid(self, monkeypatch, shared_draws):
        # N=100, 1e6 draws: mean_d within 4 per-axis MC sigma, var_d
        # within 2% of the model variance; the 0 dB cells come from the
        # session's shared draws
        monkeypatch.setattr(mc_harness, "reduced_dft_draws", shared_draws)
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

    @pytest.mark.parametrize("n", [20, 1000])  # kernel fill, native loop
    def test_numpy_integer_seed_gives_the_python_int_report(self, n):
        p = params_for(n, snr_db=0.0, sigma_p=0.1)
        want = run_mc(McConfig(params=p, n_draws=100, master_seed=7))
        got = run_mc(McConfig(params=p, n_draws=100, master_seed=np.int64(7)))
        assert got.rmse_empirical.hex() == want.rmse_empirical.hex()
        assert got.mean_d == want.mean_d
        assert got.hist_counts.tobytes() == want.hist_counts.tobytes()
        with pytest.raises(OutOfRange, match="must be an integer"):
            run_mc(McConfig(params=p, n_draws=100, master_seed=7.0))


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

    def test_p_value_is_lognorm_sf_bit_for_bit(self, monkeypatch):
        # the statistic and null moments henze_zirkler hands its tail
        calls = []
        tail = mc_harness._lognorm_sf

        def recording_tail(statistic, s, scale):
            calls.append((statistic, s, scale))
            return tail(statistic, s, scale)

        monkeypatch.setattr(mc_harness, "_lognorm_sf", recording_tail)
        gen = np.random.default_rng(53)
        for n in (20, 21, 100, 700, 2000):
            for x in (gen.standard_normal((n, 2)), gen.random((n, 2)),
                      gen.standard_normal((n, 2)) ** 3):
                result = henze_zirkler(x)
                statistic, s, scale = calls[-1]
                assert result.statistic == statistic
                assert result.p_value == float(
                    lognorm.sf(statistic, s, scale=scale))

    @pytest.mark.parametrize("statistic", [0.0, -0.0, 5e-324, math.inf])
    def test_p_value_edges_match_lognorm_sf(self, statistic):
        for s, scale in ((0.7, 1.3), (0.1, 1e-3), (2.0, 40.0)):
            assert mc_harness._lognorm_sf(statistic, s, scale) == float(
                lognorm.sf(statistic, s, scale=scale))

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

    @pytest.mark.parametrize("n", [700, 2000, 2001])
    @pytest.mark.parametrize("edge", ["zero", "subnormal", "huge_negative_h",
                                      "huge_positive_h"])
    def test_halved_leaf_matches_allocating_expression_at_edges(self, n,
                                                                edge):
        # The leaf adds d_i/2 + d_j/2 and takes half_ij once, where the
        # expression adds d_i + d_j and takes 2 half_ij: equal bit for bit
        # while every step stays normal, and at these edges too.
        gen = np.random.default_rng(59)
        x = gen.standard_normal((n, 2)) @ gen.standard_normal((2, 2))
        centered = x - x.mean(axis=0)
        cov = np.cov(x, rowvar=False, bias=True)
        if edge == "zero":  # a point at the mean
            centered[3] = 0.0
        half = centered @ np.linalg.inv(cov) @ centered.T
        d_diag = np.diag(half).copy()
        b2 = ((5 * n / 4.0) ** (1.0 / 6.0) / math.sqrt(2.0)) ** 2
        if edge == "zero":
            assert d_diag[3] == 0.0 and not np.any(half[3])
        elif edge == "subnormal":
            # odd subnormals, whose halves round, and the smallest normal
            # with an odd last bit; their pairs' half terms as small
            tiny = [5e-324, 3 * 5e-324, 2.0**-1021 + 2.0**-1073, 2.0**-990]
            for i, v in enumerate(tiny):
                d_diag[i] = v
                half[i, :4] = half[:4, i] = 7e-324 * (i + 1)
        else:  # 2 h overflows, h * b2 need not
            sign = -1.0 if edge == "huge_negative_h" else 1.0
            half[5, 7], half[7, 5], half[9, 9] = sign * np.array(
                [1e308, 1.7e308, 8.99e307])
        with np.errstate(over="ignore"):
            want = float(np.sum(np.exp(
                -0.5 * b2 * (d_diag[:, None] + d_diag[None, :] - 2.0 * half))))
            got = _hz_pair_sum(half, d_diag, b2)
        assert got.hex() == want.hex()
        if edge == "huge_positive_h":
            assert want == math.inf
        else:
            assert math.isfinite(want)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("tile", [64, None])
    def test_tiled_pair_sum_matches_on_one_and_two_threads(
            self, monkeypatch, threads, tile):
        # With a 64-term tile (NumPy's 128-term loop is the smallest leaf)
        # and the split forced, leaves and the top split fall mid-row.
        monkeypatch.setattr(signal_model, "_THREADS", threads)
        monkeypatch.setattr(mc_harness, "_HZ_SPLIT_MIN_PAIRS", 0)
        if tile is not None:
            monkeypatch.setattr(mc_harness, "_HZ_TILE", tile)
        pools = []
        worker_pool = signal_model._worker_pool

        def recording_pool():
            pools.append(True)
            return worker_pool()

        monkeypatch.setattr(signal_model, "_worker_pool",
                            recording_pool)
        gen = np.random.default_rng(47)
        for n in (20, 21, 37, 999, 2001):
            x = gen.standard_normal((n, 2)) @ gen.standard_normal((2, 2))
            centered = x - x.mean(axis=0)
            cov = np.cov(x, rowvar=False, bias=True)
            half = centered @ np.linalg.inv(cov) @ centered.T
            d_diag = np.diag(half).copy()
            b2 = ((5 * n / 4.0) ** (1.0 / 6.0) / math.sqrt(2.0)) ** 2
            before = half.tobytes()
            want = float(np.sum(np.exp(
                -0.5 * b2 * (d_diag[:, None] + d_diag[None, :] - 2.0 * half))))
            assert _hz_pair_sum(half, d_diag, b2) == want, n
            assert half.tobytes() == before, n
        assert len(pools) == (5 if threads == 2 else 0)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_pair_sum_holds_one_matrix_and_keeps_none(self, monkeypatch,
                                                      threads):
        # n = 1000: the (n, n) product is 8 MB, two matrices are 16 MB, and
        # a matrix kept after a call would stay traced.  With the cycle
        # collector off, a reference cycle would keep one too.
        monkeypatch.setattr(signal_model, "_THREADS", threads)
        x = np.random.default_rng(19).standard_normal((1000, 2))
        henze_zirkler(x)  # warm-up, outside the traced calls
        gc.disable()
        tracemalloc.start()
        try:
            for _ in range(3):
                henze_zirkler(x)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak < 14 * 2**20
        assert current < 2**20

    def test_batch_below_threshold_never_touches_the_pool(self, monkeypatch):
        # the CLI tests' --hz-draws 20
        assert 20 * 20 < mc_harness._HZ_SPLIT_MIN_PAIRS
        monkeypatch.setattr(signal_model, "_THREADS", 2)
        monkeypatch.setattr(signal_model, "_worker_pool", no_pool)
        p = params_for(20, snr_db=0.0, sigma_p=math.radians(1.0))
        (report,) = run_convergence_battery(
            [p], SEED, repetitions=1, hz_draws=20, hoeffding_draws=10)
        assert report.failure is None

    def test_single_cpu_never_starts_the_pool(self, monkeypatch):
        x = np.random.default_rng(13).standard_normal((2000, 2))
        assert 2000 * 2000 >= mc_harness._HZ_SPLIT_MIN_PAIRS
        monkeypatch.setattr(signal_model, "_THREADS", 2)
        split = henze_zirkler(x)
        monkeypatch.setattr(signal_model, "_THREADS", 1)
        monkeypatch.setattr(signal_model, "_worker_pool", no_pool)
        sequential = henze_zirkler(x)
        assert sequential.statistic.hex() == split.statistic.hex()
        assert sequential.p_value.hex() == split.p_value.hex()

    def test_forked_child_still_splits(self, monkeypatch):
        # The child is forked right after a split; its own split must
        # start and join a worker of its own.
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        monkeypatch.setattr(signal_model, "_THREADS", 2)
        x = np.random.default_rng(17).standard_normal((2000, 2))
        want = henze_zirkler(x)  # a split before the fork
        child = multiprocessing.get_context("fork").Process(
            target=hz_must_equal, args=(x, want))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
            pytest.fail("the forked child's split never finished")
        assert child.exitcode == 0

    def test_no_worker_thread_outlives_a_split(self, monkeypatch):
        monkeypatch.setattr(signal_model, "_THREADS", 2)
        monkeypatch.setattr(mc_harness, "_HZ_SPLIT_MIN_PAIRS", 0)
        henze_zirkler(np.random.default_rng(23).standard_normal((300, 2)))
        assert [t.name for t in threading.enumerate()
                if t.name.startswith("syncphase")] == []

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

    @pytest.mark.parametrize("scale", [1e154, 1e300])
    def test_overflowing_covariance_raises(self, scale):
        # np.cov overflows and used to give a nan statistic and p-value
        x = np.random.default_rng(0).standard_normal((50, 2))
        with pytest.raises(OutOfRange):
            henze_zirkler(x * scale)

    @pytest.mark.parametrize("scale", [1e150, 1e-153])
    def test_large_or_tiny_finite_covariance_keeps_the_statistic(self, scale):
        x = np.random.default_rng(0).standard_normal((50, 2))
        assert henze_zirkler(x * scale).statistic == pytest.approx(
            henze_zirkler(x).statistic, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-155, 1e-158])
    def test_overflowing_inverse_covariance_raises(self, scale):
        # a subnormal covariance of full rank: 1e-155 used to give a nan
        # statistic and p-value, 1e-158 a SingularCovariance
        x = np.random.default_rng(0).standard_normal((50, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="inverse"):
                henze_zirkler(x * scale)

    def test_covariance_that_underflows_to_zero_is_singular(self):
        x = np.random.default_rng(0).standard_normal((50, 2))
        with pytest.raises(SingularCovariance):
            henze_zirkler(x * 1e-162)


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


def definitional_ranks(x, y):
    """Q_i = 1 + sum_{j != i} u(x_i - x_j) u(y_i - y_j), pair by pair."""
    def u(v):
        return np.where(v[:, None] > v, 1.0,
                        np.where(v[:, None] == v, 0.5, 0.0))

    both = u(x) * u(y)
    np.fill_diagonal(both, 0.0)
    return 1.0 + both.sum(axis=1)


RANK_CASES = {
    "heavy_ties": lambda gen, n: (gen.integers(0, 4, n) * 1.0,
                                  gen.integers(0, 3, n) * 1.0),
    "no_ties": lambda gen, n: (gen.standard_normal(n), gen.standard_normal(n)),
    "x_all_tied": lambda gen, n: (np.full(n, 2.5), gen.standard_normal(n)),
    "y_all_tied": lambda gen, n: (gen.standard_normal(n), np.full(n, -1.0)),
    "signed_zeros": lambda gen, n: (gen.choice([-0.0, 0.0, 1.0], n),
                                    gen.choice([0.0, -0.0, -2.0], n)),
    "comonotone": lambda gen, n: (np.arange(n) * 1.0, np.arange(n) * 3.0),
    "antimonotone": lambda gen, n: (np.arange(n) * 1.0, np.arange(n) * -1.0),
}


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
        with pytest.raises(OutOfRange, match="must be 1-D"):
            hoeffding_d(np.zeros((6, 2)), np.arange(6.0))

    @pytest.mark.parametrize("n", [5, 6, 37, 600])
    @pytest.mark.parametrize("case", sorted(RANK_CASES))
    def test_bivariate_ranks_equal_definitional_count(self, case, n):
        gen = np.random.default_rng(n)
        for _ in range(5):
            x, y = RANK_CASES[case](gen, n)
            r = rankdata(x, method="average")
            s = rankdata(y, method="average")
            q = mc_harness._bivariate_ranks(r, s)
            assert np.array_equal(q, definitional_ranks(x, y))

    @pytest.mark.parametrize("n", [5, 6, 37, 600])
    @pytest.mark.parametrize("case", sorted(RANK_CASES))
    def test_midranks_equal_rankdata(self, case, n):
        gen = np.random.default_rng(n)
        for _ in range(5):
            for v in RANK_CASES[case](gen, n):
                want = rankdata(v, method="average")
                got = mc_harness._midranks(v)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_peak_memory_at_10_to_the_5_points(self):
        # about 7 MiB: np.unique's buffers for one midrank, then the
        # sweep's handful of int32 arrays
        gen = np.random.default_rng(5)
        x = gen.standard_normal(10**5)
        y = 0.5 * x + gen.standard_normal(10**5)
        tracemalloc.start()
        try:
            hoeffding_d(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2**20

    def test_value_is_pinned_at_2000_points(self):
        # the value the Fenwick-tree rank sweep gave, bit for bit
        gen = np.random.default_rng(2000)
        x = gen.standard_normal(2000)
        y = np.round(0.5 * x + gen.standard_normal(2000), 1)  # 68 values
        assert hoeffding_d(x, y) == 0.047215001976071


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

    @pytest.mark.parametrize("combine", [benjamini_hochberg, fisher_combine],
                             ids=["bh", "fisher"])
    @pytest.mark.parametrize("p_values, error, message", [
        ([0.5, 1.5], OutOfRange, "must lie in"),
        ([0.5, -0.1], OutOfRange, "must lie in"),
        ([], EmptyInput, "no p-values"),
        ([math.nan], OutOfRange, "must lie in"),
        ([[0.1, 0.2], [0.3, 0.4]], OutOfRange, "must be 1-D"),
    ], ids=["above_one", "below_zero", "empty", "nan", "two_d"])
    def test_validation(self, combine, p_values, error, message):
        with pytest.raises(error, match=message):
            combine(p_values)

    def test_fisher_all_ones(self):
        stat, p = fisher_combine([1.0, 1.0, 1.0])
        assert stat == 0.0
        assert p == 1.0
        assert math.copysign(1.0, stat) == -1.0  # -0.0, as chi2.sf takes it
        assert p == float(chi2.sf(stat, 6))

    def test_fisher_p_value_is_chi2_sf_bit_for_bit(self):
        gen = np.random.default_rng(29)
        for k in (1, 2, 3, 10, 40):
            for _ in range(50):
                p = gen.random(k) ** gen.uniform(0.05, 20.0)
                statistic, p_value = fisher_combine(p)
                assert p_value == float(chi2.sf(statistic, 2 * k))

    def test_fisher_pair_of_05(self):
        stat, p = fisher_combine([0.05, 0.05])
        assert stat == pytest.approx(11.983, abs=1e-3)
        assert p == pytest.approx(0.0175, abs=1e-4)

    def test_fisher_zero_p_value_degenerates(self):
        stat, p = fisher_combine([0.0, 0.5])
        assert math.isinf(stat) and stat > 0
        assert p == 0.0
        assert p == float(chi2.sf(stat, 4))


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

    def test_hoeffding_batch_is_chunked_bit_for_bit(self, monkeypatch):
        # 13 draws per chunk: 100 draws make 8 chunks, the last one partial;
        # the batch is draws 20..119, after the one 20-draw HZ batch
        p = params_for(20, snr_db=0.0, sigma_p=math.radians(1.0))
        d = reduced_dft_draws(p, SEED, 20, 100)
        want = hoeffding_d(d.real, d.imag)
        kwargs = dict(repetitions=1, hz_draws=20, hoeffding_draws=100)
        (whole,) = run_convergence_battery([p], SEED, **kwargs)
        monkeypatch.setattr(spectral_estimator, "_CHUNK_BUDGET", 13 * 20)
        (chunked,) = run_convergence_battery([p], SEED, **kwargs)
        assert whole.hoeffding_statistic == want
        assert chunked.hoeffding_statistic == want
        assert chunked.hz_p_values == whole.hz_p_values

    def test_hoeffding_batch_memory_does_not_grow_with_draws(
            self, monkeypatch):
        # 20-draw chunks at N=1000: in one piece the 2000 draws' records
        # and noise would take 32 MB; in chunks the peak is set by the
        # chunk, plus 16 B per draw for the statistics
        monkeypatch.setattr(spectral_estimator, "_CHUNK_BUDGET", 20 * 1000)
        p = params_for(1000, snr_db=0.0, sigma_p=math.radians(1.0))
        tracemalloc.start()
        try:
            (report,) = run_convergence_battery(
                [p], SEED, repetitions=1, hz_draws=20, hoeffding_draws=2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.failure is None
        assert peak < 4 * 2**20

    def test_hz_batch_memory_does_not_grow_with_draws(self, monkeypatch):
        # 20-draw chunks at N=10^4: in one piece the 200 draws' records
        # and noise would take 32 MB; in chunks the peak is set by the
        # chunk and the 200-point Henze-Zirkler matrix
        monkeypatch.setattr(spectral_estimator, "_CHUNK_BUDGET", 20 * 10**4)
        p = params_for(10**4, snr_db=0.0, sigma_p=math.radians(1.0))
        tracemalloc.start()
        try:
            (report,) = run_convergence_battery(
                [p], SEED, repetitions=1, hz_draws=200, hoeffding_draws=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.failure is None
        assert peak < 6 * 2**20

    # perfbench's battery points: (0 dB, 0.1 deg) and (20 dB, 5 deg) at N=20
    BENCH_POINTS = [params_for(20, snr_db=0.0, sigma_p=math.radians(0.1)),
                    params_for(20, snr_db=20.0, sigma_p=math.radians(5.0))]

    @pytest.mark.parametrize("point", [0, 1])
    @pytest.mark.parametrize("repetitions", [1, 3])
    @pytest.mark.parametrize("hz_draws", [600, 2000])
    def test_report_has_the_bits_of_one_batch_at_a_time(
            self, monkeypatch, point, repetitions, hz_draws):
        # 600 draws stay below the split and Hoeffding's D runs after the
        # repetitions; 2000 split and it runs beside them
        assert 600**2 < mc_harness._HZ_SPLIT_MIN_PAIRS <= 2000**2
        monkeypatch.setattr(signal_model, "_THREADS", 2)
        p = self.BENCH_POINTS[point]
        (got,) = run_convergence_battery([p], SEED, repetitions=repetitions,
                                         hz_draws=hz_draws,
                                         hoeffding_draws=2000)
        assert got.failure is None
        assert report_bits(got) == report_bits(battery_one_batch_at_a_time(
            p, SEED, repetitions, hz_draws, 2000))

    @pytest.mark.parametrize("chunk", [2500, 4500])
    def test_report_has_the_same_bits_over_several_calls(self, monkeypatch,
                                                         chunk):
        # 2500 draws a chunk: each batch alone, Hoeffding's D after the
        # repetitions; 4500: two batches a call, the last repetition
        # beside Hoeffding's D
        monkeypatch.setattr(signal_model, "_THREADS", 2)
        monkeypatch.setattr(spectral_estimator, "_CHUNK_BUDGET", chunk * 20)
        p = self.BENCH_POINTS[1]
        (got,) = run_convergence_battery([p], SEED, repetitions=3,
                                         hz_draws=2000, hoeffding_draws=2000)
        assert report_bits(got) == report_bits(
            battery_one_batch_at_a_time(p, SEED, 3, 2000, 2000))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("hoeffding_fails", [False, True])
    def test_singular_covariance_still_makes_the_row(
            self, monkeypatch, threads, hoeffding_fails):
        # Hoeffding's D may run beside the repetition that raises; the row
        # is still that repetition's failure, also when D raises too
        monkeypatch.setattr(signal_model, "_THREADS", threads)
        p = params_for(20)  # noiseless: every draw is the same statistic
        want = battery_one_batch_at_a_time(p, SEED, 3, 2000, 2000)
        if hoeffding_fails:
            def failing_hoeffding(x, y):
                raise RuntimeError("Hoeffding's D must not make this row")

            monkeypatch.setattr(mc_harness, "hoeffding_d", failing_hoeffding)
        (got,) = run_convergence_battery([p], SEED, repetitions=3,
                                         hz_draws=2000, hoeffding_draws=2000)
        assert got.failure.startswith("SingularCovariance: ")
        assert report_bits(got) == report_bits(want)

    @pytest.mark.parametrize("hz_draws, hoeffding_draws", [
        (30, 50), (30, 250), (150, 40)])
    def test_no_draw_call_exceeds_a_chunk_or_the_largest_batch(
            self, monkeypatch, hz_draws, hoeffding_draws):
        # 100 draws a chunk at N=20: many repetitions make more calls, not
        # larger ones
        monkeypatch.setattr(spectral_estimator, "_CHUNK_BUDGET", 100 * 20)
        calls = []

        def recording_draws(params, seed, first_draw, n_draws):
            calls.append((first_draw, n_draws))
            return reduced_dft_draws(params, seed, first_draw, n_draws)

        monkeypatch.setattr(mc_harness, "reduced_dft_draws", recording_draws)
        p = params_for(20, snr_db=0.0, sigma_p=math.radians(1.0))
        (report,) = run_convergence_battery(
            [p], SEED, repetitions=25, hz_draws=hz_draws,
            hoeffding_draws=hoeffding_draws)
        assert report.failure is None
        assert max(n for _, n in calls) <= max(100, hz_draws, hoeffding_draws)
        # in order, each call after the one before, every draw once
        assert [first for first, _ in calls] == list(
            accumulate((n for _, n in calls[:-1]), initial=0))
        assert sum(n for _, n in calls) == 25 * hz_draws + hoeffding_draws

    def test_numpy_integer_seed_gives_the_python_int_report(self):
        p = params_for(20, snr_db=0.0, sigma_p=math.radians(1.0))
        kwargs = dict(repetitions=2, hz_draws=50, hoeffding_draws=40)
        (want,) = run_convergence_battery([p], 3, **kwargs)
        (got,) = run_convergence_battery([p], np.int64(3), **kwargs)
        assert got == want

    def test_parameter_validation(self):
        p = params_for(20, snr_db=0.0)
        with pytest.raises(OutOfRange):
            run_convergence_battery([p], master_seed=0, repetitions=0)
        with pytest.raises(OutOfRange):
            run_convergence_battery([p], master_seed=0, alpha=1.5)

    @pytest.mark.parametrize("sizes", [
        dict(hz_draws=0), dict(hz_draws=19), dict(hoeffding_draws=4),
        dict(hoeffding_draws=-1),
    ])
    def test_bad_sizes_are_rejected_before_any_draw(self, monkeypatch,
                                                    sizes):
        # they were a NaN row with a TooFewPoints failure
        def no_draws(*args):
            raise AssertionError("a bad size must be rejected first")

        monkeypatch.setattr(mc_harness, "reduced_dft_draws", no_draws)
        p = params_for(20, snr_db=0.0)
        with pytest.raises(OutOfRange, match="must be >="):
            run_convergence_battery([p], master_seed=0, **sizes)

    def test_smallest_sizes_give_a_full_row(self):
        p = params_for(20, snr_db=0.0, sigma_p=math.radians(1.0))
        (report,) = run_convergence_battery(
            [p], SEED, repetitions=1, hz_draws=20, hoeffding_draws=5)
        assert report.failure is None
        assert math.isfinite(report.fisher_p_value)
        assert math.isfinite(report.hoeffding_statistic)
