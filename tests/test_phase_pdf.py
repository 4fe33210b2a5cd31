"""Tests for the closed-form estimator density and the error analysis."""
import math

import numpy as np
import pytest

import syncphase.phase_pdf as phase_pdf
from syncphase.errors import DegenerateSigma, OutOfRange
from syncphase.phase_pdf import (
    NARROW_SPREAD,
    ErrorReport,
    PolarPdf,
    Regime,
    bias_polar,
    classify_regime,
    crlb,
    efficiency,
    error_report,
    pdf_value,
    rmse_cartesian_oracle,
    rmse_floor_approx,
    rmse_linear_approx,
    rmse_polar,
    rmse_uniform_limit,
    wrap_angle,
)
from syncphase.quadrature import integrate
from syncphase.signal_model import make_params, sigma_x_for_snr
from syncphase.spectral_estimator import theoretical_moments

UNIFORM = 1.0 / (2.0 * math.pi)


def params_for(n, snr_db=None, sigma_p=0.0, phase=0.0):
    snr = math.inf if snr_db is None else 10.0 ** (snr_db / 10.0)
    return make_params(
        amplitude=1.0, f0=1.0, fs=float(n), phase=phase,
        sigma_additive=sigma_x_for_snr(1.0, snr), sigma_phase=sigma_p,
        n_samples=n)


def moments_for(n, snr_db=None, sigma_p=0.0, phase=0.0):
    return theoretical_moments(params_for(n, snr_db, sigma_p, phase))


def pdf_mass(pdf):
    """Total probability, integrating in lobe units so tiny peaks resolve."""
    scale = pdf.spread
    u_max = min(math.pi / scale, 50.0)
    marks = [m for m in (-5.0, -1.0, 1.0, 5.0) if -u_max < m < u_max]
    lobe = integrate(
        lambda u: pdf_value(pdf, u * scale + pdf.phi) * scale,
        -u_max, u_max, breakpoints=marks)
    w = u_max * scale
    if w >= math.pi:
        return lobe
    # beyond 50 lobe widths only the flat ambient component is left
    tails = integrate(lambda th: pdf_value(pdf, th + pdf.phi), w, math.pi) \
        + integrate(lambda th: pdf_value(pdf, th + pdf.phi), -math.pi, -w)
    return lobe + tails


class TestPolarPdfType:
    def test_validation(self):
        with pytest.raises(DegenerateSigma):
            PolarPdf(beta_p=1.0, sigma=0.0)
        with pytest.raises(OutOfRange):
            PolarPdf(beta_p=1.0, sigma=-0.5)
        with pytest.raises(OutOfRange):
            PolarPdf(beta_p=1.0, sigma=math.inf)
        with pytest.raises(OutOfRange):
            PolarPdf(beta_p=-0.1, sigma=0.1)
        with pytest.raises(OutOfRange):
            PolarPdf(beta_p=1.2, sigma=0.1)
        with pytest.raises(OutOfRange):
            PolarPdf(beta_p=1.0, sigma=0.1, phi=math.nan)

    def test_from_moments(self):
        mom = moments_for(100, snr_db=10.0, sigma_p=0.1, phase=0.9)
        pdf = PolarPdf.from_moments(mom)
        assert pdf.beta_p == mom.beta_p
        assert pdf.sigma == pytest.approx(math.sqrt(mom.sigma2), rel=1e-15)
        assert pdf.phi == mom.phase

    def test_from_noiseless_moments_rejected(self):
        # one sigma = 0 check, so one message for both routes
        with pytest.raises(DegenerateSigma) as noiseless:
            PolarPdf.from_moments(moments_for(100))
        with pytest.raises(DegenerateSigma) as direct:
            PolarPdf(beta_p=0.5, sigma=0.0)
        assert str(direct.value) == str(noiseless.value) == (
            "noiseless configuration: the estimate is deterministic")

    def test_normalization_over_parameter_grid(self):
        # unit mass to 1e-8 across five phase-noise levels and sigma
        # spanning nine orders of magnitude
        betas = [math.exp(-0.5 * math.radians(d) ** 2)
                 for d in (0.0, 0.1, 1.0, 5.0, 10.0)]
        for beta in betas:
            for sigma in (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0):
                pdf = PolarPdf(beta_p=beta, sigma=sigma, phi=0.0)
                assert pdf_mass(pdf) == pytest.approx(1.0, abs=1e-8), \
                    (beta, sigma)

    def test_normalization_reference_case(self):
        assert pdf_mass(PolarPdf(beta_p=1.0, sigma=0.1)) == \
            pytest.approx(1.0, abs=1e-8)

    def test_density_is_nonnegative(self):
        theta = np.linspace(-math.pi, math.pi, 10001)
        for beta, sigma in ((1.0, 0.05), (0.9, 0.5), (0.5, 3.0), (1.0, 1e-4)):
            values = pdf_value(PolarPdf(beta_p=beta, sigma=sigma), theta)
            assert np.all(values >= 0.0), (beta, sigma)

    def test_maximum_sits_at_phi(self):
        theta = np.linspace(-math.pi, math.pi, 200001)
        for phi in (0.0, 0.8, -2.4):
            pdf = PolarPdf(beta_p=0.98, sigma=0.3, phi=phi)
            values = pdf_value(pdf, theta)
            peak = theta[int(np.argmax(values))]
            assert abs(wrap_angle(peak - phi)) < 2e-4

    def test_spread_property(self):
        pdf = PolarPdf(beta_p=0.5, sigma=0.1)
        assert pdf.spread == pytest.approx(0.2, rel=1e-15)


class TestPdfValue:
    def test_wide_limit_is_uniform(self):
        theta = np.linspace(-math.pi, math.pi, 41)
        for beta in (1.0, 0.995):
            values = pdf_value(PolarPdf(beta_p=beta, sigma=1e5), theta)
            assert values == pytest.approx(UNIFORM, rel=2e-5)

    def test_quadrature_points_see_only_ambient_term(self):
        # at theta = phi +/- pi/2 the lobe term carries a cos factor of
        # zero, leaving just the ambient exp(-beta^2/(2 sigma^2))/(2 pi)
        for beta, sigma in ((1.0, 0.1), (0.9, 0.03), (0.7, 2.0)):
            pdf = PolarPdf(beta_p=beta, sigma=sigma, phi=0.4)
            ambient = math.exp(-0.5 * (beta / sigma) ** 2) * UNIFORM
            for theta in (0.4 + math.pi / 2.0, 0.4 - math.pi / 2.0):
                assert pdf_value(pdf, theta) == \
                    pytest.approx(ambient, rel=1e-9), (beta, sigma)

    def test_scalar_and_vector_evaluation_agree(self):
        pdf = PolarPdf(beta_p=0.99, sigma=0.2, phi=-1.0)
        theta = np.linspace(-3.0, 3.0, 7)
        vector = pdf_value(pdf, theta)
        for t, v in zip(theta, vector):
            assert pdf_value(pdf, float(t)) == v

    def test_extreme_concentration_does_not_overflow(self):
        pdf = PolarPdf(beta_p=1.0, sigma=1e-6)
        peak = pdf_value(pdf, 0.0)
        assert math.isfinite(peak) and peak > 1e5
        assert pdf_value(pdf, math.pi) == 0.0
        assert pdf_value(pdf, 2.0) == 0.0


class TestCircularError:
    """The circular error |wrap_angle(theta - phase)|, the shortest angular
    distance, in [0, pi]."""

    def test_quarter_turn(self):
        assert abs(wrap_angle(math.pi / 2.0 - 0.0)) == \
            pytest.approx(math.pi / 2)

    def test_three_quarter_turn_wraps(self):
        assert abs(wrap_angle(3.0 * math.pi / 2.0 - 0.0)) == \
            pytest.approx(math.pi / 2.0)

    def test_shift_invariance(self):
        for phi in (-9.0, 0.0, 1.3, 4.0, 100.0):
            assert abs(wrap_angle(phi + 0.3 - phi)) == pytest.approx(0.3)

    def test_closed_form_for_zero_reference(self):
        for theta in np.linspace(0.0, 2.0 * math.pi, 97, endpoint=False):
            want = math.pi - abs(math.pi - theta)
            assert abs(wrap_angle(float(theta) - 0.0)) == \
                pytest.approx(want, abs=1e-12)

    def test_range_is_zero_to_pi(self):
        gen = np.random.default_rng(1)
        for theta, phi in gen.uniform(-20, 20, size=(200, 2)):
            err = abs(wrap_angle(float(theta) - float(phi)))
            assert 0.0 <= err <= math.pi


# np.mod warns on +-inf, in wrap_angle and in the formula alike
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestWrapAngle:
    """wrap_angle skips np.mod where every angle is already in range; its
    bits must be those of the np.mod formula everywhere."""

    @staticmethod
    def mod_formula(angle):
        a = np.asarray(angle, dtype=float)
        wrapped = np.mod(a + math.pi, math.tau) - math.pi
        return np.where(wrapped == -math.pi, math.pi, wrapped)

    EDGES = [math.tau, -math.tau, math.pi, -math.pi, 0.0, -0.0,
             np.nextafter(-math.pi, -4.0), np.nextafter(math.pi, 4.0),
             np.nextafter(-math.pi, 0.0), np.nextafter(math.pi, 0.0),
             math.pi - math.tau, 3.0 * math.pi, 1e300, -1e300,
             5e-324, -5e-324]

    def test_edges_one_at_a_time(self):
        for a in self.EDGES + [math.nan, math.inf, -math.inf]:
            got = wrap_angle(a)
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == \
                self.mod_formula(a).tobytes(), a

    @pytest.mark.parametrize("extra", [[], [math.nan], [math.inf],
                                       [-math.inf], [4.0], [-4.0]])
    def test_arrays_in_and_out_of_range(self, extra):
        # in range except for `extra`, which sends the array down np.mod
        inside = np.concatenate((np.linspace(-math.pi, math.pi, 1001),
                                 [x for x in self.EDGES
                                  if -math.pi <= x <= math.pi]))
        angles = np.concatenate((inside, extra))
        assert wrap_angle(angles).tobytes() == \
            self.mod_formula(angles).tobytes()

    def test_empty_and_shapes(self):
        assert wrap_angle(np.array([])).shape == (0,)
        grid = np.linspace(-7.0, 7.0, 12).reshape(3, 4)
        assert wrap_angle(grid).tobytes() == self.mod_formula(grid).tobytes()
        assert wrap_angle(grid).shape == (3, 4)


class TestRmsePolar:
    def test_deep_noise_approaches_uniform_rmse(self):
        # at -50 dB the rmse is ~100 deg, still 3.8% shy of pi/sqrt(3);
        # the gap closes monotonically as the noise deepens
        pdf50 = PolarPdf.from_moments(moments_for(1000, snr_db=-50.0))
        pdf70 = PolarPdf.from_moments(moments_for(1000, snr_db=-70.0))
        limit = rmse_uniform_limit()
        r50, r70 = rmse_polar(pdf50), rmse_polar(pdf70)
        assert r50 == pytest.approx(1.744127, abs=1e-5)
        assert abs(r70 - limit) < abs(r50 - limit)
        assert abs(r70 - limit) / limit < 0.005

    def test_linear_regime_matches_closed_form(self):
        pdf = PolarPdf.from_moments(moments_for(1000, snr_db=20.0))
        assert rmse_polar(pdf) == pytest.approx(3.1623e-3, rel=1e-3)

    def test_bias_vanishes(self):
        for beta, sigma in ((1.0, 0.1), (0.99, 0.01), (0.8, 1.5), (1.0, 1e-4)):
            pdf = PolarPdf(beta_p=beta, sigma=sigma, phi=1.234)
            assert abs(bias_polar(pdf)) < 1e-9, (beta, sigma)

    def test_phi_invariance(self):
        # independent integral of the wrapped squared error at shifted phi
        # against the phi=0 production value
        base = rmse_polar(PolarPdf(beta_p=0.995, sigma=0.2, phi=0.0))
        for phi in (0.3, 1.7, 5.9):
            pdf = PolarPdf(beta_p=0.995, sigma=0.2, phi=phi)
            second = integrate(
                lambda th: (th - phi) ** 2 * pdf_value(pdf, th),
                phi - math.pi, phi + math.pi,
                breakpoints=(phi - 0.8, phi - 0.2, phi + 0.2, phi + 0.8))
            assert abs(math.sqrt(second) - base) < 1e-9, phi

    def test_rmse_stays_in_admissible_interval(self):
        for snr_db in (-60.0, -20.0, 0.0, 30.0):
            pdf = PolarPdf.from_moments(moments_for(50, snr_db=snr_db))
            assert 0.0 < rmse_polar(pdf) <= rmse_uniform_limit()


class TestCartesianOracle:
    def test_agrees_with_polar_route(self):
        # two fully independent numerical routes to the same rmse
        for snr_db in (-10.0, 0.0, 20.0):
            for sp_deg in (0.0, 1.0):
                mom = moments_for(1000, snr_db=snr_db,
                                  sigma_p=math.radians(sp_deg))
                polar = rmse_polar(PolarPdf.from_moments(mom))
                cart = rmse_cartesian_oracle(mom)
                assert abs(polar - cart) / polar < 1e-4, (snr_db, sp_deg)

    def test_uniform_limit(self):
        limit = rmse_uniform_limit()
        far = rmse_cartesian_oracle(moments_for(1000, snr_db=-70.0))
        near = rmse_cartesian_oracle(moments_for(1000, snr_db=-50.0))
        assert abs(far - limit) / limit < 0.005
        assert abs(far - limit) < abs(near - limit)

    def test_concentrated_limit(self):
        # sigma = 1e-4: essentially a point mass at angle zero
        mom = moments_for(1000, snr_db=50.0)
        assert rmse_cartesian_oracle(mom) < 2e-4

    def test_noiseless_rejected(self):
        with pytest.raises(DegenerateSigma):
            rmse_cartesian_oracle(moments_for(100))


class TestCrlbEfficiency:
    def test_closed_form_value(self):
        mom = moments_for(1000, snr_db=0.0)
        assert crlb(mom) == pytest.approx(1e-3, rel=1e-12)

    def test_crlb_equals_sigma2_when_no_phase_noise(self):
        mom = moments_for(64, snr_db=12.0)
        assert crlb(mom) == mom.sigma2

    def test_efficiency_definition(self):
        mom = moments_for(256, snr_db=6.0, sigma_p=0.02)
        assert efficiency(mom, 0.05) == pytest.approx(crlb(mom) / 0.0025)
        with pytest.raises(OutOfRange):
            efficiency(mom, 0.0)

    def test_near_unit_efficiency_in_concentrated_regime(self):
        # the deficit 1 - crlb/rmse^2 shrinks like 1/(N*SNR): at
        # N*SNR = 1000 it sits just above 1e-3 (pinned), at 10000 below
        mom = moments_for(1000, snr_db=0.0, sigma_p=math.radians(1.0))
        deficit = 1.0 - efficiency(mom, rmse_polar(PolarPdf.from_moments(mom)))
        assert deficit == pytest.approx(1.002285760e-3, rel=1e-6)
        mom = moments_for(10000, snr_db=0.0, sigma_p=math.radians(1.0))
        deficit = 1.0 - efficiency(mom, rmse_polar(PolarPdf.from_moments(mom)))
        assert deficit < 1e-3

    def test_crlb_lower_bounds_rmse_on_grid(self):
        for n in (20, 100, 1000):
            for snr_db in (-10.0, 0.0, 10.0, 30.0):
                for sp_deg in (0.0, 1.0, 5.0):
                    mom = moments_for(n, snr_db=snr_db,
                                      sigma_p=math.radians(sp_deg))
                    rmse = rmse_polar(PolarPdf.from_moments(mom))
                    assert rmse**2 >= crlb(mom) * (1.0 - 1e-3), \
                        (n, snr_db, sp_deg)


class TestApproximations:
    def test_uniform_limit_value(self):
        assert rmse_uniform_limit() == math.pi / math.sqrt(3.0)
        assert rmse_uniform_limit() == pytest.approx(1.813799, abs=1e-6)

    def test_linear_approx_value(self):
        val = rmse_linear_approx(1000, 100.0)
        assert val == pytest.approx(3.1623e-3, rel=1e-4)
        assert math.degrees(val) == pytest.approx(0.1812, abs=1e-4)

    def test_floor_approx_value(self):
        val = rmse_floor_approx(moments_for(1000, sigma_p=math.radians(1.0)))
        assert val == pytest.approx(5.520e-4, rel=1e-3)
        assert math.degrees(val) == pytest.approx(0.03163, abs=1e-5)

    @pytest.mark.parametrize("sp_deg", [1e-4, 1e-3, 0.01, 0.5, 5.0])
    def test_floor_keeps_its_precision_as_sigma_p_vanishes(self, sp_deg):
        # 1 - beta_p^2 as (1 - beta_p)(1 + beta_p) of a rounded beta_p was
        # 9.1e-6 off at 1e-4 degrees
        sp = math.radians(sp_deg)
        mom = moments_for(1000, snr_db=60.0, sigma_p=sp)
        want = math.sqrt(-math.expm1(-sp**2) / (math.exp(-sp**2) * 1000))
        assert rmse_floor_approx(mom) == pytest.approx(want, rel=1e-15,
                                                       abs=0.0)

    def test_linear_approx_survives_an_overflowing_product(self):
        # N*SNR overflows to inf here, which would give 0
        assert 1000 * 1e306 == math.inf
        assert rmse_linear_approx(1000, 1e306) == pytest.approx(
            10.0 ** -154.5, rel=1e-14, abs=0.0)
        assert rmse_linear_approx(20, 1e306) == 1.0 / math.sqrt(20 * 1e306)

    def test_floor_and_crlb_are_infinite_where_beta_p_squared_underflows(
            self):
        # sigma_p = 1600 deg: beta_p ~ 1e-169 is positive, beta_p^2 is 0
        mom = moments_for(20, snr_db=0.0, sigma_p=math.radians(1600.0))
        assert mom.beta_p > 0.0 and mom.beta_p**2 == 0.0
        assert rmse_floor_approx(mom) == math.inf
        assert crlb(mom) == math.inf

    def test_underflowed_beta_p_is_the_uniform_limit(self):
        # sigma_p = 1e5 deg: beta_p itself is 0, which used to raise
        # OutOfRange from rmse_floor_approx and PolarPdf
        mom = moments_for(20, snr_db=0.0, sigma_p=math.radians(1e5))
        assert mom.beta_p == 0.0
        pdf = PolarPdf.from_moments(mom)
        assert pdf.spread == math.inf
        theta = np.linspace(-math.pi, math.pi, 101)
        assert np.all(pdf_value(pdf, theta) == UNIFORM)
        assert rmse_floor_approx(mom) == math.inf
        assert crlb(mom) == math.inf
        # the same report as at 1600 deg, where beta_p^2 is already 0
        near = error_report(moments_for(20, snr_db=0.0,
                                        sigma_p=math.radians(1600.0)))
        report = error_report(mom)
        assert report == near
        assert report.regime is Regime.UNIFORM_SATURATED
        assert report.rmse_analytic == pytest.approx(rmse_uniform_limit(),
                                                     rel=1e-15)

    def test_linear_approx_limits_and_validation(self):
        assert rmse_linear_approx(10, math.inf) == 0.0
        with pytest.raises(OutOfRange):
            rmse_linear_approx(0, 1.0)
        with pytest.raises(OutOfRange):
            rmse_linear_approx(10, -1.0)

    def test_gaussian_limit_tracks_linear_approx(self):
        # additive-only rmse within 0.1% of 1/sqrt(N*SNR) from 0 dB up
        for snr_db in (0.0, 10.0, 20.0, 30.0):
            mom = moments_for(1000, snr_db=snr_db)
            rmse = rmse_polar(PolarPdf.from_moments(mom))
            approx = rmse_linear_approx(1000, mom.snr)
            assert abs(rmse - approx) / rmse < 1e-3, snr_db

    def test_floor_limit_high_snr(self):
        # at 60 dB the rmse is set by the phase noise alone, within 1%
        for sp_deg in (0.5, 1.0, 2.0, 5.0):
            mom = moments_for(1000, snr_db=60.0, sigma_p=math.radians(sp_deg))
            rmse = rmse_polar(PolarPdf.from_moments(mom))
            floor = rmse_floor_approx(mom)
            assert abs(rmse - floor) / floor < 0.01, sp_deg


class TestMonotonicity:
    def test_rmse_decreases_with_snr(self):
        values = []
        for snr_db in (-20.0, -10.0, 0.0, 10.0, 20.0, 30.0):
            mom = moments_for(100, snr_db=snr_db, sigma_p=math.radians(1.0))
            values.append(rmse_polar(PolarPdf.from_moments(mom)))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rmse_decreases_with_record_length(self):
        values = []
        for n in (10, 20, 50, 100, 200, 500, 1000):
            mom = moments_for(n, snr_db=5.0, sigma_p=math.radians(1.0))
            values.append(rmse_polar(PolarPdf.from_moments(mom)))
        assert all(a > b for a, b in zip(values, values[1:]))


class TestClassifyRegime:
    def test_deep_noise_is_still_transitional_at_minus_50(self):
        # the rmse at -50 dB (~100 deg) is 3.8% below pi/sqrt(3), outside
        # the 2% saturation band; full saturation needs about -57 dB
        assert classify_regime(moments_for(1000, snr_db=-50.0)) == \
            Regime.TRANSITIONAL

    def test_saturation_at_minus_60(self):
        assert classify_regime(moments_for(1000, snr_db=-60.0)) == \
            Regime.UNIFORM_SATURATED

    def test_linear_regime(self):
        assert classify_regime(moments_for(1000, snr_db=20.0)) == \
            Regime.LINEAR

    def test_phase_noise_floor(self):
        mom = moments_for(1000, snr_db=50.0, sigma_p=math.radians(1.0))
        assert classify_regime(mom) == Regime.PHASE_NOISE_FLOOR

    def test_transitional_midrange(self):
        # -20 dB at N=1000: 7.6% off the linear law, far from saturation
        assert classify_regime(moments_for(1000, snr_db=-20.0)) == \
            Regime.TRANSITIONAL

    def test_explicit_rmse_short_circuits(self):
        mom = moments_for(1000, snr_db=20.0)
        assert classify_regime(mom, rmse=rmse_uniform_limit()) == \
            Regime.UNIFORM_SATURATED

    @pytest.mark.parametrize("rmse", [math.nan, math.inf, -1.0, 0.0])
    def test_an_rmse_that_is_not_finite_and_positive_is_rejected(self, rmse):
        with pytest.raises(OutOfRange, match="rmse"):
            classify_regime(moments_for(1000, snr_db=20.0), rmse=rmse)


class TestErrorReport:
    def test_fields_are_mutually_consistent(self):
        mom = moments_for(1000, snr_db=10.0, sigma_p=math.radians(0.5))
        report = error_report(mom)
        assert isinstance(report, ErrorReport)
        assert 0.0 < report.rmse_analytic <= rmse_uniform_limit()
        assert report.crlb == crlb(mom)
        assert report.efficiency == \
            pytest.approx(report.crlb / report.rmse_analytic**2, rel=1e-12)
        assert report.efficiency <= 1.0 + 1e-3
        assert report.rmse_linear_approx == \
            rmse_linear_approx(mom.n_samples, mom.snr)
        assert report.rmse_floor_approx == rmse_floor_approx(mom)
        assert report.regime == classify_regime(mom)

    @pytest.mark.parametrize("n, snr_db, wide", [(20, 0.0, True),
                                                  (1000, 40.0, False)])
    def test_one_quadrature_per_report(self, monkeypatch, n, snr_db, wide):
        # the report integrates the RMSE only; the bias is bias_polar's
        mom = moments_for(n, snr_db=snr_db)
        assert (PolarPdf.from_moments(mom).spread >= NARROW_SPREAD) == wide
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(phase_pdf, "integrate", counting)
        error_report(mom)
        assert len(calls) == 1

    def test_noiseless_configuration_rejected(self):
        with pytest.raises(DegenerateSigma):
            error_report(moments_for(100))
