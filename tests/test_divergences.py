"""Tests for density grids and the KL / Bhattacharyya distances."""
import math

import numpy as np
import pytest

from syncphase.divergences import (
    AMBIENT_NODES,
    DENSE_NODES,
    DensityGrid,
    bhattacharyya_distance,
    density_from_pdf,
    gaussian_approximation,
    gaussian_density,
    kl_divergence,
    phase_nodes,
    uniform_density_on,
)
from syncphase.errors import LengthMismatch, OutOfRange, SupportMismatch
from syncphase.phase_pdf import PolarPdf
from syncphase.signal_model import make_params, sigma_x_for_snr
from syncphase.spectral_estimator import TheoreticalMoments, theoretical_moments

WIDE = np.linspace(-13.0, 13.5, 2**15 + 1)


def moments_for(n, snr_db, sigma_p=0.0):
    snr = 10.0 ** (snr_db / 10.0)
    return theoretical_moments(make_params(
        amplitude=1.0, f0=1.0, fs=float(n),
        sigma_additive=sigma_x_for_snr(1.0, snr), sigma_phase=sigma_p,
        n_samples=n))


def g0_density(snr_db, n=1000):
    return density_from_pdf(PolarPdf.from_moments(moments_for(n, snr_db)))


class TestDensityGrid:
    def test_mass_property(self):
        grid = uniform_density_on(np.linspace(-math.pi, math.pi, DENSE_NODES))
        assert grid.mass == pytest.approx(1.0, abs=1e-12)

    def test_arrays_become_read_only(self):
        grid = uniform_density_on(np.linspace(-math.pi, math.pi, 129))
        with pytest.raises((ValueError, RuntimeError)):
            grid.values[0] = 2.0

    def test_validation(self):
        nodes = np.linspace(-math.pi, math.pi, 65)
        ok = np.full(65, 1.0 / (2.0 * math.pi))
        with pytest.raises(LengthMismatch):
            DensityGrid(nodes=nodes, values=ok[:-1])
        with pytest.raises(OutOfRange):
            DensityGrid(nodes=nodes[::-1], values=ok)
        with pytest.raises(OutOfRange):
            DensityGrid(nodes=nodes, values=-ok)
        with pytest.raises(OutOfRange):
            DensityGrid(nodes=nodes, values=3.0 * ok)  # mass far from 1
        with pytest.raises(OutOfRange):
            DensityGrid(nodes=nodes[:1], values=ok[:1])

    def test_narrow_lobe_at_boundary_keeps_unit_mass(self):
        # a lobe hugging +pi wraps its dense window across the seam;
        # the constructor's mass check is the assertion here
        pdf = PolarPdf(beta_p=1.0, sigma=1e-3, phi=math.pi - 0.01)
        grid = density_from_pdf(pdf)
        assert grid.mass == pytest.approx(1.0, abs=1e-6)


class TestPhaseNodes:
    def test_wide_spread_uses_plain_dense_grid(self):
        nodes = phase_nodes(0.25)
        assert nodes.shape == (DENSE_NODES,)
        assert nodes[0] == -math.pi and nodes[-1] == math.pi

    def test_narrow_spread_gets_dense_window(self):
        spread = 1e-4
        nodes = phase_nodes(spread, center=0.3)
        assert nodes[0] == -math.pi and nodes[-1] == math.pi
        assert np.all(np.diff(nodes) > 0)
        inside = nodes[np.abs(nodes - 0.3) < 40.0 * spread]
        assert inside.size >= DENSE_NODES - 2
        step = np.diff(inside).max()
        assert step <= 80.0 * spread / (DENSE_NODES - 1) * 1.01

    def test_invalid_spread_rejected(self):
        with pytest.raises(OutOfRange):
            phase_nodes(0.0)
        with pytest.raises(OutOfRange):
            phase_nodes(math.inf)


class TestKlDivergence:
    def test_identical_densities(self):
        g = g0_density(-30.0)
        assert abs(kl_divergence(g, g)) < 1e-10

    def test_deep_noise_against_uniform(self):
        # -50 dB, N=1000: small but decidedly nonzero leakage from uniform
        g = g0_density(-50.0)
        u = uniform_density_on(g.nodes)
        assert kl_divergence(g, u) == pytest.approx(3.921323e-3, rel=1e-6)

    def test_gaussian_pair_closed_form(self):
        p = gaussian_density(WIDE, 0.0, 1.0)
        q = gaussian_density(WIDE, 0.5, 1.0)
        assert kl_divergence(p, q) == pytest.approx(0.125, abs=1e-3)

    def test_nonnegative_and_asymmetric(self):
        p = gaussian_density(WIDE, 0.0, 1.0)
        q = gaussian_density(WIDE, 0.0, 2.0, renormalize=True)
        forward = kl_divergence(p, q)
        backward = kl_divergence(q, p)
        assert forward > 0.0 and backward > 0.0
        assert forward != pytest.approx(backward, rel=1e-3)

    def test_underflow_raises_support_mismatch(self):
        # at -8 dB the Gaussian approximation underflows to exact zero on
        # the outer nodes while the true density still carries mass there
        mom = moments_for(1000, -8.0)
        g = density_from_pdf(PolarPdf.from_moments(mom))
        approx = gaussian_approximation(mom)
        with pytest.raises(SupportMismatch) as err:
            kl_divergence(g, approx)
        assert 0.0 < err.value.unsupported_mass <= 1.0
        # sum of w_i p_i over the unsupported nodes, w_i the trapezoid
        # weight of node i: half of each neighbouring interval
        bad = (g.values > 0.0) & (approx.values == 0.0)
        dx = np.diff(g.nodes)
        weights = np.zeros_like(g.nodes)
        weights[:-1] += 0.5 * dx
        weights[1:] += 0.5 * dx
        want = float(np.sum(weights[bad] * g.values[bad]))
        assert err.value.unsupported_mass == pytest.approx(want, rel=1e-12)

    def test_computable_again_at_minus_10(self):
        mom = moments_for(1000, -10.0)
        g = density_from_pdf(PolarPdf.from_moments(mom))
        val = kl_divergence(g, gaussian_approximation(mom))
        assert val == pytest.approx(6.211142e-5, rel=1e-6)

    def test_kl_to_uniform_shrinks_with_deepening_noise(self):
        kls = []
        for snr_db in (-10.0, -20.0, -30.0, -40.0, -50.0):
            g = g0_density(snr_db)
            kls.append(kl_divergence(g, uniform_density_on(g.nodes)))
        assert all(a > b > 0.0 for a, b in zip(kls, kls[1:]))

    def test_shared_node_requirement(self):
        with pytest.raises(LengthMismatch):
            kl_divergence(
                uniform_density_on(np.linspace(-math.pi, math.pi, 65)),
                uniform_density_on(np.linspace(-math.pi, math.pi, 129)))


class TestBhattacharyya:
    def test_identical_densities(self):
        g = g0_density(-30.0)
        assert abs(bhattacharyya_distance(g, g)) < 1e-10
        u = uniform_density_on(np.linspace(-math.pi, math.pi, DENSE_NODES))
        assert abs(bhattacharyya_distance(u, u)) < 1e-12

    def test_gaussian_pair_closed_form(self):
        p = gaussian_density(WIDE, 0.0, 1.0)
        q = gaussian_density(WIDE, 1.0, 1.0)
        assert bhattacharyya_distance(p, q) == pytest.approx(0.125, abs=1e-3)

    def test_gaussian_approximation_is_excellent_at_10_db(self):
        mom = moments_for(1000, 10.0)
        g = density_from_pdf(PolarPdf.from_moments(mom))
        bd = bhattacharyya_distance(g, gaussian_approximation(mom))
        assert 0.0 < bd <= 1e-4
        assert bd < 1e-7

    def test_gaussian_contrast_between_10_and_minus_20_db(self):
        def bd_at(snr_db):
            mom = moments_for(1000, snr_db)
            g = density_from_pdf(PolarPdf.from_moments(mom))
            return bhattacharyya_distance(g, gaussian_approximation(mom))

        assert bd_at(-20.0) >= 100.0 * bd_at(10.0)

    def test_robust_where_kl_fails(self):
        # same -8 dB configuration that raises in kl_divergence
        mom = moments_for(1000, -8.0)
        g = density_from_pdf(PolarPdf.from_moments(mom))
        bd = bhattacharyya_distance(g, gaussian_approximation(mom))
        assert math.isfinite(bd) and bd > 0.0

    def test_shared_node_requirement(self):
        with pytest.raises(LengthMismatch):
            bhattacharyya_distance(
                uniform_density_on(np.linspace(-math.pi, math.pi, 65)),
                uniform_density_on(np.linspace(-math.pi, math.pi, 129)))


class TestGaussianApproximation:
    def test_peak_value(self):
        grid = gaussian_approximation(moments_for(100, 0.0))  # sigma = 0.1
        mid = (grid.nodes.shape[0] - 1) // 2
        assert grid.nodes[mid] == 0.0
        assert grid.values[mid] == pytest.approx(3.9894, abs=1e-4)

    def test_beta_half_doubles_the_width(self):
        narrow = TheoreticalMoments(mean=1 + 0j, variance=0.02, beta_p=1.0,
                                    one_minus_beta_sq=0.0, sigma2=0.01,
                                    n_samples=100, snr=1.0, phase=0.0)
        wide = TheoreticalMoments(mean=0.5 + 0j, variance=0.02, beta_p=0.5,
                                  one_minus_beta_sq=0.75, sigma2=0.01,
                                  n_samples=100, snr=1.0, phase=0.0)
        peak_narrow = gaussian_approximation(narrow).values.max()
        peak_wide = gaussian_approximation(wide).values.max()
        assert peak_wide == pytest.approx(peak_narrow / 2.0, rel=1e-9)
        assert peak_wide == pytest.approx(
            1.0 / (math.sqrt(2.0 * math.pi) * 0.2), rel=1e-9)

    def test_unit_mass_wide_and_narrow(self):
        assert gaussian_approximation(moments_for(100, 0.0)).mass == \
            pytest.approx(1.0, abs=1e-6)
        assert gaussian_approximation(moments_for(1000, 40.0)).mass == \
            pytest.approx(1.0, abs=1e-6)

    def test_std_validation(self):
        with pytest.raises(OutOfRange):
            gaussian_density(WIDE, 0.0, 0.0)


class TestUniformDensity:
    def test_values_and_mass(self):
        grid = uniform_density_on(np.linspace(-math.pi, math.pi, 4097))
        assert np.all(grid.values == 1.0 / (2.0 * math.pi))
        assert grid.mass == pytest.approx(1.0, abs=1e-12)

    def test_on_custom_nodes(self):
        nodes = phase_nodes(1e-3, center=-1.0)
        grid = uniform_density_on(nodes)
        assert grid.mass == pytest.approx(1.0, abs=1e-9)
