"""Tests for density grids and the KL / Bhattacharyya distances."""
import hashlib
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import syncphase.divergences as divergences
from syncphase.cli import main
from syncphase.divergences import (
    AMBIENT_NODES,
    DENSE_NODES,
    DensityGrid,
    bhattacharyya_distance,
    density_from_pdf,
    gaussian_approximation,
    kl_divergence,
    phase_nodes,
    uniform_density_on,
)
from syncphase.errors import LengthMismatch, OutOfRange, SupportMismatch
from syncphase.phase_pdf import NARROW_SPREAD, PolarPdf, wrap_angle
from syncphase.signal_model import make_params, sigma_x_for_snr
from syncphase.spectral_estimator import TheoreticalMoments, theoretical_moments

WIDE = np.linspace(-13.0, 13.5, 2**15 + 1)
trapezoid = getattr(np, "trapezoid", None) or np.trapz  # NumPy 1.x: trapz


def moments_for(n, snr_db, sigma_p=0.0):
    snr = 10.0 ** (snr_db / 10.0)
    return theoretical_moments(make_params(
        amplitude=1.0, f0=1.0, fs=float(n),
        sigma_additive=sigma_x_for_snr(1.0, snr), sigma_phase=sigma_p,
        n_samples=n))


def g0_density(snr_db, n=1000):
    return density_from_pdf(PolarPdf.from_moments(moments_for(n, snr_db)))


def normal_on_wide(mean, std, renormalize=False):
    """N(mean, std^2) sampled on WIDE; with renormalize, divided by its
    trapezoid mass so the grid invariant holds where WIDE truncates tail
    mass."""
    z = (WIDE - mean) / std
    values = np.exp(-0.5 * z * z) / (math.sqrt(math.tau) * std)
    if renormalize:
        values = values / float(trapezoid(values, WIDE))
    return DensityGrid(nodes=WIDE, values=values)


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
        with pytest.raises(OutOfRange, match="nodes and values must be 1-D"):
            DensityGrid(nodes=nodes, values=ok[None, :])

    @pytest.mark.parametrize("nodes, message", [
        (np.zeros((2, 3)), "nodes must be 1-D"),
        (np.array([0.0, 1.0, math.nan]), "nodes must be finite"),
        (np.array([-math.inf, 0.0, 1.0]), "nodes must be finite"),
    ])
    def test_node_set_validation(self, nodes, message):
        with pytest.raises(OutOfRange, match=message):
            uniform_density_on(nodes)

    def test_narrow_lobe_at_boundary_keeps_unit_mass(self):
        # a lobe hugging +pi wraps its dense window across the seam;
        # the constructor's mass check is the assertion here
        pdf = PolarPdf(beta_p=1.0, sigma=1e-3, phi=math.pi - 0.01)
        grid = density_from_pdf(pdf)
        assert grid.mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("phi", [math.pi, -math.pi, math.pi - 1e-15])
    def test_lobe_on_the_seam_names_the_gap(self, phi):
        # the nodes end at -fl(pi) and fl(pi); a 4.4e-12 rad lobe on the
        # seam puts 2.2e-5 of its mass in the 2.4e-16 rad between them
        pdf = PolarPdf(beta_p=1.0, sigma=4.4e-12, phi=phi)
        with pytest.raises(OutOfRange, match="rad from the seam at"):
            density_from_pdf(pdf)

    @pytest.mark.parametrize("phi, sha256", [
        (math.pi,
         "2b7d6f8599f8416a399fe25c7395bb6256b4bd23396afa4f9c2770e9099ba288"),
        (-math.pi,
         "1d848a2341e3f4078a4d5db51e59b6a0c67082032d9747acfac7dbd0eaf171f7"),
        (math.pi - 1e-15,
         "17d0c4b6970b4423e1ecdb3cf02dcdb04c70bdf784cfdfec0d928028bcce155a"),
    ])
    def test_wider_lobe_on_the_seam_keeps_its_grid(self, phi, sha256):
        # at 1e-10 rad the gap's share is under 1e-6, so the grid passes
        # its mass check; the seam check runs only on a failed grid, and
        # the pinned SHA-256s keep these grids' bits
        grid = density_from_pdf(PolarPdf(beta_p=1.0, sigma=1e-10, phi=phi))
        got = hashlib.sha256(grid.nodes.tobytes() + grid.values.tobytes())
        assert got.hexdigest() == sha256


class TestUniformLimit:
    # beta_p = exp(-sigma_p^2/2) is 0 at 1e5 deg; at 2190 deg it is
    # subnormal (5.7e-318) and sigma/beta_p overflows: no lobe either way
    @pytest.fixture(params=[2190.0, 1e5])
    def moments(self, request):
        moments = moments_for(20, 0.0, sigma_p=math.radians(request.param))
        assert moments.beta_p < 1e-300
        assert math.isinf(PolarPdf.from_moments(moments).spread)
        return moments

    def test_density_is_the_uniform_grid_on_the_wide_nodes(self, moments):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = density_from_pdf(PolarPdf.from_moments(moments))
        uniform = uniform_density_on(phase_nodes(NARROW_SPREAD))
        assert grid.nodes.shape == (32769,)
        assert grid.nodes.tobytes() == uniform.nodes.tobytes()
        assert grid.values.tobytes() == uniform.values.tobytes()

    @pytest.mark.parametrize("nodes", [None, WIDE])
    def test_gaussian_approximation_names_the_missing_lobe(self, moments,
                                                           nodes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="leaves no lobe"):
                gaussian_approximation(moments, nodes)


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
        p = normal_on_wide(0.0, 1.0)
        q = normal_on_wide(0.5, 1.0)
        assert kl_divergence(p, q) == pytest.approx(0.125, abs=1e-3)

    def test_nonnegative_and_asymmetric(self):
        p = normal_on_wide(0.0, 1.0)
        q = normal_on_wide(0.0, 2.0, renormalize=True)
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
    def test_disjoint_densities_are_infinitely_far(self):
        nodes = np.arange(7.0)
        p = DensityGrid(nodes=nodes, values=[2 / 3, 2 / 3, 0, 0, 0, 0, 0])
        q = DensityGrid(nodes=nodes, values=[0, 0, 0, 0, 0, 2 / 3, 2 / 3])
        assert bhattacharyya_distance(p, q) == math.inf

    def test_identical_densities(self):
        g = g0_density(-30.0)
        assert abs(bhattacharyya_distance(g, g)) < 1e-10
        u = uniform_density_on(np.linspace(-math.pi, math.pi, DENSE_NODES))
        assert abs(bhattacharyya_distance(u, u)) < 1e-12

    def test_gaussian_pair_closed_form(self):
        p = normal_on_wide(0.0, 1.0)
        q = normal_on_wide(1.0, 1.0)
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

    @pytest.mark.parametrize("n, snr_db", [(100, 0.0), (1000, 40.0)])
    def test_given_nodes_give_the_same_grid(self, n, snr_db):
        # wide and narrow lobes: the density's own nodes, passed in, give
        # the bits of the grid that builds them itself
        mom = moments_for(n, snr_db)
        p = density_from_pdf(PolarPdf.from_moments(mom))
        shared = gaussian_approximation(mom, p.nodes)
        own = gaussian_approximation(mom)
        assert shared.nodes is p.nodes
        assert shared.nodes.tobytes() == own.nodes.tobytes()
        assert shared.values.tobytes() == own.values.tobytes()

    def test_divergence_builds_one_node_set_per_cell(self, monkeypatch,
                                                      tmp_path):
        built = []

        def counting(spread, center=0.0):
            built.append(spread)
            return phase_nodes(spread, center)
        monkeypatch.setattr(divergences, "phase_nodes", counting)
        assert main(["divergence", "--snr-db", "-10,20,50", "--n", "1000",
                     "--out", str(tmp_path / "t.csv")]) == 0
        assert len(built) == 3


class TestUniformDensity:
    def test_values_and_mass(self):
        grid = uniform_density_on(np.linspace(-math.pi, math.pi, 4097))
        assert np.all(grid.values == 1.0 / (2.0 * math.pi))
        assert grid.mass == pytest.approx(1.0, abs=1e-12)

    def test_on_custom_nodes(self):
        nodes = phase_nodes(1e-3, center=-1.0)
        grid = uniform_density_on(nodes)
        assert grid.mass == pytest.approx(1.0, abs=1e-9)


class TestOnePassPrimitives:
    """Each primitive that replaced a NumPy call has that call's bits."""

    @pytest.mark.parametrize("nodes", [
        WIDE, np.linspace(-math.pi, math.pi, 129), phase_nodes(1e-4, 3.1),
        np.array([0.0, 1e-300, 1.0, 1e100])])
    def test_stored_spacing_trapezoid_is_np_trapezoid(self, nodes):
        gen = np.random.default_rng(nodes.size)
        for y in (gen.random(nodes.size),
                  np.exp(-0.5 * (nodes / 0.3) ** 2),
                  gen.random(nodes.size) * 10.0 ** gen.uniform(
                      -100, 100, nodes.size)):
            want = float(trapezoid(y, nodes))
            got = divergences._trapezoid(y, np.diff(nodes))
            assert got.hex() == want.hex()

    @pytest.mark.parametrize("spread, center", [
        (1e-4, 0.0),                # window and ambient grid share 0.0
        (1e-3, 1.0),
        (3e-4, math.pi - 3e-4),     # window crosses the seam at +pi
        (3e-4, -math.pi + 1e-3),    # ... and at -pi
        (1e-2, math.pi),
        (1e-14, 0.5),               # window steps below one ulp: repeats
        (2.5e-313, 0.0),            # subnormal window steps
        (1e-321, 0.0),              # a window step that underflows to 0
        (1e-312, 1e-310),           # ... around a subnormal center
        (3e-4, -math.pi),           # center on the seam
        (1e-3, 7.0),                # center wrapped into [-pi, pi]
    ])
    def test_merged_node_set_is_np_unique(self, spread, center):
        ambient = np.linspace(-math.pi, math.pi, AMBIENT_NODES)
        half_width = 40.0 * spread
        c = wrap_angle(center)
        window = np.asarray(wrap_angle(
            np.linspace(c - half_width, c + half_width, DENSE_NODES)))
        want = np.unique(np.concatenate((ambient, window)))
        assert divergences._sorted_distinct(ambient, window).tobytes() == \
            want.tobytes()
        assert phase_nodes(spread, center).tobytes() == want.tobytes()

    def test_merge_keeps_one_shared_zero(self):
        merged = divergences._sorted_distinct(
            np.array([-1.0, 0.0, 1.0]), np.array([-0.5, 0.0, 0.5, 2.0]))
        assert merged.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]

    def test_grids_on_a_grid_share_its_checked_node_set(self):
        mom = moments_for(1000, 40.0)
        p = density_from_pdf(PolarPdf.from_moments(mom))
        for on_grid, on_array in (
                (gaussian_approximation(mom, p),
                 gaussian_approximation(mom, p.nodes)),
                (uniform_density_on(p), uniform_density_on(p.nodes))):
            assert on_grid.nodes is p.nodes
            assert on_grid._spacing is p._spacing
            assert on_grid.values.tobytes() == on_array.values.tobytes()
        assert not p._spacing.flags.writeable

    def test_divergence_cells_keep_no_node_set(self, tmp_path):
        # the peak traced memory after 200 mixed-spread cells is that after
        # 10: nothing a cell builds (node sets, spacings) outlives it
        out = str(tmp_path / "t.csv")
        runs = [["--snr-db", ",".join(str(v) for v in snrs),
                 "--sigma-p-deg", sigma, "--n", n]
                for snrs, sigma, n in (
                    ((-50, -20, 0, 10, 30), "0", "20"),
                    ((-10, 20, 40, 50, 60), "1", "1000"),
                    ((-30, 0, 15, 45, 60), "5", "100"),
                    ((-40, 5, 25, 35, 55), "0.5", "10000"))]
        tracemalloc.start()
        try:
            for argv in runs[:2]:
                assert main(["divergence", *argv, "--out", out]) == 0
            after_10 = tracemalloc.get_traced_memory()[1]
            for k in range(38):
                assert main(["divergence", *runs[k % 4], "--out", out]) == 0
            after_200 = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert after_200 - after_10 < 2 * 2**20


class TestWorkspace:
    """Divergence cells compute in workspaces of their own (module
    docstring)."""

    def test_concurrent_cells_never_share_a_workspace(self):
        # four threads on three cell kinds, switching every 10 us: a
        # workspace two cells wrote at once would move a cell's bits
        cells = [moments_for(1000, snr_db) for snr_db in (-10.0, 20.0, 50.0)]
        want = [repr(divergences.divergence_row(mom)) for mom in cells]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as executor:
                futures = [executor.submit(divergences.divergence_row,
                                           cells[k % 3]) for k in range(24)]
                got = [repr(future.result(timeout=60)) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want[k % 3] for k in range(24)]

    def test_a_failing_cell_leaves_the_next_cell_its_bits(self, monkeypatch):
        mom = moments_for(1000, 40.0)
        want = repr(divergences.divergence_row(mom))
        with pytest.raises(OutOfRange, match="no lobe"):
            divergences.divergence_row(moments_for(1000, 0.0, sigma_p=100.0))
        assert repr(divergences.divergence_row(mom)) == want
        with monkeypatch.context() as patched:
            patched.setattr(divergences, "pdf_value_into",
                            lambda pdf, theta, out, work: out.fill(math.nan))
            with pytest.raises(OutOfRange, match="finite and non-negative"):
                divergences.divergence_row(mom)
        assert repr(divergences.divergence_row(mom)) == want
