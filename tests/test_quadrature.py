"""Tests for the adaptive embedded-rule integrator."""
import math

import numpy as np
import pytest
from scipy.special import roots_legendre

import syncphase.phase_pdf as phase_pdf
from syncphase import quadrature
from syncphase.cli import main
from syncphase.errors import OutOfRange, QuadratureNonConvergence
from syncphase.quadrature import integrate
from syncphase.signal_model import make_params, sigma_x_for_snr
from syncphase.spectral_estimator import theoretical_moments


@pytest.mark.parametrize("n", [7, 15])
def test_rules_are_roots_legendre_bit_for_bit(n):
    nodes, weights = roots_legendre(n)
    x, w = getattr(quadrature, f"_X{n}"), getattr(quadrature, f"_W{n}")
    assert x.dtype == w.dtype == np.float64 and x.shape == w.shape == (n,)
    assert x.tobytes() == nodes.tobytes()
    assert w.tobytes() == weights.tobytes()


def test_polynomial_is_exact():
    # Gauss(7) already integrates degree-13 polynomials exactly
    val = integrate(lambda x: 3.0 * x**2, 0.0, 2.0)
    assert val == pytest.approx(8.0, rel=1e-13)


def test_cosine_over_full_period():
    assert integrate(np.cos, 0.0, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert integrate(np.cos, 0.0, math.pi / 2.0) == pytest.approx(1.0, rel=1e-12)


def test_gaussian_mass():
    f = lambda x: np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)
    assert integrate(f, -10.0, 10.0) == pytest.approx(1.0, rel=1e-12)


def test_narrow_spike_found_via_breakpoints():
    # a spike of width 1e-5 at 0.5 inside a unit interval; the breakpoints
    # bracket it so the first refinement already sees the feature
    s = 1e-5
    f = lambda x: np.exp(-0.5 * ((x - 0.5) / s) ** 2)
    val = integrate(f, 0.0, 1.0, breakpoints=(0.5 - 6 * s, 0.5, 0.5 + 6 * s))
    assert val == pytest.approx(s * math.sqrt(2.0 * math.pi), rel=1e-9)


def test_degenerate_interval_is_zero():
    assert integrate(np.sin, 1.5, 1.5) == 0.0


def test_reversed_interval_rejected():
    with pytest.raises(OutOfRange):
        integrate(np.sin, 1.0, 0.0)


def test_non_vectorized_integrand_rejected():
    with pytest.raises(OutOfRange):
        integrate(lambda x: 1.0, 0.0, 1.0)


def test_panel_budget_exhaustion_reports_estimates(monkeypatch):
    # an integrand rough at every scale cannot converge; the raised error
    # must still carry the best estimate and its error bound
    monkeypatch.setattr(quadrature, "_ABS_TOL", 1e-300)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 64)
    gen = np.random.default_rng(5)
    table = gen.standard_normal(1 << 20)

    def noisy(x):
        idx = np.clip((x * (1 << 20)).astype(int), 0, (1 << 20) - 1)
        return table[idx]

    with pytest.raises(QuadratureNonConvergence) as err:
        integrate(noisy, 0.0, 1.0, rel_tol=1e-14)
    assert math.isfinite(err.value.best_estimate)
    assert err.value.error_estimate > 0.0


def test_breakpoints_outside_interval_are_ignored():
    val = integrate(np.cos, 0.0, 1.0, breakpoints=(-5.0, 0.25, 7.0))
    assert val == pytest.approx(math.sin(1.0), rel=1e-12)


def test_tolerance_floor_handles_zero_integrals():
    # odd function: true value 0, so the relative test alone could never
    # terminate; the absolute floor must
    assert integrate(lambda x: x**3, -1.0, 1.0) == pytest.approx(0.0, abs=1e-13)


# --- batched panels against one panel per call -------------------------------

def reference_integrate(f, a, b, *, rel_tol=1e-10, abs_tol=1e-14,
                        max_panels=2000, breakpoints=()):
    """The greedy loop with one Gauss 7/15 panel per integrand call, as
    integrate ran before it batched its panels; integrate must return its
    bits.  Returns (integral, integrand calls)."""
    calls = 0

    def panel(lo, hi):
        nonlocal calls
        calls += 1
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        x = np.concatenate((mid + half * quadrature._X15,
                            mid + half * quadrature._X7))
        y = np.asarray(f(x), dtype=float)
        i15 = half * float(y[:15] @ quadrature._W15)
        i7 = half * float(y[15:] @ quadrature._W7)
        return (lo, hi, i15, abs(i15 - i7))

    edges = sorted({float(a), float(b),
                    *(float(p) for p in breakpoints if a < p < b)})
    panels = [panel(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    while True:
        total = math.fsum(p[2] for p in panels)
        err = math.fsum(p[3] for p in panels)
        if err <= max(abs_tol, rel_tol * abs(total)):
            return total, calls
        if len(panels) >= max_panels:
            raise QuadratureNonConvergence("budget", best_estimate=total,
                                           error_estimate=err)
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        lo, hi, _, _ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        panels.append(panel(lo, mid))
        panels.append(panel(mid, hi))


def _spike(x):
    return np.exp(-0.5 * ((x - 0.5) / 1e-5) ** 2)


# (integrand, a, b, keyword arguments): the integrands of the tests above
TEST_INTEGRALS = [
    (lambda x: 3.0 * x**2, 0.0, 2.0, {}),
    (np.cos, 0.0, 2.0 * math.pi, {}),
    (np.cos, 0.0, math.pi / 2.0, {}),
    (lambda x: np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi), -10.0, 10.0,
     {}),
    (_spike, 0.0, 1.0, {"breakpoints": (0.5 - 6e-5, 0.5, 0.5 + 6e-5)}),
    (_spike, 0.0, 1.0, {}),
    (np.cos, 0.0, 1.0, {"breakpoints": (-5.0, 0.25, 7.0)}),
    (lambda x: x**3, -1.0, 1.0, {}),
    (np.sin, 1.5, 1.5, {}),
]


@pytest.mark.parametrize("f, a, b, kwargs", TEST_INTEGRALS)
def test_batched_panels_give_the_one_panel_bits(f, a, b, kwargs):
    want, _ = reference_integrate(f, a, b, **kwargs)
    assert integrate(f, a, b, **kwargs).hex() == want.hex()


def _lockstep_integrand(fs, calls):
    """One integrand for integrals in lockstep: integral k's points go to
    fs[k]."""
    def f(points):
        x, owner = points
        calls.append(x.size)
        y = np.empty_like(x)
        for k, fk in enumerate(fs):
            mine = owner == k
            if mine.any():
                y[mine] = fk(x[mine])
        return y
    return f


def test_integrals_in_lockstep_keep_their_one_panel_bits():
    calls = []
    f = _lockstep_integrand([g for g, *_ in TEST_INTEGRALS], calls)
    got = integrate(f, [a for _, a, _, _ in TEST_INTEGRALS],
                    [b for _, _, b, _ in TEST_INTEGRALS],
                    breakpoints=[kw.get("breakpoints", ())
                                 for *_, kw in TEST_INTEGRALS])
    alone = 0
    for (g, a, b, kwargs), value in zip(TEST_INTEGRALS, got):
        want, _ = reference_integrate(g, a, b, **kwargs)
        assert value.hex() == want.hex()
        solo = []
        integrate(_lockstep_integrand([g], solo), [a], [b],
                  breakpoints=[kwargs.get("breakpoints", ())])
        alone += len(solo)
    # one call per round for all of them, not one per integral's round
    assert len(calls) < alone / 2


def test_a_budget_overrun_in_lockstep_is_that_integral_alone(monkeypatch):
    monkeypatch.setattr(quadrature, "_ABS_TOL", 1e-300)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 7)
    table = np.random.default_rng(5).standard_normal(1 << 20)

    def noisy(x):
        return table[np.clip((x * (1 << 20)).astype(int), 0, (1 << 20) - 1)]

    f = _lockstep_integrand([np.cos, noisy, np.exp], [])
    cos, overrun, exp = integrate(f, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(QuadratureNonConvergence) as want:
        reference_integrate(noisy, 0.0, 1.0, abs_tol=1e-300, max_panels=7)
    assert isinstance(overrun, QuadratureNonConvergence)
    assert overrun.best_estimate.hex() == want.value.best_estimate.hex()
    assert overrun.error_estimate.hex() == want.value.error_estimate.hex()
    assert cos.hex() == integrate(np.cos, 0.0, 1.0).hex()
    assert exp.hex() == integrate(np.exp, 0.0, 1.0).hex()


def test_lockstep_limits_are_checked():
    f = _lockstep_integrand([np.cos, np.cos], [])
    assert integrate(f, [0.0, 1.5], [1.0, 1.5])[1] == 0.0
    with pytest.raises(OutOfRange, match="b > a"):
        integrate(f, [0.0, 1.0], [1.0, 0.0])
    with pytest.raises(OutOfRange, match="as many"):
        integrate(f, [0.0, 0.0], [1.0])


# (snr_db, sigma_p_deg, n): spreads sigma/beta_p from 1e-5 to 75 rad, so both
# branches of the moment integrals (spread >= and < NARROW_SPREAD)
MOMENT_CELLS = [(-50.0, 20.0, 20), (-10.0, 0.0, 100), (0.0, 5.0, 20),
                (10.0, 2.0, 1000), (20.0, 1.0, 100), (40.0, 0.2, 10000),
                (60.0, 0.0, 10000), (60.0, 20.0, 20)]


def _moment_pdf(snr_db, sigma_p_deg, n):
    params = make_params(1.0, "1.0", "10.0",
                         sigma_additive=sigma_x_for_snr(1.0, 10.0 ** (snr_db / 10.0)),
                         sigma_phase=math.radians(sigma_p_deg), n_samples=n)
    return phase_pdf.PolarPdf.from_moments(theoretical_moments(params))


def _one_integral(f, k):
    """The lockstep integrand f as integral k's own one-argument integrand."""
    return lambda x: f((x, np.full(x.shape, k)))


def _recorded_moment_integrals(monkeypatch):
    """(integrand, a, b, kwargs, result) of every integral the moment
    integrals of MOMENT_CELLS ask for, all cells in one table per power, as
    error_reports asks for them."""
    recorded = []

    def recording(f, a, b, *, breakpoints, **kwargs):
        results = integrate(f, a, b, breakpoints=breakpoints, **kwargs)
        for k, result in enumerate(results):
            recorded.append((_one_integral(f, k), a[k], b[k],
                             dict(kwargs, breakpoints=breakpoints[k]),
                             result))
        return results
    monkeypatch.setattr(phase_pdf, "integrate", recording)
    pdfs = [_moment_pdf(*cell) for cell in MOMENT_CELLS]
    for power in (2, 1):
        phase_pdf._moment_integrals(pdfs, power, rel_tol=1e-10)
    return recorded


def test_moment_integrals_give_the_one_panel_bits(monkeypatch):
    spreads = [_moment_pdf(*cell).spread for cell in MOMENT_CELLS]
    assert min(spreads) < phase_pdf.NARROW_SPREAD <= max(spreads)
    recorded = _recorded_moment_integrals(monkeypatch)
    assert len(recorded) == 2 * len(MOMENT_CELLS)  # powers 2 and 1
    for f, a, b, kwargs, result in recorded:
        want, _ = reference_integrate(f, a, b, **kwargs)
        assert result.hex() == want.hex()


@pytest.mark.parametrize("max_panels", [2, 7, 64])
def test_exhausted_budget_reports_the_one_panel_estimates(max_panels,
                                                          monkeypatch):
    monkeypatch.setattr(quadrature, "_ABS_TOL", 1e-300)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", max_panels)
    gen = np.random.default_rng(5)
    table = gen.standard_normal(1 << 20)

    def noisy(x):
        idx = np.clip((x * (1 << 20)).astype(int), 0, (1 << 20) - 1)
        return table[idx]

    kwargs = dict(rel_tol=1e-14, breakpoints=(0.3,))
    with pytest.raises(QuadratureNonConvergence) as want:
        reference_integrate(noisy, 0.0, 1.0, abs_tol=1e-300,
                            max_panels=max_panels, **kwargs)
    with pytest.raises(QuadratureNonConvergence) as got:
        integrate(noisy, 0.0, 1.0, **kwargs)
    assert got.value.best_estimate.hex() == want.value.best_estimate.hex()
    assert got.value.error_estimate.hex() == want.value.error_estimate.hex()


# --- integrand calls of an rmse grid ------------------------------------------

# 3 SNRs x 2 phase-noise levels x 2 record lengths, both integral branches.
RMSE_GRID = ["rmse", "--snr-db", "-20,10,50", "--sigma-p-deg", "0.5,10",
             "--n", "100,10000"]
# One panel per call takes 22.2 calls per integral on this grid (19.7 over
# the analytic benchmark's cells), 266 for the table; one integral at a time
# with batched panels took 4.0 per integral, 48 for the table.  In lockstep
# the whole table takes 5.  The bound is a count, not a time, so a return to
# either fails on any machine.
CALLS_PER_TABLE = 6


def test_rmse_grid_batches_its_panels(tmp_path, monkeypatch):
    counts = {"tables": 0, "integrals": 0, "calls": 0, "reference_calls": 0}

    def counting(f, a, b, *, breakpoints, **kwargs):
        def integrand(points):
            counts["calls"] += 1
            return f(points)
        counts["tables"] += 1
        counts["integrals"] += len(a)
        for k in range(len(a)):
            counts["reference_calls"] += reference_integrate(
                _one_integral(f, k), a[k], b[k], breakpoints=breakpoints[k],
                **kwargs)[1]
        return integrate(integrand, a, b, breakpoints=breakpoints, **kwargs)
    monkeypatch.setattr(phase_pdf, "integrate", counting)
    assert main(RMSE_GRID + ["--out", str(tmp_path / "t.csv")]) == 0
    assert counts["tables"] == 1 and counts["integrals"] == 12
    assert counts["calls"] <= CALLS_PER_TABLE
    # the bound would catch a return to one panel per call
    assert counts["reference_calls"] / counts["integrals"] > CALLS_PER_TABLE


def test_stacked_panel_sums_are_the_row_dots():
    # _panels' one stacked product against the per-panel 1-D dots it
    # replaced, on random values spanning 60 decades: same bits
    gen = np.random.default_rng(5)
    for n_panels in (1, 2, 7, 16, 40):
        edges = np.sort(gen.uniform(-3.0, 3.0, n_panels + 1))
        bounds = list(zip(edges[:-1].tolist(), edges[1:].tolist()))
        y = (gen.standard_normal((n_panels, 22))
             * 10.0 ** gen.uniform(-30.0, 30.0, (n_panels, 1)))
        panels = quadrature._panels(lambda points: y.ravel(), bounds,
                                   [0] * n_panels)
        for (a, b), row, (pa, pb, i15, err) in zip(bounds, y, panels):
            h = 0.5 * (b - a)
            want15 = h * float(row[:15] @ quadrature._W15)
            want7 = h * float(row[15:] @ quadrature._W7)
            assert (pa, pb) == (a, b)
            assert i15.hex() == want15.hex()
            assert err.hex() == abs(want15 - want7).hex()
