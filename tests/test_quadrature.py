"""Tests for the adaptive embedded-rule integrator."""
import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from syncphase import quadrature
from syncphase.errors import OutOfRange, QuadratureNonConvergence
from syncphase.quadrature import integrate


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


def test_panel_budget_exhaustion_reports_estimates():
    # an integrand rough at every scale cannot converge; the raised error
    # must still carry the best estimate and its error bound
    gen = np.random.default_rng(5)
    table = gen.standard_normal(1 << 20)

    def noisy(x):
        idx = np.clip((x * (1 << 20)).astype(int), 0, (1 << 20) - 1)
        return table[idx]

    with pytest.raises(QuadratureNonConvergence) as err:
        integrate(noisy, 0.0, 1.0, rel_tol=1e-14, abs_tol=1e-300,
                  max_panels=64)
    assert math.isfinite(err.value.best_estimate)
    assert err.value.error_estimate > 0.0


def test_breakpoints_outside_interval_are_ignored():
    val = integrate(np.cos, 0.0, 1.0, breakpoints=(-5.0, 0.25, 7.0))
    assert val == pytest.approx(math.sin(1.0), rel=1e-12)


def test_tolerance_floor_handles_zero_integrals():
    # odd function: true value 0, so the relative test alone could never
    # terminate; the absolute floor must
    assert integrate(lambda x: x**3, -1.0, 1.0) == pytest.approx(0.0, abs=1e-13)
