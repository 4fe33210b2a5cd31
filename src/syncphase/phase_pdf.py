"""Exact distribution of the phase estimate, its error moments, and the
asymptotic-regime analysis.

The reduced bin statistic is (to the adopted Gaussian model) an isotropic
complex Gaussian with mean beta_p*e^{j*phi} and per-axis variance sigma^2.
The estimate arg(D) then has the closed-form density

    g(theta) = exp(-beta^2/(2 s^2)) / (2 pi)
             + beta*cos(t) * exp(-beta^2 sin^2(t) / (2 s^2)) / (2 sqrt(2 pi) s)
               * erfc(-beta*cos(t) / (s*sqrt(2)))

with t = theta - phi: a uniform ambient floor plus a concentrated lobe.  For
negative cos(t) the erfc factor underflows long before the prefactor decays,
so that branch is evaluated through the scaled function erfcx with the
exponentials combined analytically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import erfc, erfcx

from .errors import DegenerateSigma, OutOfRange
from .quadrature import integrate
from .spectral_estimator import TheoreticalMoments

_SQRT2 = math.sqrt(2.0)

# Below this spread (in units of the error scale sigma/beta) the lobe is too
# narrow for panels spanning [-pi, pi]; moment integrals switch to the
# rescaled variable u = theta*beta/sigma with an analytic ambient remainder.
NARROW_SPREAD = 0.05
# Rescaled integration half-width: beyond |u| = 40 the non-ambient part of
# the density is below e^{-800}.
U_LIMIT = 40.0


def wrap_angle(angle):
    """Wrap to the principal interval (-pi, pi] (vectorized)."""
    a = np.asarray(angle, dtype=float)
    shifted = a + math.pi
    # np.mod(x, tau) is x itself on [0, tau), and both send tau (and -0.0)
    # to an end that the np.where below maps to +pi: skip its cost where
    # every angle is already in range
    if shifted.size and shifted.min() >= 0.0 and shifted.max() <= math.tau:
        wrapped = shifted - math.pi
    else:
        wrapped = np.mod(shifted, math.tau) - math.pi
    wrapped = np.where(wrapped == -math.pi, math.pi, wrapped)
    if np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class PolarPdf:
    """Parameters of the phase-estimate density: lobe location phi,
    concentration beta_p, per-axis spread sigma.

    beta_p = 0, where exp(-sigma_p^2/2) underflows (sigma_p above about
    38.6 rad), is the uniform limit: no lobe is left, the spread is
    infinite and the density is 1/(2 pi) everywhere.
    """

    beta_p: float
    sigma: float
    phi: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.beta_p <= 1.0):
            raise OutOfRange(f"beta_p must be in [0, 1], got {self.beta_p!r}")
        if self.sigma == 0.0:
            raise DegenerateSigma(
                "noiseless configuration: the estimate is deterministic")
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise OutOfRange(f"sigma must be > 0 and finite, got {self.sigma!r}")
        if not math.isfinite(self.phi):
            raise OutOfRange(f"phi must be finite, got {self.phi!r}")

    @property
    def ambient(self) -> float:
        """e^{-beta^2/(2 sigma^2)}: the scale of the ambient (uniform)
        component, whose density is this over 2 pi; 0 once it underflows."""
        ratio = self.beta_p / self.sigma
        return math.exp(-0.5 * ratio**2) if ratio < 38.0 else 0.0

    @property
    def spread(self) -> float:
        """Error scale sigma/beta_p (std of the small-error linearization);
        inf at beta_p = 0."""
        return self.sigma / self.beta_p if self.beta_p > 0.0 else math.inf

    @classmethod
    def from_moments(cls, moments: TheoreticalMoments) -> "PolarPdf":
        """The density of these moments; sigma2 = 0 raises DegenerateSigma."""
        return cls(
            beta_p=moments.beta_p,
            sigma=math.sqrt(moments.sigma2),
            phi=moments.phase,
        )


def pdf_value(pdf: PolarPdf, theta) -> Union[float, np.ndarray]:
    """Density of the phase estimate at theta (radians); vectorized."""
    t = np.asarray(theta, dtype=float) - pdf.phi
    beta = pdf.beta_p
    sigma = pdf.sigma

    pref_scale = 2.0 * math.sqrt(math.tau) * sigma
    root2_sigma = sigma * _SQRT2

    c = np.cos(t)
    out = np.full(t.shape, pdf.ambient / math.tau, dtype=float)
    # each branch evaluates its factors on its own nodes only
    pos = c >= 0.0
    if np.any(pos):
        cp = c[pos]
        lobe = (np.exp(-0.5 * (beta * np.sin(t[pos]) / sigma) ** 2)
                * erfc(-beta * cp / root2_sigma))
        out[pos] += beta * cp / pref_scale * lobe
    neg = ~pos
    if np.any(neg):
        # erfc(z)*e^{-b^2 s^2/2sig^2} == erfcx(z)*e^{-b^2/2sig^2}: combining
        # the exponents analytically avoids underflow-times-overflow
        cn = c[neg]
        out[neg] += (beta * cn / pref_scale * erfcx(-beta * cn / root2_sigma)
                     * pdf.ambient)
    if np.ndim(theta) == 0:
        return float(out)
    return out


def _moment_integral(pdf: PolarPdf, power: int, *, rel_tol: float) -> float:
    """integral of (theta - phi)^power * g(theta) over the principal circle,
    for power 1 or 2."""
    centered = PolarPdf(beta_p=pdf.beta_p, sigma=pdf.sigma, phi=0.0)
    spread = centered.spread

    if spread >= NARROW_SPREAD:
        marks = [m * spread for m in (-4.0, -1.0, 1.0, 4.0)]
        return integrate(
            lambda th: th**power * pdf_value(centered, th),
            -math.pi,
            math.pi,
            rel_tol=rel_tol,
            breakpoints=[m for m in marks if -math.pi < m < math.pi],
        )

    # Narrow lobe: integrate theta = u*spread over |u| <= U_LIMIT, then add
    # the ambient component's exact contribution over the remaining arc.
    limit = U_LIMIT * spread

    def integrand(u):
        th = u * spread
        return th**power * pdf_value(centered, th) * spread

    lobe = integrate(
        integrand,
        -U_LIMIT,
        U_LIMIT,
        rel_tol=rel_tol,
        breakpoints=[-5.0, -1.0, 1.0, 5.0],
    )
    remainder = 0.0  # the ambient floor is even: it adds no odd moment
    if power == 2:
        ambient = pdf.ambient / math.tau
        remainder = ambient * (2.0 / 3.0) * (math.pi**3 - limit**3)
    return lobe + remainder


def rmse_polar(pdf: PolarPdf, *, rel_tol: float = 1e-10) -> float:
    """Root-mean-square error of the estimate about the lobe center phi,
    from the closed-form density (no sampling)."""
    return math.sqrt(_moment_integral(pdf, 2, rel_tol=rel_tol))


def bias_polar(pdf: PolarPdf) -> float:
    """Mean signed error; zero by symmetry, evaluated as a sanity channel."""
    return _moment_integral(pdf, 1, rel_tol=1e-10)


def rmse_cartesian_oracle(moments: TheoreticalMoments) -> float:
    """RMSE via the two-dimensional Cartesian route (independent oracle).

    Integrates arg(x+jy)^2 against the isotropic Gaussian of the bin
    statistic with nested 1-D adaptive quadrature (QUADPACK), entirely
    bypassing the closed-form angular density.  Intended as a cross-check:
    Python-loop slow, accurate to ~1e-7 relative.  ``scipy.integrate`` is
    imported on the first call, so importing the package does not load it.
    """
    from scipy.integrate import quad

    if moments.sigma2 == 0.0:
        raise DegenerateSigma("noiseless configuration: the estimate is deterministic")
    sigma = math.sqrt(moments.sigma2)
    mx = moments.mean.real
    my = moments.mean.imag
    phi = moments.phase

    reach = max(2.0 * moments.beta_p, 8.0 * sigma)
    xlo, xhi = min(mx - 8.0 * sigma, -reach), max(mx + 8.0 * sigma, reach)
    ylo, yhi = min(my - 8.0 * sigma, -reach), max(my + 8.0 * sigma, reach)
    norm = 1.0 / (math.tau * sigma**2)
    inv2s2 = 1.0 / (2.0 * sigma**2)

    def _inner_points(lo, hi, a, b):
        return [p for p in (a, b) if lo < p < hi]

    xpts = _inner_points(xlo, xhi, mx - 8.0 * sigma, mx + 8.0 * sigma)
    ypts = _inner_points(ylo, yhi, my - 8.0 * sigma, my + 8.0 * sigma)

    def inner(y):
        dy2 = (y - my) ** 2

        def f(x):
            err = math.atan2(y, x) - phi
            err = math.remainder(err, math.tau)
            if err <= -math.pi:
                err += math.tau
            return err * err * math.exp(-((x - mx) ** 2 + dy2) * inv2s2)

        val, _ = quad(f, xlo, xhi, points=xpts, limit=200, epsabs=1e-13, epsrel=1e-10)
        return val

    total, _ = quad(
        inner, ylo, yhi, points=ypts, limit=200, epsabs=1e-12, epsrel=1e-9
    )
    return math.sqrt(norm * total)


def crlb(moments: TheoreticalMoments) -> float:
    """Cramer-Rao lower bound on the error variance: sigma^2 / beta_p^2;
    inf where beta_p^2 underflows to 0 (sigma_p above about 27.3 rad)."""
    b2 = moments.beta_p**2
    return moments.sigma2 / b2 if b2 > 0.0 else math.inf


def efficiency(moments: TheoreticalMoments, rmse: float) -> float:
    """Ratio CRLB / rmse^2 (meaningful in the concentrated regime)."""
    if not (rmse > 0.0):
        raise OutOfRange(f"rmse must be > 0, got {rmse!r}")
    return crlb(moments) / rmse**2


def rmse_uniform_limit() -> float:
    """RMSE of a uniform phase estimate: pi/sqrt(3)."""
    return math.pi / math.sqrt(3.0)


def rmse_linear_approx(n_samples: int, snr: float) -> float:
    """Small-error additive-noise-only approximation 1/sqrt(N*SNR), taken
    as 1/sqrt(N)/sqrt(SNR) where the product N*SNR overflows."""
    if n_samples < 1:
        raise OutOfRange(f"n_samples must be >= 1, got {n_samples!r}")
    if not (snr > 0.0):
        raise OutOfRange(f"snr must be > 0, got {snr!r}")
    n_snr = n_samples * snr
    if n_snr == math.inf:  # 0.0 for a noiseless snr either way
        return 1.0 / math.sqrt(n_samples) / math.sqrt(snr)
    return 1.0 / math.sqrt(n_snr)


def rmse_floor_approx(moments: TheoreticalMoments) -> float:
    """Phase-noise floor sqrt((1 - beta_p^2)/(beta_p^2 N)), which no SNR can
    beat, from the exact one_minus_beta_sq; inf where beta_p^2 underflows to
    0 (sigma_p above about 27.3 rad)."""
    beta_p = moments.beta_p
    if not (0.0 <= beta_p <= 1.0):
        raise OutOfRange(f"beta_p must be in [0, 1], got {beta_p!r}")
    denominator = beta_p**2 * moments.n_samples
    if denominator == 0.0:
        return math.inf
    return math.sqrt(moments.one_minus_beta_sq / denominator)


class Regime(str, enum.Enum):
    UNIFORM_SATURATED = "UniformSaturated"
    PHASE_NOISE_FLOOR = "PhaseNoiseFloor"
    LINEAR = "Linear"
    TRANSITIONAL = "Transitional"


def classify_regime(
    moments: TheoreticalMoments, rmse: Optional[float] = None
) -> Regime:
    """Asymptotic regime of a configuration (checks in priority order).

    UniformSaturated: rmse within 2% of pi/sqrt(3);
    PhaseNoiseFloor:  phase noise dominates, 1 - beta_p^2 > 10/SNR;
    Linear:           beta_p > 0.9999 and rmse within 2% of 1/sqrt(N*SNR);
    Transitional:     everything else.
    """
    if rmse is None:
        rmse = rmse_polar(PolarPdf.from_moments(moments))
    limit = rmse_uniform_limit()
    if abs(rmse - limit) <= 0.02 * limit:
        return Regime.UNIFORM_SATURATED
    if moments.one_minus_beta_sq > 10.0 / moments.snr:
        return Regime.PHASE_NOISE_FLOOR
    if moments.beta_p > 0.9999 and not math.isinf(moments.snr):
        linear = rmse_linear_approx(moments.n_samples, moments.snr)
        if abs(rmse - linear) <= 0.02 * linear:
            return Regime.LINEAR
    return Regime.TRANSITIONAL


@dataclass(frozen=True)
class ErrorReport:
    """Analytic error summary for one configuration, in radians.  The bias
    (zero by symmetry) is not a field: :func:`bias_polar` evaluates it."""

    rmse_analytic: float
    crlb: float
    efficiency: float
    rmse_linear_approx: float
    rmse_floor_approx: float
    regime: Regime


def error_report(moments: TheoreticalMoments) -> ErrorReport:
    """Assemble the analytic error summary for one configuration.

    Note the efficiency field is CRLB/rmse^2 verbatim; outside the
    concentrated regime the bound is not attainable and the ratio may exceed
    one — interpret it together with `regime`.
    """
    rmse = rmse_polar(PolarPdf.from_moments(moments))
    return ErrorReport(
        rmse_analytic=rmse,
        crlb=crlb(moments),
        efficiency=efficiency(moments, rmse),
        rmse_linear_approx=rmse_linear_approx(moments.n_samples, moments.snr),
        rmse_floor_approx=rmse_floor_approx(moments),
        regime=classify_regime(moments, rmse=rmse),
    )
