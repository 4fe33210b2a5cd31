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
from typing import List, Optional, Sequence, Union

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


def wrap_angle(angle, out=None):
    """Wrap to the principal interval (-pi, pi] (vectorized).  With `out`,
    an array of angle's shape (angle itself is fine), the wrapped angles
    are written there and returned."""
    a = np.asarray(angle, dtype=float)
    wrapped = np.add(a, math.pi, out=np.empty(a.shape) if out is None else out)
    # np.mod(x, tau) is x itself on [0, tau), and both send tau (and -0.0)
    # to an end that the copyto below maps to +pi: skip its cost where
    # every angle is already in range
    if not (wrapped.size and wrapped.min() >= 0.0
            and wrapped.max() <= math.tau):
        np.mod(wrapped, math.tau, out=wrapped)
    np.subtract(wrapped, math.pi, out=wrapped)
    np.copyto(wrapped, math.pi, where=wrapped == -math.pi)
    if out is None and np.ndim(angle) == 0:
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


def _cell_scalars(pdf: PolarPdf):
    """The density's per-cell scalars, in the order _density takes them:
    beta, sigma, the ambient floor ambient/(2 pi), ambient,
    2 sqrt(2 pi) sigma and sqrt(2) sigma."""
    sigma = pdf.sigma
    return (pdf.beta_p, sigma, pdf.ambient / math.tau, pdf.ambient,
            2.0 * math.sqrt(math.tau) * sigma, sigma * _SQRT2)


def _apply_at(fn, x, mask, scratch) -> None:
    """x[mask] = fn(x[mask]), gathered through `scratch`: a SciPy ufunc
    called with where= can skip an element it should write."""
    count = int(np.count_nonzero(mask))
    if count:
        part = np.compress(mask, x, out=scratch[:count])
        fn(part, out=part)
        np.place(x, mask, part)


# erfc(z) is exactly 2.0 for every z <= _ERFC_TWO (tested), so _density
# evaluates it only above
_ERFC_TWO = -6.0


def _density(t, beta, sigma, floor, ambient, pref_scale, root2_sigma,
             out=None, work=None):
    """g at the centred angles t (1-D), written to `out` and returned.
    Each scalar of _cell_scalars is a float shared by every angle, or an
    array of one value per angle.  `work` holds three float and three bool
    arrays of t's shape; without it (or `out`) they are allocated."""
    if out is None:
        out = np.empty(t.shape)
    if work is None:
        work = ([np.empty(t.shape) for _ in range(3)],
                [np.empty(t.shape, dtype=bool) for _ in range(3)])
    (c, lobe, z), (pos, sel, rest) = work
    np.cos(t, out=c)
    np.greater_equal(c, 0.0, out=pos)
    # z = -b cos(t) / (sqrt(2) sigma): the erfc argument where cos(t) >= 0,
    # the erfcx argument elsewhere
    np.multiply(beta, c, out=z)
    np.negative(z, out=z)
    np.divide(z, root2_sigma, out=z)
    # where cos(t) >= 0: lobe = exp(-(b sin(t) / sigma)^2 / 2) * erfc(z)
    np.sin(t, out=lobe, where=pos)
    np.multiply(beta, lobe, out=lobe, where=pos)
    np.divide(lobe, sigma, out=lobe, where=pos)
    np.square(lobe, out=lobe, where=pos)
    np.multiply(lobe, -0.5, out=lobe, where=pos)
    np.exp(lobe, out=lobe, where=pos)
    # erfc(z) at the cos(t) >= 0 nodes above _ERFC_TWO, 2.0 at the rest
    np.greater(z, _ERFC_TWO, out=sel)
    np.logical_and(sel, pos, out=sel)
    np.logical_xor(pos, sel, out=rest)
    _apply_at(erfc, z, sel, out)
    np.copyto(z, 2.0, where=rest)
    np.multiply(lobe, z, out=lobe, where=pos)
    # elsewhere erfc(z) e^{-b^2 sin^2(t)/2sig^2} == erfcx(z) e^{-b^2/2sig^2}:
    # combining the exponents analytically avoids underflow-times-overflow
    neg = np.logical_not(pos, out=rest)
    _apply_at(erfcx, z, neg, out)
    # floor + b cos(t) / (2 sqrt(2 pi) sigma) * (lobe, or erfcx(z) ambient)
    np.multiply(beta, c, out=c)
    np.divide(c, pref_scale, out=c)
    np.multiply(c, lobe, out=c, where=pos)
    np.multiply(c, z, out=c, where=neg)
    np.multiply(c, ambient, out=c, where=neg)
    return np.add(c, floor, out=out)


def pdf_value_into(pdf: PolarPdf, theta: np.ndarray, out: np.ndarray,
                   work) -> np.ndarray:
    """:func:`pdf_value` of the 1-D `theta`, written to `out` and returned,
    computed in `work`: four float arrays and three bool arrays of theta's
    shape, none of them theta or out."""
    floats, bools = work
    t = np.subtract(theta, pdf.phi, out=floats[0])
    return _density(t, *_cell_scalars(pdf), out=out,
                    work=(floats[1:4], bools))


def pdf_value(pdf: PolarPdf, theta) -> Union[float, np.ndarray]:
    """Density of the phase estimate at theta (radians); vectorized."""
    theta = np.asarray(theta, dtype=float)
    out = _density(theta.reshape(-1) - pdf.phi, *_cell_scalars(pdf))
    if theta.ndim == 0:
        return float(out[0])
    return out.reshape(theta.shape)


# Cells whose moment integrals run in one lockstep: bounds the panels and
# integrand arrays held at once (a round evaluates at most 2 * _LOOKAHEAD
# panels of 22 points per cell) while keeping perfbench's 12-cell rmse and
# 4-cell efficiency tables in one group.
_CELLS_PER_LOCKSTEP = 64


def _moment_integrals(pdfs, power: int, *, rel_tol: float) -> list:
    """Per density of `pdfs`: the integral of (theta - phi)^power * g(theta)
    over the principal circle (power 1 or 2), or the
    QuadratureNonConvergence it ran into.  The integrals of each group of
    _CELLS_PER_LOCKSTEP cells are refined in lockstep, one integrand call
    per round.

    A wide lobe (spread >= NARROW_SPREAD) integrates over theta in
    [-pi, pi] with breakpoints at +-1 and +-4 spreads.  A narrow lobe
    integrates theta = u*spread over |u| <= U_LIMIT, and the ambient
    component's exact contribution over the remaining arc is added.  One
    integrand serves both: th = x*s, th^power * g(th) * s, with s the
    spread for a narrow lobe and 1.0 for a wide one, where both products
    are exact."""
    results = []
    for first in range(0, len(pdfs), _CELLS_PER_LOCKSTEP):
        group = pdfs[first:first + _CELLS_PER_LOCKSTEP]
        lows, highs, marks, scales, remainders = [], [], [], [], []
        for pdf in group:
            spread = pdf.spread
            if spread >= NARROW_SPREAD:
                bounds = [m * spread for m in (-4.0, -1.0, 1.0, 4.0)]
                lows.append(-math.pi)
                highs.append(math.pi)
                marks.append([m for m in bounds if -math.pi < m < math.pi])
                scales.append(1.0)
                remainders.append(None)
                continue
            lows.append(-U_LIMIT)
            highs.append(U_LIMIT)
            marks.append([-5.0, -1.0, 1.0, 5.0])
            scales.append(spread)
            remainder = 0.0  # the ambient floor is even: it adds no odd moment
            if power == 2:
                limit = U_LIMIT * spread
                ambient = pdf.ambient / math.tau
                remainder = ambient * (2.0 / 3.0) * (math.pi**3 - limit**3)
            remainders.append(remainder)
        per_cell = np.array([_cell_scalars(pdf) + (s,)
                             for pdf, s in zip(group, scales)]).T.copy()

        def integrand(points):
            x, owner = points
            *cell, scale = per_cell[:, owner]
            th = x * scale
            return th**power * _density(th, *cell) * scale

        values = integrate(integrand, lows, highs, rel_tol=rel_tol,
                           breakpoints=marks)
        results += [value if remainder is None or isinstance(value, Exception)
                    else value + remainder
                    for value, remainder in zip(values, remainders)]
    return results


def _one(result):
    """A batch-of-one result: the value, or the cell's exception raised."""
    if isinstance(result, Exception):
        raise result
    return result


def rmse_polar(pdf: PolarPdf, *, rel_tol: float = 1e-10) -> float:
    """Root-mean-square error of the estimate about the lobe center phi,
    from the closed-form density (no sampling)."""
    (integral,) = _moment_integrals([pdf], 2, rel_tol=rel_tol)
    return math.sqrt(_one(integral))


def bias_polar(pdf: PolarPdf) -> float:
    """Mean signed error; zero by symmetry, evaluated as a sanity channel."""
    (integral,) = _moment_integrals([pdf], 1, rel_tol=1e-10)
    return _one(integral)


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
    Raises OutOfRange for an rmse that is not finite and > 0.
    """
    if rmse is None:
        rmse = rmse_polar(PolarPdf.from_moments(moments))
    elif not (0.0 < rmse < math.inf):
        raise OutOfRange(f"rmse must be finite and > 0, got {rmse!r}")
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


def _attempt(fn, *args):
    """fn(*args), or the error it raises, returned in its place.  Every
    SyncPhaseError is a ValueError or an ArithmeticError, and so are the
    math domain and overflow errors a cell's arithmetic can raise."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return exc


def _report(moments: TheoreticalMoments, integral) -> ErrorReport:
    rmse = math.sqrt(_one(integral))
    return ErrorReport(
        rmse_analytic=rmse,
        crlb=crlb(moments),
        efficiency=efficiency(moments, rmse),
        rmse_linear_approx=rmse_linear_approx(moments.n_samples, moments.snr),
        rmse_floor_approx=rmse_floor_approx(moments),
        regime=classify_regime(moments, rmse=rmse),
    )


def error_reports(table: Sequence[TheoreticalMoments]
                  ) -> List[Union[ErrorReport, Exception]]:
    """:func:`error_report` of every configuration of `table`, with their
    RMSE integrals refined in lockstep (one integrand call per round for a
    group of cells).  Per configuration the result is its ErrorReport or
    the error error_report raises for it, returned instead of raised,
    so a failing cell leaves every other cell its report and its bits."""
    cells = [_attempt(PolarPdf.from_moments, moments) for moments in table]
    integrals = iter(_moment_integrals(
        [cell for cell in cells if isinstance(cell, PolarPdf)], 2,
        rel_tol=1e-10))
    return [cell if isinstance(cell, Exception)
            else _attempt(_report, moments, next(integrals))
            for moments, cell in zip(table, cells)]


def error_report(moments: TheoreticalMoments) -> ErrorReport:
    """Assemble the analytic error summary for one configuration.

    Note the efficiency field is CRLB/rmse^2 verbatim; outside the
    concentrated regime the bound is not attainable and the ratio may exceed
    one — interpret it together with `regime`.
    """
    (report,) = error_reports([moments])
    return _one(report)
