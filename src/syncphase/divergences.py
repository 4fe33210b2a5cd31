"""Divergences between phase-estimate densities on shared grids.

Densities are carried as trapezoid-normalized samples on a strictly
increasing node set (:class:`DensityGrid`).  For the smooth periodic
densities used here the trapezoid rule on a uniform grid is spectrally
accurate, so 2^15+1 nodes put grid error far below the divergence tolerances;
narrow lobes get a dedicated dense window merged into a coarse ambient grid
(the ambient component is constant, where the trapezoid rule is exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import LengthMismatch, OutOfRange, SupportMismatch
from .phase_pdf import NARROW_SPREAD, U_LIMIT, PolarPdf, pdf_value, wrap_angle
from .spectral_estimator import TheoreticalMoments

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

DENSE_NODES = 2**15 + 1   # lobe / uniform-grid resolution
AMBIENT_NODES = 2**10 + 1 # coarse carrier for the constant ambient region
NORMALIZATION_TOL = 1e-6


@dataclass(frozen=True)
class DensityGrid:
    """A probability density sampled on strictly increasing nodes.

    Invariants (checked): matching 1-D shapes, strictly increasing nodes,
    non-negative finite values, unit trapezoid mass within 1e-6.  The node
    range is the support; phase densities live on [-pi, pi], but nothing
    restricts a grid to that interval (wide grids are legitimate for
    densities on the line).
    """

    nodes: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        if nodes.ndim != 1 or values.ndim != 1:
            raise OutOfRange("nodes and values must be 1-D")
        if nodes.shape != values.shape:
            raise LengthMismatch(
                f"nodes ({nodes.shape[0]}) and values ({values.shape[0]}) differ"
            )
        if nodes.shape[0] < 2:
            raise OutOfRange("need at least two nodes")
        if not np.all(np.isfinite(nodes)):
            raise OutOfRange("nodes must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise OutOfRange("nodes must be strictly increasing")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise OutOfRange("density values must be finite and non-negative")
        mass = float(_trapezoid(values, nodes))
        if abs(mass - 1.0) > NORMALIZATION_TOL:
            raise OutOfRange(
                f"density mass {mass!r} deviates from 1 by more than "
                f"{NORMALIZATION_TOL}"
            )
        nodes.setflags(write=False)
        values.setflags(write=False)

    @property
    def mass(self) -> float:
        return float(_trapezoid(self.values, self.nodes))


def phase_nodes(spread: float, center: float = 0.0) -> np.ndarray:
    """Node set on [-pi, pi] resolving a lobe of the given error scale.

    Wide lobes (spread >= 0.05) use a uniform grid.  Narrow lobes get a
    dense window of half-width U_LIMIT*spread around the (wrapped) center
    merged into a coarse ambient grid; window nodes falling outside the
    principal interval are wrapped around, which keeps the dense coverage
    correct for lobes hugging the boundary.
    """
    if not (spread > 0.0) or not math.isfinite(spread):
        raise OutOfRange(f"spread must be positive and finite, got {spread!r}")
    if spread >= NARROW_SPREAD:
        return np.linspace(-math.pi, math.pi, DENSE_NODES)
    c = wrap_angle(center)
    half_width = U_LIMIT * spread
    window = np.linspace(c - half_width, c + half_width, DENSE_NODES)
    window = np.asarray(wrap_angle(window))
    ambient = np.linspace(-math.pi, math.pi, AMBIENT_NODES)
    return np.unique(np.concatenate((ambient, window)))


def density_from_pdf(pdf: PolarPdf) -> DensityGrid:
    """Sample the closed-form phase density on its adapted node set."""
    nodes = phase_nodes(pdf.spread, pdf.phi)
    return DensityGrid(nodes=nodes, values=pdf_value(pdf, nodes))


def uniform_density_on(nodes: np.ndarray) -> DensityGrid:
    """The uniform phase density sampled on a caller-supplied node set."""
    nodes = np.asarray(nodes, dtype=float)
    return DensityGrid(nodes=nodes,
                       values=np.full(nodes.shape, 1.0 / math.tau))


def gaussian_approximation(moments: TheoreticalMoments,
                           nodes: Optional[np.ndarray] = None) -> DensityGrid:
    """Small-error Gaussian approximation N(phi, (sigma/beta)^2) of the phase
    density, on `nodes`: by default the node set density_from_pdf uses, which
    a caller that already holds that density passes to skip rebuilding it.

    Distances to the center are wrapped to the principal interval and the
    samples are renormalized by their grid mass: for narrow lobes the factor
    differs from one by well under 1e-12, while for wide spreads it keeps the
    truncated Gaussian a valid density.
    """
    pdf = PolarPdf.from_moments(moments)
    spread = pdf.spread
    if nodes is None:
        nodes = phase_nodes(spread, pdf.phi)
    z = np.asarray(wrap_angle(nodes - pdf.phi)) / spread
    values = np.exp(-0.5 * z * z) / (math.sqrt(math.tau) * spread)
    values = values / float(_trapezoid(values, nodes))
    return DensityGrid(nodes=nodes, values=values)


def _require_shared_nodes(p: DensityGrid, q: DensityGrid) -> None:
    if p.nodes.shape != q.nodes.shape or not np.array_equal(p.nodes, q.nodes):
        raise LengthMismatch("divergence inputs must share an identical node set")


def kl_divergence(p: DensityGrid, q: DensityGrid) -> float:
    """Kullback-Leibler divergence integral p log(p/q) on the shared grid.

    Raises SupportMismatch when q vanishes on nodes where p carries mass;
    the exception records the offending fraction of p's mass.
    """
    _require_shared_nodes(p, q)
    pv = p.values
    qv = q.values
    has_p = pv > 0.0
    bad = has_p & (qv == 0.0)
    if np.any(bad):
        mass = float(_trapezoid(np.where(bad, pv, 0.0), p.nodes))
        raise SupportMismatch(
            f"q vanishes on {int(np.count_nonzero(bad))} nodes carrying "
            f"p-mass {mass:.3e}",
            unsupported_mass=min(mass, 1.0),
        )
    integrand = np.zeros_like(pv)
    integrand[has_p] = pv[has_p] * np.log(pv[has_p] / qv[has_p])
    return float(_trapezoid(integrand, p.nodes))


def bhattacharyya_distance(p: DensityGrid, q: DensityGrid) -> float:
    """Bhattacharyya distance -log integral sqrt(p q) on the shared grid."""
    _require_shared_nodes(p, q)
    coefficient = float(_trapezoid(np.sqrt(p.values * q.values), p.nodes))
    if coefficient <= 0.0:
        return math.inf
    return -math.log(coefficient)
