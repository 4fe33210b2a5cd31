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
from typing import Optional, Tuple, Union

import numpy as np

from .errors import LengthMismatch, OutOfRange, SupportMismatch
from .phase_pdf import NARROW_SPREAD, U_LIMIT, PolarPdf, pdf_value, wrap_angle
from .spectral_estimator import TheoreticalMoments

DENSE_NODES = 2**15 + 1   # lobe / uniform-grid resolution
AMBIENT_NODES = 2**10 + 1 # coarse carrier for the constant ambient region
NORMALIZATION_TOL = 1e-6


def _trapezoid(y: np.ndarray, spacing: np.ndarray) -> float:
    """np.trapezoid(y, x) from spacing = np.diff(x), in its own expression
    and so with its bits; the node set's one np.diff serves every integral
    on it."""
    return float((spacing * (y[1:] + y[:-1]) / 2.0).sum())


def _node_spacing(nodes: np.ndarray) -> np.ndarray:
    """np.diff of a node set, checked: at least two finite, strictly
    increasing nodes."""
    if nodes.ndim != 1:
        raise OutOfRange("nodes must be 1-D")
    if nodes.shape[0] < 2:
        raise OutOfRange("need at least two nodes")
    spacing = np.diff(nodes)
    # all steps positive and both ends finite: then every node is finite
    if not (np.all(spacing > 0) and math.isfinite(nodes[0])
            and math.isfinite(nodes[-1])):
        if not np.all(np.isfinite(nodes)):
            raise OutOfRange("nodes must be finite")
        raise OutOfRange("nodes must be strictly increasing")
    spacing.setflags(write=False)
    return spacing


@dataclass(frozen=True)
class DensityGrid:
    """A probability density sampled on strictly increasing nodes.

    Invariants (checked): matching 1-D shapes, strictly increasing nodes,
    non-negative finite values, unit trapezoid mass within 1e-6.  The node
    range is the support; phase densities live on [-pi, pi], but nothing
    restricts a grid to that interval (wide grids are legitimate for
    densities on the line).

    Grids built on another grid's node set (see :func:`uniform_density_on`)
    share its nodes and their spacing, checked once.
    """

    nodes: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    # np.diff(nodes), already checked; None has __post_init__ check the nodes
    _spacing: Optional[np.ndarray] = field(default=None, repr=False,
                                           compare=False)

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
        if self._spacing is None:
            object.__setattr__(self, "_spacing", _node_spacing(nodes))
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise OutOfRange("density values must be finite and non-negative")
        mass = _trapezoid(values, self._spacing)
        if abs(mass - 1.0) > NORMALIZATION_TOL:
            raise OutOfRange(
                f"density mass {mass!r} deviates from 1 by more than "
                f"{NORMALIZATION_TOL}"
            )
        nodes.setflags(write=False)
        values.setflags(write=False)

    @property
    def mass(self) -> float:
        return _trapezoid(self.values, self._spacing)


def _node_set(nodes: Union[np.ndarray, DensityGrid]
              ) -> Tuple[np.ndarray, np.ndarray]:
    """(nodes, spacing) of a node array, checked here, or of a grid, which
    checked them when it was built."""
    if isinstance(nodes, DensityGrid):
        return nodes.nodes, nodes._spacing
    nodes = np.asarray(nodes, dtype=float)
    return nodes, _node_spacing(nodes)


def _sorted_distinct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.unique(np.concatenate((a, b))) for two arrays made of a few sorted
    runs, which NumPy's stable sort (timsort, for floats) merges in linear
    time where np.unique's quicksort sorts from scratch."""
    both = np.concatenate((a, b))
    both.sort(kind="stable")
    keep = np.empty(both.shape, dtype=bool)
    keep[0] = True
    np.not_equal(both[1:], both[:-1], out=keep[1:])
    return both[keep]


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
    # one sorted run, or two where the wrap moves the part past the seam
    window = wrap_angle(window)
    ambient = np.linspace(-math.pi, math.pi, AMBIENT_NODES)
    return _sorted_distinct(ambient, window)


# A Gaussian lobe of std s sampled on a lattice of step h has trapezoid
# mass 1 + 2*sum_k exp(-2*pi^2*k^2*(s/h)^2)*cos(...); its leading term
# stays below NORMALIZATION_TOL only from s/h of about 0.857 on.
_MIN_SPREAD_STEPS = math.sqrt(math.log(2.0 / NORMALIZATION_TOL)
                              / (2.0 * math.pi**2))


def density_from_pdf(pdf: PolarPdf) -> DensityGrid:
    """Sample the closed-form phase density on its adapted node set; with no
    lobe (an infinite spread) the uniform density on the wide node set.

    wrap_angle computes a window node as (x + pi) - pi, so the nodes near
    the centre c fall on doubles about ulp(|c| + pi) apart (4.4e-16 rad at
    c = 0), however many the window asks for.  The node set ends at
    -fl(pi) and fl(pi), so no node samples the 2(pi - fl(pi)) rad across
    the seam.  A lobe whose grid fails its mass check raises OutOfRange
    naming the limit it hit: a spread below ``_MIN_SPREAD_STEPS`` of that
    step, or a window that reaches the seam."""
    if math.isinf(pdf.spread):
        return uniform_density_on(phase_nodes(NARROW_SPREAD))
    nodes = phase_nodes(pdf.spread, pdf.phi)
    values = pdf_value(pdf, nodes)
    try:
        return DensityGrid(nodes=nodes, values=values)
    except OutOfRange:
        c = abs(wrap_angle(pdf.phi))
        step = float(np.spacing(c + math.pi))
        if pdf.spread < _MIN_SPREAD_STEPS * step:
            limit = (f"is below the resolution of the phase nodes: near its "
                     f"centre they are doubles {step:.3g} rad apart, and a "
                     f"lobe narrower than {_MIN_SPREAD_STEPS:.3f} of that step")
        elif math.pi - c < U_LIMIT * pdf.spread:
            limit = (f"is centred {math.pi - c:.3g} rad from the seam at "
                     f"+-pi, where the phase nodes end at -fl(pi) and fl(pi), "
                     f"2.4e-16 rad apart, and a lobe this narrow that close")
        else:
            raise
    raise OutOfRange(
        f"lobe spread {float(pdf.spread)!r} rad {limit} cannot be sampled to "
        f"unit mass within {NORMALIZATION_TOL}")


def uniform_density_on(nodes: Union[np.ndarray, DensityGrid]) -> DensityGrid:
    """The uniform phase density sampled on a caller-supplied node set: a
    node array, or a grid whose node set the new grid shares."""
    nodes, spacing = _node_set(nodes)
    return DensityGrid(nodes=nodes,
                       values=np.full(nodes.shape, 1.0 / math.tau),
                       _spacing=spacing)


def gaussian_approximation(moments: TheoreticalMoments,
                           nodes: Union[np.ndarray, DensityGrid, None] = None
                           ) -> DensityGrid:
    """Small-error Gaussian approximation N(phi, (sigma/beta)^2) of the phase
    density, on `nodes` (a node array or a grid whose node set to share): by
    default the node set density_from_pdf uses, which a caller that already
    holds that density passes to skip rebuilding it.

    Distances to the center are wrapped to the principal interval and the
    samples are renormalized by their grid mass: for narrow lobes the factor
    differs from one by well under 1e-12, while for wide spreads it keeps the
    truncated Gaussian a valid density.
    """
    pdf = PolarPdf.from_moments(moments)
    spread = pdf.spread
    if math.isinf(spread):
        raise OutOfRange("beta_p = 0 leaves no lobe: the density is uniform "
                         "and has no Gaussian approximation")
    if nodes is None:
        nodes = phase_nodes(spread, pdf.phi)
    nodes, spacing = _node_set(nodes)
    z = wrap_angle(nodes - pdf.phi) / spread
    values = np.exp(-0.5 * z * z) / (math.sqrt(math.tau) * spread)
    values = values / _trapezoid(values, spacing)
    return DensityGrid(nodes=nodes, values=values, _spacing=spacing)


def _require_shared_nodes(p: DensityGrid, q: DensityGrid) -> None:
    if p.nodes is q.nodes:
        return
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
        mass = _trapezoid(np.where(bad, pv, 0.0), p._spacing)
        raise SupportMismatch(
            f"q vanishes on {int(np.count_nonzero(bad))} nodes carrying "
            f"p-mass {mass:.3e}",
            unsupported_mass=min(mass, 1.0),
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = pv * np.log(pv / qv)
    integrand[~has_p] = 0.0  # 0 log 0 = 0; those nodes gave nan or -inf
    return _trapezoid(integrand, p._spacing)


def bhattacharyya_distance(p: DensityGrid, q: DensityGrid) -> float:
    """Bhattacharyya distance -log integral sqrt(p q) on the shared grid."""
    _require_shared_nodes(p, q)
    coefficient = _trapezoid(np.sqrt(p.values * q.values), p._spacing)
    if coefficient <= 0.0:
        return math.inf
    return -math.log(coefficient)
