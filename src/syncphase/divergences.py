"""Divergences between phase-estimate densities on shared grids.

Densities are carried as trapezoid-normalized samples on a strictly
increasing node set (:class:`DensityGrid`).  For the smooth periodic
densities used here the trapezoid rule on a uniform grid is spectrally
accurate, so 2^15+1 nodes put grid error far below the divergence tolerances;
narrow lobes get a dedicated dense window merged into a coarse ambient grid
(the ambient component is constant, where the trapezoid rule is exact).

Node-length scratch arrays come from a workspace of six float and three
bool arrays of ``DENSE_NODES + AMBIENT_NODES`` entries (1.7 MB), taken from
the free list ``_WORKSPACES`` for one call and put back when the call ends,
also when it raises, so concurrent calls never share one.  The workspaces
are kept for the process.  A divergence cell (:func:`divergence_row`)
computes its spacing, densities and divergences in one workspace; built
from fresh arrays, about ten per cell, their pages went back to the OS
after each cell and were faulted in again by the next, about 2,100 minor
page faults per three-cell ``divergence`` call.  A call writes every
workspace entry it reads, so what another call left there changes no bit.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from .errors import LengthMismatch, OutOfRange, SupportMismatch
from .phase_pdf import (NARROW_SPREAD, U_LIMIT, PolarPdf, pdf_value,
                        pdf_value_into, wrap_angle)
from .spectral_estimator import TheoreticalMoments

DENSE_NODES = 2**15 + 1   # lobe / uniform-grid resolution
AMBIENT_NODES = 2**10 + 1 # coarse carrier for the constant ambient region
NORMALIZATION_TOL = 1e-6

# Entries of a workspace array: the most nodes a phase node set holds.
_WORKSPACE_NODES = DENSE_NODES + AMBIENT_NODES
# Free workspaces, kept for the process.  A call pops one (or allocates one
# if none is free) and appends it back when it ends; both are atomic under
# the GIL, so the list never holds more workspaces than calls ran at once.
_WORKSPACES: list = []
_AMBIENT = np.linspace(-math.pi, math.pi, AMBIENT_NODES)
_NO_LOBE = ("beta_p = 0 leaves no lobe: the density is uniform and has no "
            "Gaussian approximation")


def _new_workspace(size: int):
    return ([np.empty(size) for _ in range(6)],
            [np.empty(size, dtype=bool) for _ in range(3)])


@contextlib.contextmanager
def _workspace(n: int):
    """(floats, bools): six float and three bool scratch arrays of n
    entries, views of a pooled workspace where n fits one (module
    docstring), else allocated."""
    pooled = n <= _WORKSPACE_NODES
    if pooled:
        try:
            workspace = _WORKSPACES.pop()
        except IndexError:
            workspace = _new_workspace(_WORKSPACE_NODES)
    else:
        workspace = _new_workspace(n)
    try:
        floats, bools = workspace
        yield [a[:n] for a in floats], [a[:n] for a in bools]
    finally:
        if pooled:
            _WORKSPACES.append(workspace)


def _trapezoid(y: np.ndarray, spacing: np.ndarray, work=None) -> float:
    """np.trapezoid(y, x) from spacing = np.diff(x), in its own expression
    and so with its bits; the node set's one np.diff serves every integral
    on it.  The terms go to `work` (a float array at least spacing's
    length), or to a fresh array."""
    terms = np.add(y[1:], y[:-1],
                   out=None if work is None else work[:spacing.shape[0]])
    np.multiply(spacing, terms, out=terms)
    np.divide(terms, 2.0, out=terms)
    return float(terms.sum())


def _node_spacing(nodes: np.ndarray, out=None, mask=None) -> np.ndarray:
    """np.diff of a node set, checked: at least two finite, strictly
    increasing nodes.  Written to `out`, with `mask` a bool scratch array
    (both of the spacing's length), or else to a read-only fresh array."""
    if nodes.ndim != 1:
        raise OutOfRange("nodes must be 1-D")
    if nodes.shape[0] < 2:
        raise OutOfRange("need at least two nodes")
    spacing = np.subtract(nodes[1:], nodes[:-1], out=out)
    # all steps positive and both ends finite: then every node is finite
    if not (np.greater(spacing, 0.0, out=mask).all()
            and math.isfinite(nodes[0]) and math.isfinite(nodes[-1])):
        if not np.all(np.isfinite(nodes)):
            raise OutOfRange("nodes must be finite")
        raise OutOfRange("nodes must be strictly increasing")
    if out is None:
        spacing.setflags(write=False)
    return spacing


def _check_density(values: np.ndarray, spacing: np.ndarray,
                   work: np.ndarray, mask: np.ndarray) -> None:
    """A grid's value checks: finite, non-negative, unit trapezoid mass
    within NORMALIZATION_TOL.  `work` and `mask` are float and bool scratch
    arrays of values' length."""
    finite = np.isfinite(values, out=mask)
    if not finite.all() or np.less(values, 0.0, out=finite).any():
        raise OutOfRange("density values must be finite and non-negative")
    mass = _trapezoid(values, spacing, work)
    if abs(mass - 1.0) > NORMALIZATION_TOL:
        raise OutOfRange(
            f"density mass {mass!r} deviates from 1 by more than "
            f"{NORMALIZATION_TOL}"
        )


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
        with _workspace(values.shape[0]) as (floats, bools):
            _check_density(values, self._spacing, floats[0], bools[0])
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


def _sorted_distinct(a: np.ndarray, b: np.ndarray, out=None,
                     keep=None) -> np.ndarray:
    """np.unique(np.concatenate((a, b))) for two arrays made of a few sorted
    runs, which NumPy's stable sort (timsort, for floats) merges in linear
    time where np.unique's quicksort sorts from scratch.  The concatenation
    goes to `out` and the mask to `keep` (float and bool arrays of
    a.size + b.size entries), or to fresh arrays."""
    both = np.concatenate((a, b), out=out)
    both.sort(kind="stable")
    if keep is None:
        keep = np.empty(both.shape, dtype=bool)
    keep[0] = True
    np.not_equal(both[1:], both[:-1], out=keep[1:])
    return both[keep]


@functools.lru_cache(maxsize=1)
def _ramp() -> np.ndarray:
    """np.linspace's ramp for DENSE_NODES points, made on first use: a
    process that builds no window (an MC run) does not hold it."""
    return np.arange(DENSE_NODES, dtype=float)


def _linspace(start: float, stop: float, out: np.ndarray) -> np.ndarray:
    """np.linspace(start, stop, out.size), with its bits, written to `out`
    (2 to DENSE_NODES entries)."""
    div = out.shape[0] - 1
    ramp = _ramp()[:div + 1]
    step = (stop - start) / div
    if step == 0.0:  # np.linspace's order for a step that underflows
        np.multiply(np.divide(ramp, div, out=out), stop - start, out=out)
    else:
        np.multiply(ramp, step, out=out)
    out += start
    out[-1] = stop
    return out


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
    with _workspace(_WORKSPACE_NODES) as (floats, bools):
        window = _linspace(c - half_width, c + half_width,
                           floats[1][:DENSE_NODES])
        # one sorted run, or two where the wrap moves the part past the seam
        wrap_angle(window, out=window)
        return _sorted_distinct(_AMBIENT, window, floats[0], bools[0])


# A Gaussian lobe of std s sampled on a lattice of step h has trapezoid
# mass 1 + 2*sum_k exp(-2*pi^2*k^2*(s/h)^2)*cos(...); its leading term
# stays below NORMALIZATION_TOL only from s/h of about 0.857 on.
_MIN_SPREAD_STEPS = math.sqrt(math.log(2.0 / NORMALIZATION_TOL)
                              / (2.0 * math.pi**2))


def _lobe_error(pdf: PolarPdf, error: OutOfRange) -> OutOfRange:
    """The error a lobe whose grid failed a check raises: one naming the
    limit it hit (see :func:`density_from_pdf`), or else `error`."""
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
        return error
    return OutOfRange(
        f"lobe spread {float(pdf.spread)!r} rad {limit} cannot be sampled to "
        f"unit mass within {NORMALIZATION_TOL}")


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
    except OutOfRange as exc:
        raise _lobe_error(pdf, exc) from None


def uniform_density_on(nodes: Union[np.ndarray, DensityGrid]) -> DensityGrid:
    """The uniform phase density sampled on a caller-supplied node set: a
    node array, or a grid whose node set the new grid shares."""
    nodes, spacing = _node_set(nodes)
    return DensityGrid(nodes=nodes,
                       values=np.full(nodes.shape, 1.0 / math.tau),
                       _spacing=spacing)


def _gaussian(pdf: PolarPdf, nodes: np.ndarray, spacing: np.ndarray,
              out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """gaussian_approximation's values on `nodes`, written to `out`, with
    `work` a float scratch array of nodes' length."""
    spread = pdf.spread
    z = wrap_angle(np.subtract(nodes, pdf.phi, out=out), out=out)
    np.divide(z, spread, out=z)
    values = np.multiply(z, -0.5, out=work)
    np.multiply(values, z, out=values)
    np.exp(values, out=values)
    np.divide(values, math.sqrt(math.tau) * spread, out=values)
    mass = _trapezoid(values, spacing, out)  # z is spent
    return np.divide(values, mass, out=out)


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
    if math.isinf(pdf.spread):
        raise OutOfRange(_NO_LOBE)
    if nodes is None:
        nodes = phase_nodes(pdf.spread, pdf.phi)
    nodes, spacing = _node_set(nodes)
    values = np.empty(nodes.shape)
    with _workspace(nodes.shape[0]) as (floats, _):
        _gaussian(pdf, nodes, spacing, values, floats[0])
    return DensityGrid(nodes=nodes, values=values, _spacing=spacing)


def _require_shared_nodes(p: DensityGrid, q: DensityGrid) -> None:
    if p.nodes is q.nodes:
        return
    if p.nodes.shape != q.nodes.shape or not np.array_equal(p.nodes, q.nodes):
        raise LengthMismatch("divergence inputs must share an identical node set")


def _kl(pv: np.ndarray, qv: np.ndarray, spacing: np.ndarray, work) -> float:
    """kl_divergence of the values pv and qv, with `work` two float and two
    bool scratch arrays of their length."""
    (integrand, terms), (has_p, bad) = work
    np.greater(pv, 0.0, out=has_p)
    np.logical_and(np.equal(qv, 0.0, out=bad), has_p, out=bad)
    if bad.any():
        integrand.fill(0.0)
        np.copyto(integrand, pv, where=bad)
        mass = _trapezoid(integrand, spacing, terms)
        raise SupportMismatch(
            f"q vanishes on {int(np.count_nonzero(bad))} nodes carrying "
            f"p-mass {mass:.3e}",
            unsupported_mass=min(mass, 1.0),
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(pv, qv, out=integrand)
        np.log(integrand, out=integrand)
        np.multiply(pv, integrand, out=integrand)
    # 0 log 0 = 0; those nodes gave nan or -inf
    np.copyto(integrand, 0.0, where=np.logical_not(has_p, out=bad))
    return _trapezoid(integrand, spacing, terms)


def kl_divergence(p: DensityGrid, q: DensityGrid) -> float:
    """Kullback-Leibler divergence integral p log(p/q) on the shared grid.

    Raises SupportMismatch when q vanishes on nodes where p carries mass;
    the exception records the offending fraction of p's mass.
    """
    _require_shared_nodes(p, q)
    with _workspace(p.nodes.shape[0]) as (floats, bools):
        return _kl(p.values, q.values, p._spacing, (floats[:2], bools[:2]))


def _bhattacharyya(pv: np.ndarray, qv: np.ndarray, spacing: np.ndarray,
                   work) -> float:
    """bhattacharyya_distance of the values pv and qv, with `work` two
    float scratch arrays of their length."""
    root, terms = work
    np.sqrt(np.multiply(pv, qv, out=root), out=root)
    coefficient = _trapezoid(root, spacing, terms)
    if coefficient <= 0.0:
        return math.inf
    return -math.log(coefficient)


def bhattacharyya_distance(p: DensityGrid, q: DensityGrid) -> float:
    """Bhattacharyya distance -log integral sqrt(p q) on the shared grid."""
    _require_shared_nodes(p, q)
    with _workspace(p.nodes.shape[0]) as (floats, _):
        return _bhattacharyya(p.values, q.values, p._spacing, floats[:2])


def divergence_row(moments: TheoreticalMoments
                   ) -> Tuple[float, float, Optional[float]]:
    """The divergences of one density from its limits: KL to the uniform
    density, the Bhattacharyya distance to the Gaussian approximation, and
    KL to it, or None where it vanishes on nodes carrying p-mass
    (SupportMismatch).  With p = density_from_pdf(pdf) and
    q = gaussian_approximation(moments, p), these are
    kl_divergence(p, uniform_density_on(p)), bhattacharyya_distance(p, q)
    and kl_divergence(p, q), with their bits and their checks in their
    order, computed in one workspace (module docstring): the node set and
    np.compress's index arrays are all a cell allocates.  A density with no
    lobe (beta_p = 0) raises OutOfRange, as gaussian_approximation does."""
    pdf = PolarPdf.from_moments(moments)
    if math.isinf(pdf.spread):
        raise OutOfRange(_NO_LOBE)
    nodes = phase_nodes(pdf.spread, pdf.phi)
    n = nodes.shape[0]
    with _workspace(n) as (floats, bools):
        steps, p, q, u, a, b = floats
        pdf_value_into(pdf, nodes, p, ((q, u, a, b), bools))
        try:
            spacing = _node_spacing(nodes, steps[:n - 1], bools[0][:n - 1])
            _check_density(p, spacing, a, bools[0])
        except OutOfRange as exc:
            raise _lobe_error(pdf, exc) from None
        _check_density(_gaussian(pdf, nodes, spacing, q, a), spacing, a,
                       bools[0])
        u.fill(1.0 / math.tau)
        _check_density(u, spacing, a, bools[0])
        work = ((a, b), bools[:2])
        kl_uniform = _kl(p, u, spacing, work)
        bhat = _bhattacharyya(p, q, spacing, (a, b))
        try:
            kl_gauss = _kl(p, q, spacing, work)
        except SupportMismatch:
            kl_gauss = None
    return kl_uniform, bhat, kl_gauss
