"""Adaptive quadrature on an embedded Gauss(7)/Gauss(15) pair.

The integration strategy mirrors the classic embedded-rule adaptive scheme:
each panel is scored by the disagreement between a 7-point and a 15-point
Gauss-Legendre rule, and the worst panel is bisected until the summed panel
errors meet tolerance or the panel budget runs out
(:class:`QuadratureNonConvergence`).  A panel with a NaN error counts as
the worst and is bisected first: a removable 0/0 at its midpoint node
becomes an endpoint of both halves, which no node touches.  A half that
is NaN again ends the integral with a QuadratureNonConvergence that names
the NaN.

:func:`integrate` runs one integral, or many in lockstep (cf. Shampine's
vectorized ``quadgk``, J. Comput. Appl. Math. 211, 2008).  Panels are
evaluated in batches: one integrand call for all the seed panels of every
integral, then one call per refinement round, holding the halves of each
unfinished integral's worst panel together with those of its next few
worst.  Each integral keeps its own panels, cache of evaluated halves and
stopping test, so it ends with the bits it has alone.

Integrands must be element-wise and pure: the value at a point must not
depend on the other points of the call or on earlier calls, since a call
mixes the panels of several integrals and some of its evaluations are
speculative and never enter a sum.  For one integral the integrand takes
the 1-D array of abscissae, ``f(x)``.  For integrals in lockstep it takes
one argument, the pair ``(x, owner)``: ``owner`` is an int array as long
as ``x`` giving the index of the integral each abscissa belongs to.  One
argument, not two, so that a wrapper that counts or times integrand calls
passes it on unchanged.  Either way f returns an array shaped like ``x``.

The Gauss sums of all the panels of one call are one stacked product,
``np.matmul(y[:, None, :15], w[:, None])``: a stack of 1x15 by 15x1
products, which NumPy evaluates with the dtype's 1-D dot on each row, so
each sum has the bits of ``row @ w`` for that row alone.  The plain
matrix-vector product ``y[:, :15] @ w`` (and ``einsum``) goes through
gemv, which sums in another order and differs in the last bits on about
two rows in three.  ``np.vecdot`` does the same as the stacked product but
needs NumPy 2.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from typing import Callable, List, Sequence, Union

import numpy as np

from .errors import OutOfRange, QuadratureNonConvergence


def _symmetric_rule(nodes: Sequence[str], weights: Sequence[str]):
    """(x, w) of a symmetric rule from exact hex literals of its
    non-negative nodes and their weights, centre first."""
    x = np.array([float.fromhex(v) for v in nodes])
    w = np.array([float.fromhex(v) for v in weights])
    return np.concatenate((-x[:0:-1], x)), np.concatenate((w[:0:-1], w))


# Gauss-Legendre rules, bit for bit scipy.special.roots_legendre(7) and (15),
# whose outputs are exactly symmetric.  Literals spare every start-up the
# eigenvalue solve and the scipy.linalg import behind it.
_X7, _W7 = _symmetric_rule(
    ("0x0.0p+0", "0x1.9f95df119fd62p-2", "0x1.7ba9f9be3a1d6p-1",
     "0x1.e5f178e7c6228p-1"),
    ("0x1.abfd7e03c2fa1p-2", "0x1.86fe74ee32b3ap-2", "0x1.1e6b1713d8643p-2",
     "0x1.092f69f826d5fp-3"))
_X15, _W15 = _symmetric_rule(
    ("0x0.0p+0", "0x1.9c0ba62ef04b6p-3", "0x1.939c69257d6b6p-2",
     "0x1.245676f08f3a4p-1", "0x1.72e6e181ab3c4p-1", "0x1.b248221fffd63p-1",
     "0x1.dfe24c4f8b448p-1", "0x1.f9da27c32e6d0p-1"),
    ("0x1.9ee1575f9c983p-3", "0x1.96633f1fd02d0p-3", "0x1.7d41fa76dc268p-3",
     "0x1.5484f30a86ed8p-3", "0x1.1dd73b4963161p-3", "0x1.b6ec9635f1139p-4",
     "0x1.2038260b5cfe0p-4", "0x1.f7dc7227a2a1ap-6"))


# Panels whose children one refinement call evaluates: the worst panel's
# and, speculatively, those of the next worst that have none yet.  Measured
# on 2 cores (NumPy 2.4) over the 60-op analytic_sweep pass at seed 12,
# medians of 15 interleaved passes, time relative to a look-ahead of 1:
# 2 0.894, 4 0.879, 8 0.876, 16 0.891.  Integrand calls per integral:
# 8.8 at 1, 5.3 at 2, 3.8 at 4, 3.7 at 8 and 16 (19.7 at one panel a call).
_LOOKAHEAD = 8
_ABS_TOL = 1e-14     # error floor, which ends an integral of zero
_MAX_PANELS = 2000   # panel budget (QuadratureNonConvergence past it)
_X = np.concatenate((_X15, _X7))


def _panels(f, bounds, owners):
    """Gauss 7/15 panels (a, b, integral, error) on every (a, b) of
    `bounds`, the k-th belonging to integral owners[k], from one call of f
    on all their abscissae."""
    lo, hi = zip(*bounds)
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = (mid[:, None] + half[:, None] * _X).ravel()
    y = np.asarray(f((x, np.repeat(owners, _X.size))), dtype=float)
    if y.shape != x.shape:
        raise OutOfRange("integrand must be vectorized (same output shape)")
    y = y.reshape(len(bounds), _X.size)
    i15 = half * np.matmul(y[:, None, :15], _W15[:, None]).ravel()
    i7 = half * np.matmul(y[:, None, 15:], _W7[:, None]).ravel()
    return list(zip(lo, hi, i15.tolist(), np.abs(i15 - i7).tolist()))


def _refine(panels, children, nan_halves, rel_tol):
    """Refine one integral until it ends or needs new panels evaluated.

    Returns its value, the QuadratureNonConvergence it ran into, or the
    list of (lo, hi) panels to split: the worst, already popped from
    `panels`, and the next worst that have no halves in `children` yet.
    The sums and the worst pick are builtin scans over the whole list;
    the worst is the first NaN error, else the first of equal errors.  The
    halves of a NaN panel go in the set `nan_halves`; picking one of them
    ends the integral."""
    value, error = itemgetter(2), itemgetter(3)
    while True:
        try:
            total = math.fsum(map(value, panels))
        except ValueError:  # inf - inf: the NaN test below ends it
            total = math.nan
        errs = list(map(error, panels))
        err = math.fsum(errs)
        if err <= max(_ABS_TOL, rel_tol * abs(total)):
            return total
        if len(panels) >= _MAX_PANELS:
            return QuadratureNonConvergence(
                f"panel budget {_MAX_PANELS} exhausted: estimated error "
                f"{err:.3e} on integral {total:.6e}",
                best_estimate=total,
                error_estimate=err,
            )
        if math.isnan(err):
            lo, hi, _, _ = panels.pop(next(
                i for i, e in enumerate(errs) if math.isnan(e)))
            if (lo, hi) in nan_halves:
                return QuadratureNonConvergence(
                    f"NaN error on [{lo!r}, {hi!r}] and on the panel it "
                    f"halves: the integrand returns NaN or inf there",
                    best_estimate=total,
                    error_estimate=err,
                )
            mid = 0.5 * (lo + hi)
            nan_halves.update(((lo, mid), (mid, hi)))
        else:
            lo, hi, _, _ = panels.pop(errs.index(max(errs)))
        if (lo, hi) in children:
            panels.extend(children.pop((lo, hi)))
            continue
        ahead = heapq.nlargest(
            _LOOKAHEAD - 1, (p for p in panels if p[:2] not in children),
            key=error)
        return [(lo, hi)] + [p[:2] for p in ahead]


def _lockstep(f, problems, rel_tol):
    """Value or QuadratureNonConvergence of each (a, b, breakpoints) of
    `problems`, all refined in lockstep; f takes (x, owner)."""
    results = [None] * len(problems)
    seeds, owners = [], []
    for k, (a, b, breakpoints) in enumerate(problems):
        if not (b > a):
            if a != b:
                raise OutOfRange(f"need b > a, got [{a}, {b}]")
            results[k] = 0.0
            continue
        edges = sorted({float(a), float(b),
                        *(float(p) for p in breakpoints if a < p < b)})
        seeds += zip(edges[:-1], edges[1:])
        owners += [k] * (len(edges) - 1)
    panels = {k: [] for k in dict.fromkeys(owners)}
    children = {k: {} for k in panels}  # (lo, hi) -> its halves, once evaluated
    nan_halves = {k: set() for k in panels}
    if seeds:
        for k, panel in zip(owners, _panels(f, seeds, owners)):
            panels[k].append(panel)
    while panels:
        splits = {}
        for k in list(panels):
            step = _refine(panels[k], children[k], nan_halves[k], rel_tol)
            if isinstance(step, list):
                splits[k] = step
            else:
                results[k] = step
                del panels[k], children[k], nan_halves[k]
        if not splits:
            break
        bounds, owners = [], []
        for k, split in splits.items():
            for lo, hi in split:
                mid = 0.5 * (lo + hi)
                bounds += ((lo, mid), (mid, hi))
            owners += [k] * (2 * len(split))
        halves = iter(_panels(f, bounds, owners))
        pairs = zip(halves, halves)
        for k, split in splits.items():
            children[k].update(zip(split, pairs))
            panels[k].extend(children[k].pop(split[0]))
    return results


def integrate(
    f: Callable,
    a: Union[float, Sequence[float]],
    b: Union[float, Sequence[float]],
    *,
    rel_tol: float = 1e-10,
    breakpoints: Sequence = (),
) -> Union[float, List[Union[float, QuadratureNonConvergence]]]:
    """Integrate f over [a, b] to the requested tolerance.

    `breakpoints` seeds the initial panel boundaries (useful to bracket a
    narrow feature so the first error estimates already see it).  The
    tolerance test is  sum(panel errors) <= max(_ABS_TOL, rel_tol*|integral|).
    With numbers a and b, f is f(x), the result is a float and a budget
    overrun raises QuadratureNonConvergence.

    With equal-length sequences a and b, it runs one integral per (a[k],
    b[k]) in lockstep, `breakpoints` (if given) holds one sequence per
    integral, f is f((x, owner)) (see the module docstring), and the result
    is a list holding, per integral, its value or the
    QuadratureNonConvergence it ran into.

    Either way each integral has the bits that evaluating one panel per
    integrand call would give it.
    """
    if np.ndim(a) == 0:
        (result,) = _lockstep(lambda points: f(points[0]),
                              [(a, b, breakpoints)], rel_tol)
        if isinstance(result, QuadratureNonConvergence):
            raise result
        return result
    breakpoints = breakpoints or [()] * len(a)
    if not (len(a) == len(b) == len(breakpoints)):
        raise OutOfRange("need as many b and breakpoints as a")
    return _lockstep(f, list(zip(a, b, breakpoints)), rel_tol)
