"""Adaptive quadrature on an embedded Gauss(7)/Gauss(15) pair.

The integration strategy mirrors the classic embedded-rule adaptive scheme:
each panel is scored by the disagreement between a 7-point and a 15-point
Gauss-Legendre rule, and the worst panel is bisected until the summed panel
errors meet tolerance or the panel budget runs out
(:class:`QuadratureNonConvergence`).

Integrands must accept a 1-D numpy array of abscissae and return values of
the same shape.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

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


def _panel(f, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = np.concatenate((mid + half * _X15, mid + half * _X7))
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise OutOfRange("integrand must be vectorized (same output shape)")
    i15 = half * float(y[:15] @ _W15)
    i7 = half * float(y[15:] @ _W7)
    return (a, b, i15, abs(i15 - i7))


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-14,
    max_panels: int = 2000,
    breakpoints: Sequence[float] = (),
) -> float:
    """Integrate f over [a, b] to the requested tolerance.

    `breakpoints` seeds the initial panel boundaries (useful to bracket a
    narrow feature so the first error estimates already see it).  The
    tolerance test is  sum(panel errors) <= max(abs_tol, rel_tol*|integral|).
    """
    if not (b > a):
        if a == b:
            return 0.0
        raise OutOfRange(f"need b > a, got [{a}, {b}]")

    edges = sorted({float(a), float(b), *(float(p) for p in breakpoints if a < p < b)})
    panels = [_panel(f, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]

    while True:
        total = math.fsum(p[2] for p in panels)
        err = math.fsum(p[3] for p in panels)
        if err <= max(abs_tol, rel_tol * abs(total)):
            return total
        if len(panels) >= max_panels:
            raise QuadratureNonConvergence(
                f"panel budget {max_panels} exhausted: estimated error "
                f"{err:.3e} on integral {total:.6e}",
                best_estimate=total,
                error_estimate=err,
            )
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        lo, hi, _, _ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        panels.append(_panel(f, lo, mid))
        panels.append(_panel(f, mid, hi))
