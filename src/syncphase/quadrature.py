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
from scipy.special import roots_legendre

from .errors import OutOfRange, QuadratureNonConvergence

_X7, _W7 = roots_legendre(7)
_X15, _W15 = roots_legendre(15)


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
