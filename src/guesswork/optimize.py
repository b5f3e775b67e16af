"""Deterministic scalar minimization: dense scan with golden-section refinement.

The scan pins down the global structure (the golden step alone is only
safe for unimodal objectives); the golden refinement sharpens the best
bracket.  The returned value never exceeds the raw scan minimum, so a
non-unimodal objective degrades gracefully to the scan answer.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo: float, hi: float, tol: float = 1e-12,
                   max_iter: int = 256) -> tuple:
    """Golden-section minimum of ``f`` on [lo, hi]; returns (x, f(x))."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol * (1.0 + abs(a) + abs(b)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def minimize_scan_golden(f, lo: float, hi: float, *, scan_points: int = 1024,
                         values=None, tol: float = 1e-12) -> tuple:
    """Scan ``f`` on a uniform grid, then golden-refine the winning bracket.

    ``values`` may supply ``f`` on the grid, evaluated in one batch by the
    caller; the grid then has ``len(values)`` points.  Ties keep the
    smallest abscissa.  Returns (x, value) for the better of the scan
    minimum and the refined point.
    """
    if hi < lo:
        raise ValueError("empty interval")
    if values is None:
        xs = np.linspace(lo, hi, max(int(scan_points), 2))
        values = np.array([f(float(x)) for x in xs])
    else:
        xs = np.linspace(lo, hi, len(values))
    i = int(np.argmin(values))
    best_x, best_val = float(xs[i]), float(values[i])
    left = float(xs[max(i - 1, 0)])
    right = float(xs[min(i + 1, xs.size - 1)])
    if right > left:
        gx, gval = golden_section(f, left, right, tol=tol)
        if gval < best_val:
            best_x, best_val = gx, gval
    return best_x, best_val
