"""Deterministic minimization of many scalar problems at once: a dense scan
with golden-section refinement run in lock-step.

The scan pins down the global structure (the golden step alone is only
safe for unimodal objectives); the golden refinement sharpens each
problem's best bracket.  Every problem has its own interval and a grid
of the same size, and each golden iteration evaluates the objective
once, on all the brackets still open, so the cost per iteration is one
batched call whatever the number of problems.  A returned value never
exceeds its scan minimum, so a non-unimodal objective degrades
gracefully to the scan answer.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_ITER = 256


def minimize_scan_golden(f, lo: float, hi, values, *, tol: float = 1e-12) -> tuple:
    """Minimize problems i = 0..m-1, problem i over [lo, hi[i]]; returns (x, value) arrays.

    ``hi`` is one end for every problem or an array of per-problem ends.
    ``values[i, j]`` is problem i's objective at the j-th point of the
    uniform grid of ``values.shape[1]`` points on [lo, hi[i]], evaluated by
    the caller in one batch; grid point j is ``j * step + lo`` with the
    last point exactly ``hi[i]``, the bits of ``np.linspace``.  ``f(x,
    rows)`` evaluates problem ``rows[i]`` at ``x[i]`` for every i.  Per
    problem, the scan minimum (ties keep the smallest abscissa) is
    golden-refined on the bracket of its two grid neighbours; a bracket
    closes once b - a <= tol (1 + |a| + |b|) or after 256 steps, and the
    refined point replaces the scan minimum only where its value is
    smaller.
    """
    values = np.asarray(values, dtype=float)
    m, num = values.shape
    hi = np.asarray(hi, dtype=float)
    if np.any(hi < lo):
        raise ValueError("empty interval")
    i = np.argmin(values, axis=1)
    best_val = values[np.arange(m), i]
    # the scan minimum and its neighbours on np.linspace(lo, hi, num), without the grid
    j = np.stack([i, np.maximum(i - 1, 0), np.minimum(i + 1, num - 1)])
    step = (hi - lo) / max(num - 1, 1)
    best_x, a, b = np.where((j == num - 1) & (num > 1), hi, j * step + lo)
    rows = np.flatnonzero(b > a)
    if rows.size == 0:
        return best_x, best_val
    a, b = a[rows], b[rows]
    # each open bracket [a, b] carries its interior points c < d and their values
    width = b - a
    c, d = b - _INVPHI * width, a + _INVPHI * width
    fc, fd = np.split(f(np.concatenate([c, d]), np.concatenate([rows, rows])), 2)
    end_a, end_b = a.copy(), b.copy()
    live, live_rows = np.arange(rows.size), rows
    for _ in range(_MAX_ITER):
        open_ = width > tol * (1.0 + np.abs(a) + np.abs(b))
        if not open_.all():
            end_a[live[~open_]], end_b[live[~open_]] = a[~open_], b[~open_]
            live, live_rows, a, b, c, d, fc, fd = (
                v[open_] for v in (live, live_rows, a, b, c, d, fc, fd))
            if live.size == 0:
                break
        low = fc <= fd
        # the minimum lies in [a, d] where fc <= fd, and c becomes its upper
        # interior point; else it lies in [c, b] and d becomes the lower one
        a, b = np.where(low, a, c), np.where(low, d, b)
        width = b - a
        step = _INVPHI * width
        new = np.where(low, b - step, a + step)
        f_new = f(new, live_rows)
        c, d = np.where(low, new, d), np.where(low, c, new)
        fc, fd = np.where(low, f_new, fd), np.where(low, fc, f_new)
    end_a[live], end_b[live] = a, b
    gx = 0.5 * (end_a + end_b)
    gval = f(gx, rows)
    better = gval < best_val[rows]
    best_x[rows[better]], best_val[rows[better]] = gx[better], gval[better]
    return best_x, best_val
