"""Deterministic root finding for many increasing scalar problems at once.

Each problem has its own bracket [a, b] with g(a) < 0 < g(b), and all of
them run the Illinois variant of regula falsi in lock-step: each step
evaluates g once, in one batched call, on every bracket still open, so
the cost per step is one call whatever the number of problems.  Regula
falsi moves to the root of the chord through the two ends; Illinois
halves the value kept at an end that survives two steps in a row, so
both ends close in on the root (superlinearly on smooth g) where plain
regula falsi would leave one end fixed.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

_MAX_STEPS = 100
_TOL = 1e-12


def bracketed_roots(g, a, b, ga, gb) -> np.ndarray:
    """Roots x[i] of problems i = 0..m-1, problem i increasing on [a[i], b[i]].

    ``ga`` and ``gb`` hold each problem's values at its ends, ga < 0 < gb.
    ``g(x, rows)`` evaluates problem ``rows[i]`` at ``x[i]`` for every i.
    A bracket closes once b - a <= 1e-12 (1 + |a| + |b|) or g hits zero, and
    its root is where the chord through its ends and their true (not
    halved) values crosses zero, far closer than either end where g is
    steep.  Each problem's steps depend only on its own values, so its
    root does not depend on the batch.  A bracket still open after 100
    steps raises :class:`NumericError`.
    """
    a, b, ga, gb = (np.array(v, dtype=float).ravel() for v in (a, b, ga, gb))
    x = a.copy()
    live = np.arange(a.size)
    fa, fb = ga.copy(), gb.copy()  # g at the ends, never halved
    # +1 when a problem's last step moved b, -1 when it moved a
    side = np.zeros(a.size)
    for step in range(_MAX_STEPS + 1):
        open_ = b - a > _TOL * (1.0 + np.abs(a) + np.abs(b))
        if not open_.all():
            # fa = fb = 0 only where g hit zero, and there a = b
            chord = b - fb * (b - a) / np.where(fb > fa, fb - fa, 1.0)
            x[live[~open_]] = chord[~open_]
            live, a, b, ga, gb, fa, fb, side = (
                v[open_] for v in (live, a, b, ga, gb, fa, fb, side))
        if live.size == 0:
            return x
        if step == _MAX_STEPS:
            raise NumericError(
                f"{live.size} root brackets still open after {_MAX_STEPS} steps")
        new = b - gb * (b - a) / (gb - ga)
        g_new = g(new, live)
        below = g_new < 0.0
        # an end that survives a second step in a row has its value halved
        ga = np.where(below, g_new, np.where(side > 0.0, 0.5 * ga, ga))
        gb = np.where(below, np.where(side < 0.0, 0.5 * gb, gb), g_new)
        # g = 0 moves both ends, which closes the bracket
        to_a, to_b = g_new <= 0.0, g_new >= 0.0
        a, b = np.where(to_a, new, a), np.where(to_b, new, b)
        fa, fb = np.where(to_a, g_new, fa), np.where(to_b, g_new, fb)
        side = np.where(below, -1.0, 1.0)
