"""Scalar bracketing optimizers shared by the rate and geometry searches."""

from __future__ import annotations

import math

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, tol: float,
                       max_iter: int = 200):
    """Maximize ``f`` on [lo, hi] by golden-section search.

    ``tol`` is the absolute interval width at which the search stops.  The
    function is assumed unimodal on the bracket; callers locate the bracket
    with a coarse grid first because the objectives here carry interference
    ripples and a pure local search is not trustworthy on its own.
    """
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    if fc >= fd:
        return c, fc
    return d, fd


def grid_then_golden_max(f, grid, tol: float, values=None):
    """Coarse grid argmax refined by golden section between its neighbors.

    ``values`` are ``f`` on ``grid``, when the caller already has them (for
    instance from one vectorized evaluation).  Ties go to the first grid
    point, and the grid point wins if the refinement does not beat it.
    """
    if values is None:
        values = [f(x) for x in grid]
    i = max(range(len(grid)), key=values.__getitem__)
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    if hi <= lo:
        return grid[i], values[i]
    x, fx = golden_section_max(f, lo, hi, tol)
    if values[i] > fx:
        return grid[i], values[i]
    return x, fx
