"""Scalar bracketing optimizers shared by the rate and geometry searches."""

from __future__ import annotations

import math

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, tol: float,
                       max_iter: int = 200):
    """Maximize ``f`` on [lo, hi] by golden-section search.

    ``tol`` is the absolute interval width at which the search stops.  The
    function is assumed unimodal on the bracket, which
    :func:`refine_grid_point` takes from a coarse grid.
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


def refine_grid_point(f, grid, i: int, value: float, tol: float):
    """Refine the grid point ``grid[i]``, where ``f`` is ``value``, by golden
    section between its neighbors.

    The grid point wins if it beats the golden point.  The callers pick
    ``i`` from a coarse scan of ``grid``: Eve's collected share kappa
    carries interference ripples over her position, so a pure local search
    is not trustworthy alone.
    """
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    if hi <= lo:
        return grid[i], value
    x, fx = golden_section_max(f, lo, hi, tol)
    if value > fx:
        return grid[i], value
    return x, fx
