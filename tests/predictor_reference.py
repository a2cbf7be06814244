"""Closed-form predictor of the optimal eavesdropping distance, kept for the
tests.

For small radial offsets the on-axis field behind Bob factors as
``E0 (W0/W) f1 f2``, with W and R taken at L_AB:

* f1 = 1/sqrt((A/B)^2 + (1 - C/B)^2) is the refocusing factor.  Its argmax
  is L_AB exactly, at every link length.
* f2 = |e^{z Dc} - e^{z r_b^2}|, with z = A + i(B - C) and Dc = 9 W^2, is
  the crop factor.  Its first term is the e^{-9} left by cutting the source
  off at 3W.  Over L_BE from 0.05 to 20 L_AB, f2 varies by only 2.6e-4 to
  3.0e-4 relative (L_AB 40, 60 and 100 km, W0 = r_b = 10 cm, 1550 nm), so
  "argmax f2" is the peak of that e^{-9} ripple and not a feature of the
  physical field.  ``test_predictor_f2_branch_formula_100km`` pins it.

Nothing in the CLI or the recipes calls the predictor; the tests keep it as
an independent closed form to check the diffraction pipeline against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fsoqkd.beams import BeamParams, plane_params
from fsoqkd.optimize import refine_grid_point


class DegenerateGeometryError(ValueError):
    """Integration-limit constant does not exceed the crop radius squared."""


@dataclass(frozen=True)
class AnalyticPredictor:
    """Constants of the small-offset field magnitude factorization.

    For small radial offsets the on-axis diffracted magnitude factors as
    ``E0 (W0/W) f1 f2`` with ``f1 = 1/sqrt((A/B)^2 + (1 - C/B)^2)`` and
    ``f2 = |exp((A + i(B-C)) Dc) - exp((A + i(B-C)) rb^2)|`` where
    A = -1/W^2(L_AB), B = k/(2 L_BE), C = k/(2 R(L_AB)), Dc = 9 W^2(L_AB).
    """

    link_distance: float
    beam: BeamParams
    crop_radius: float

    def constants(self, bob_eve_distance: float):
        plane = plane_params(self.beam, self.link_distance)
        k = self.beam.wavenumber
        a = -1.0 / plane.spot_size ** 2
        b = k / (2.0 * bob_eve_distance)
        c = k / (2.0 * plane.curvature_radius)
        dc = 9.0 * plane.spot_size ** 2
        return a, b, c, dc

    def magnitude(self, bob_eve_distance: float) -> float:
        """Predicted on-axis |field| at the observation plane."""
        a, b, c, dc = self.constants(bob_eve_distance)
        plane = plane_params(self.beam, self.link_distance)
        f1 = 1.0 / math.sqrt((a / b) ** 2 + (1.0 - c / b) ** 2)
        z = complex(a, b - c)
        f2 = abs(np.exp(z * dc) - np.exp(z * self.crop_radius ** 2))
        return (self.beam.field_peak * self.beam.waist_radius
                / plane.spot_size * f1 * f2)


def analytic_f1_f2(pred: AnalyticPredictor, branch: int = 0):
    """Closed-form argmax distances of the two magnitude factors.

    Returns ``(argmax f1, argmax f2 at the given branch, predicted optimal
    distance)`` where the prediction maximizes the f1*f2 product numerically
    over its closed form (no diffraction integrals involved).
    """
    l_ab = pred.link_distance
    a, _, c, dc = pred.constants(l_ab)
    if dc <= pred.crop_radius ** 2:
        raise DegenerateGeometryError(
            "9 W^2(L_AB) must exceed the crop radius squared")
    lam = pred.beam.wavelength
    f1_argmax = l_ab
    # B* = C + (2n+1) pi / (Dc - rb^2), translated back to a distance
    denom = (1.0 / plane_params(pred.beam, l_ab).curvature_radius
             + lam * (2 * branch + 1) / (dc - pred.crop_radius ** 2))
    f2_argmax = 1.0 / denom

    grid = np.geomspace(0.05 * l_ab, 20.0 * l_ab, 2000)
    values = [pred.magnitude(x) for x in grid]
    best = max(range(len(grid)), key=values.__getitem__)
    x, _ = refine_grid_point(pred.magnitude, grid, best, values[best],
                             tol=max(1.0, 1e-6 * l_ab))
    return f1_argmax, f2_argmax, float(x)
