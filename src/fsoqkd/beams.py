"""Closed-form Gaussian beam quantities, for propagation in vacuum.

All lengths are in meters, angles in radians.  With the default normalization
(``field_peak`` left as ``None``) the beam carries unit total power, so every
power computed downstream is directly a fraction of the transmitted power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BeamParams:
    """Transmitted Gaussian mode.

    Parameters
    ----------
    wavelength : float
        Vacuum wavelength [m].
    waist_radius : float
        1/e field radius at the waist [m]; the transmitter aperture radius.
    field_peak : float, optional
        On-axis field amplitude at the waist.  Defaults to
        ``sqrt(2 / (pi * waist_radius**2))`` which normalizes total power to 1.
    """

    wavelength: float
    waist_radius: float
    field_peak: float | None = None

    def __post_init__(self):
        if not 0 < self.wavelength < math.inf:
            raise ValueError("wavelength must be positive and finite")
        w = self.waist_radius
        if not (0 < w and 0 < w * w < math.inf):
            raise ValueError(f"waist_radius must be positive with a finite, nonzero "
                             f"square, got {w!r}")
        if self.field_peak is None:
            object.__setattr__(
                self, "field_peak",
                math.sqrt(2.0 / (math.pi * self.waist_radius ** 2)))
        if not 0 < self.field_peak < math.inf:
            raise ValueError("field_peak must be positive and finite")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def rayleigh_length(self) -> float:
        return math.pi * self.waist_radius ** 2 / self.wavelength


@dataclass(frozen=True)
class PlaneField:
    """On-axis beam parameters at one transverse plane.

    ``curvature_radius`` is ``math.inf`` at the waist (flat wavefront); the
    field evaluator treats the 1/R phase term as exactly zero there.
    """

    distance: float
    spot_size: float
    curvature_radius: float
    gouy_phase: float


def plane_params(beam: BeamParams, distance: float) -> PlaneField:
    """Spot size W(L), curvature radius R(L) and Gouy phase at distance L."""
    if distance < 0:
        raise ValueError("propagation distance must be nonnegative")
    z0 = beam.rayleigh_length
    w = beam.waist_radius * math.sqrt(1.0 + (distance / z0) ** 2)
    if distance == 0 or z0 / distance > 1e150:
        r = math.inf  # flat-wavefront sentinel; curvature phase is dropped
    else:
        r = distance * (1.0 + (z0 / distance) ** 2)
    psi = math.atan2(distance, z0)
    return PlaneField(distance, w, r, psi)


def field_amplitude(beam: BeamParams, r, distance: float):
    """Complex field U(r, L); ``r`` may be a scalar or ndarray of radii."""
    import numpy as np

    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    if distance < 0:
        raise ValueError("propagation distance must be nonnegative")
    p = plane_params(beam, distance)
    k = beam.wavenumber
    if math.isinf(p.curvature_radius):
        curv = 0.0
    else:
        curv = k * r ** 2 / (2.0 * p.curvature_radius)
    mag = beam.field_peak * (beam.waist_radius / p.spot_size) * np.exp(-r ** 2 / p.spot_size ** 2)
    out = mag * np.exp(-1j * (k * distance + curv - p.gouy_phase))
    return complex(out) if out.ndim == 0 else out


def total_power(beam: BeamParams) -> float:
    """Total beam power, E0^2 * pi * W0^2 / 2 (equal to 1 when normalized)."""
    return beam.field_peak ** 2 * math.pi * beam.waist_radius ** 2 / 2.0


def encircled_power(beam: BeamParams, distance: float, radius: float) -> float:
    """Power through a centered disk of given radius at a given plane.

    Closed form of 2*pi * int_0^radius |U(r, L)|^2 r dr.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    w = plane_params(beam, distance).spot_size
    return total_power(beam) * -math.expm1(-2.0 * radius ** 2 / w ** 2)
