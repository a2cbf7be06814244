"""Wiretap-channel parameters (eta, kappa, n_e) from link geometry.

Three eavesdropping layouts are covered:

* Eve behind Bob, aperture centered on the axis;
* Eve behind Bob, aperture displaced by D off the axis;
* Eve between Alice and Bob, on axis (her obstruction shadows Bob and the
  around-the-edge diffraction forms an Arago bright spot on Bob's aperture).
"""

from __future__ import annotations

import enum
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

from .beams import BeamParams, encircled_power, total_power
from .diffraction import DiskSpec, SourceAnnulus, disk_power, propagate_profiles

# exact SI values (2019 redefinition), equal to scipy.constants' h, k and c
PLANCK = 6.62607015e-34  # J s
BOLTZMANN = 1.380649e-23  # J/K
LIGHT_SPEED = 299792458.0  # m/s

KAPPA_CLAMP_TOL = 1e-3


class ChannelConsistencyError(RuntimeError):
    """Eve's collected fraction is undefined (Bob collects the whole beam),
    not finite, or exceeds 1 beyond quadrature tolerance."""


class Scenario(enum.Enum):
    BEHIND_BOB = "behind_bob"
    BEFORE_BOB = "before_bob"


@dataclass(frozen=True)
class Geometry:
    """Link layout.  Distances in meters.

    For BEHIND_BOB, ``bob_eve_distance`` is measured downstream of Bob and
    ``eve_offset`` displaces Eve's aperture off the beam axis.  For
    BEFORE_BOB, Eve sits at ``alice_bob_distance - bob_eve_distance`` from
    Alice, always on axis (her on-axis position maximizes her collection).
    Alice's aperture is the beam waist, ``BeamParams.waist_radius``.
    """

    scenario: Scenario
    alice_bob_distance: float
    bob_eve_distance: float
    eve_offset: float = 0.0
    bob_radius: float = 0.1
    eve_radius: float = 0.1

    def __post_init__(self):
        for name in ("alice_bob_distance", "bob_eve_distance"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("bob_radius", "eve_radius"):
            r = getattr(self, name)
            if not (0 < r and 0 < r * r < math.inf):
                raise ValueError(f"{name} must be positive with a finite, nonzero square, "
                                 f"got {r!r}")
        if not 0 <= self.eve_offset < math.inf:
            raise ValueError("eve_offset must be nonnegative and finite")
        if self.scenario is Scenario.BEFORE_BOB:
            if self.eve_offset != 0.0:
                raise ValueError("before-Bob geometry is on-axis only")
            if not 0.0 < self.alice_eve_distance < self.alice_bob_distance:
                raise ValueError("before-Bob requires 0 < L_AE < L_AB")

    @property
    def alice_eve_distance(self) -> float:
        return self.alice_bob_distance - self.bob_eve_distance


@dataclass(frozen=True)
class ChannelParams:
    """Transmissivity to Bob, Eve's fraction of the lost light, thermal noise.

    ``p_bob`` and ``p_eve`` are diagnostics in units of the total transmitted
    power.  ``kappa = p_eve / (1 - eta)`` and is clamped to 1 (with a warning)
    when quadrature noise pushes it within ``KAPPA_CLAMP_TOL`` above.
    """

    eta: float
    kappa: float
    n_e: float
    p_bob: float
    p_eve: float


def thermal_occupation(frequency: float, temperature: float) -> float:
    """Blackbody mean photon number per mode, 1 / (exp(hf/kT) - 1).

    Evaluated via expm1 in the exponent domain; at optical frequencies and
    cold-space temperatures the result degrades gracefully to 0 instead of
    underflowing noisily.
    """
    kt = BOLTZMANN * temperature
    x = PLANCK * frequency / kt if 0 < kt < math.inf else math.nan
    if not (0 < frequency < math.inf and x > 0):
        raise ValueError(f"frequency and temperature must be positive and finite, with "
                         f"h f / (k T) above 0, got {frequency!r} Hz and {temperature!r} K")
    if x > 700.0:
        return math.exp(-x)  # underflows smoothly to 0.0
    return 1.0 / math.expm1(x)


def default_noise(beam: BeamParams, temperature: float = 3.0) -> float:
    """Background occupation at the beam's center frequency."""
    return thermal_occupation(LIGHT_SPEED / beam.wavelength, temperature)


def _kappa_from_powers(p_eve: float, eta: float, p_total: float) -> float:
    if eta == 1.0:
        raise ChannelConsistencyError("1 - eta is 0: Bob collects the whole beam")
    kappa = p_eve / ((1.0 - eta) * p_total)
    if not math.isfinite(kappa):
        raise ChannelConsistencyError(f"kappa = {kappa} is not finite")
    if kappa > 1.0 + KAPPA_CLAMP_TOL:
        raise ChannelConsistencyError(
            f"kappa = {kappa:.6f} exceeds 1 beyond tolerance; quadrature failure likely")
    if kappa > 1.0:
        warnings.warn(f"kappa = {kappa:.2e} clamped to 1", stacklevel=3)
        kappa = 1.0
    return kappa


def channel_params(geom: Geometry | Sequence[Geometry], beam: BeamParams,
                   noise: float, profile_provider=None
                   ) -> ChannelParams | list[ChannelParams]:
    """Compute (eta, kappa, n_e) for a geometry.

    ``geom`` is a :class:`Geometry`, which gives one :class:`ChannelParams`,
    or a sequence of geometries that differ in ``bob_eve_distance`` only,
    which gives a list in the same order, the values of one call per
    geometry.  The field profiles of the whole sequence come from one
    :func:`propagate_profiles` call (behind Bob, one source, Bob's cropped
    beam; before Bob, one per geometry, Eve's blocked beam) and its collected
    powers from one :func:`disk_power` call.  ``profile_provider``
    optionally replaces that call with one call per geometry of a callable
    of signature ``(source, distance, disk_hint) -> FieldProfile``; the CLI
    passes one through the sweeps to read and fill its disk cache.
    """
    single = isinstance(geom, Geometry)
    geoms = [geom] if single else list(geom)
    g0 = geoms[0]
    layout = _layout(g0)
    if any(_layout(g) != layout for g in geoms):
        raise ValueError("a geometry sequence may vary bob_eve_distance only")
    p_tot = total_power(beam)

    if g0.scenario is Scenario.BEHIND_BOB:
        p_bob = encircled_power(beam, g0.alice_bob_distance, g0.bob_radius)
        src, _, disk = profile_request(g0, beam)
        profiles = _profiles([(src, g.bob_eve_distance) for g in geoms], disk,
                             profile_provider)
        p_bobs, p_eves = [p_bob] * len(geoms), disk_power(profiles, disk).tolist()
    else:
        p_eves = [encircled_power(beam, g.alice_eve_distance, g.eve_radius)
                  for g in geoms]
        disk = profile_request(g0, beam)[2]
        profiles = _profiles([profile_request(g, beam)[:2] for g in geoms], disk,
                             profile_provider)
        p_bobs = disk_power(profiles, disk).tolist()

    out = []
    for p_bob, p_eve in zip(p_bobs, p_eves):
        eta = p_bob / p_tot
        kappa = _kappa_from_powers(p_eve, eta, p_tot)
        out.append(ChannelParams(eta=eta, kappa=kappa, n_e=noise,
                                 p_bob=p_bob / p_tot, p_eve=p_eve / p_tot))
    return out[0] if single else out


def profile_request(geom: Geometry, beam: BeamParams
                    ) -> tuple[SourceAnnulus, float, DiskSpec]:
    """The source, distance and disk of the one field profile a geometry's
    channel needs: behind Bob, Bob's cropped beam onto Eve's disk; before
    Bob, Eve's blocked beam onto Bob's."""
    if geom.scenario is Scenario.BEHIND_BOB:
        return (SourceAnnulus(beam, geom.alice_bob_distance, geom.bob_radius),
                geom.bob_eve_distance, DiskSpec(geom.eve_radius, geom.eve_offset))
    return (SourceAnnulus(beam, geom.alice_eve_distance, geom.eve_radius),
            geom.bob_eve_distance, DiskSpec(geom.bob_radius, 0.0))


def _profiles(requests, disk: DiskSpec, profile_provider) -> list:
    """The profiles of (source, distance) ``requests`` on ``disk``: one
    batched call, or one provider call each."""
    if profile_provider is None:
        return propagate_profiles(requests, disk)
    return [profile_provider(src, distance, disk) for src, distance in requests]


def _layout(geom: Geometry) -> tuple:
    """Everything of a geometry but its Bob-Eve distance."""
    return (geom.scenario, geom.alice_bob_distance, geom.eve_offset,
            geom.bob_radius, geom.eve_radius)
