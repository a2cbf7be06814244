"""Parameter sweeps and geometry optimizations.

Sweeps evaluate the channel and rate pipeline over a grid of one varied
parameter, capturing per-row errors without aborting.  Geometry searches
(eavesdropper distance, off-axis offset) always scan a coarse dense grid
before local refinement: the objectives carry interference ripples with
multiple local optima, so a pure local search is forbidden.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .beams import BeamParams, encircled_power, plane_params, total_power
from .channel import ChannelParams, Geometry, Scenario, channel_params
from .diffraction import (DiskSpec, FieldProfile, SourceAnnulus,
                          arago_relative_amplitude, profile_key,
                          propagate_profile)
from .optimize import golden_section_max, grid_then_golden_max
from .rates import (RateInputs, RateReport, evaluate_objective, optimize_mu,
                    rate_report)

SWEEP_PARAMETERS = ("L_BE", "L_AE", "mu", "D", "L_AB", "W0", "r_e")
SWEEP_SPACINGS = ("log", "linear")


class ProfileCache:
    """Read-mostly in-memory map of field profiles, insert-if-absent.

    Profiles are deterministic functions of their physical inputs, so
    concurrent duplicate computation is harmless: all writers agree.
    """

    def __init__(self, compute=None):
        self._store: dict = {}
        self._lock = threading.Lock()
        self._compute = compute or propagate_profile

    def get_or_compute(self, src: SourceAnnulus, distance: float,
                       disk_hint: DiskSpec) -> FieldProfile:
        k = profile_key(src, distance, disk_hint.center_offset + disk_hint.radius)
        with self._lock:
            hit = self._store.get(k)
        if hit is not None:
            return hit
        profile = self._compute(src, distance, disk_hint)
        with self._lock:
            return self._store.setdefault(k, profile)


@dataclass(frozen=True)
class SweepSpec:
    """One varied parameter over a grid, everything else fixed.

    ``rates`` holds the protocol settings and ``noise`` the background
    occupation n_e; every row computes its own channel from them.  With
    ``optimize_power`` each row reports the rates at the optimal mu for
    ``objective``.
    """

    parameter: str
    minimum: float
    maximum: float
    count: int
    spacing: str = "log"  # or "linear"
    geometry: Geometry | None = None
    beam: BeamParams | None = None
    rates: RateInputs | None = None
    noise: float = 0.0
    optimize_power: bool = False
    objective: str = "lb_max"
    tie_bob_eve_to_link: bool = False  # L_AB sweeps with L_BE kept equal

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        if self.count < 2:
            raise ValueError("grid needs at least 2 points")
        if not self.minimum < self.maximum:
            raise ValueError("grid minimum must be below maximum")
        if self.spacing not in SWEEP_SPACINGS:
            raise ValueError("spacing must be 'log' or 'linear'")

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.minimum, self.maximum, self.count)
        return np.linspace(self.minimum, self.maximum, self.count)


@dataclass(frozen=True)
class SweepRow:
    value: float
    channel: ChannelParams | None
    report: RateReport | None
    d_opt: float | None = None
    error: str | None = None

    @classmethod
    def failed(cls, value: float, exc: Exception) -> "SweepRow":
        return cls(value=value, channel=None, report=None,
                   error=f"{type(exc).__name__}: {exc}")


def _apply_parameter(spec: SweepSpec, value: float):
    geom, beam, rates = spec.geometry, spec.beam, spec.rates
    p = spec.parameter
    if p == "mu":
        return geom, beam, replace(rates, mu=value)
    if p == "L_BE":
        return replace(geom, bob_eve_distance=value), beam, rates
    if p == "L_AE":
        lbe = geom.alice_bob_distance - value
        return replace(geom, bob_eve_distance=lbe), beam, rates
    if p == "D":
        return replace(geom, eve_offset=value), beam, rates
    if p == "L_AB":
        g = replace(geom, alice_bob_distance=value)
        if spec.tie_bob_eve_to_link:
            g = replace(g, bob_eve_distance=value)
        return g, beam, rates
    if p == "W0":
        return geom, replace(beam, waist_radius=value, field_peak=None), rates
    if p == "r_e":
        return replace(geom, eve_radius=value), beam, rates
    raise AssertionError(p)


def geometry_row(spec: SweepSpec, value: float, geom: Geometry,
                 beam: BeamParams, rates: RateInputs,
                 profile_provider) -> SweepRow:
    """Channel and rate report of one geometry under the spec's noise and
    power setting; ``d_opt`` is the offset the geometry places Eve at."""
    ch = channel_params(geom, beam, spec.noise, profile_provider=profile_provider)
    report = rate_report(ch, rates, optimize=spec.optimize_power,
                         objective=spec.objective)
    return SweepRow(value=value, channel=ch, report=report,
                    d_opt=geom.eve_offset)


def _row(spec: SweepSpec, value: float, cache: ProfileCache) -> SweepRow:
    try:
        return geometry_row(spec, value, *_apply_parameter(spec, value),
                            cache.get_or_compute)
    except Exception as exc:  # row errors are recorded, not raised
        return SweepRow.failed(value, exc)


def run_sweep(spec: SweepSpec, cache: ProfileCache | None = None,
              threads: int = 1) -> list[SweepRow]:
    """Evaluate a sweep; rows are independent and ordered by grid position."""
    cache = cache or ProfileCache()
    grid = spec.grid()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda v: _row(spec, v, cache), grid))
    return [_row(spec, v, cache) for v in grid]


# ---------------------------------------------------------------------------
# Eavesdropper geometry optimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EveDistanceResult:
    distance: float
    rate: float
    at_boundary: bool
    secondary_minima: tuple = ()


def _geometry_score(ch: ChannelParams, rates: RateInputs, objective: str,
                    optimize_power: bool) -> float:
    """What a geometry search minimizes: the objective at the fixed mu, or
    under ``optimize_power`` its value at the mu that maximizes it."""
    if optimize_power:
        return optimize_mu(ch, rates, objective).value
    return evaluate_objective(ch, rates, objective)


def optimal_eve_distance(geom: Geometry, beam: BeamParams, rates: RateInputs,
                         noise: float, search_range=(1e3, 5e5),
                         n_coarse: int = 200, cache: ProfileCache | None = None,
                         objective: str = "lb_max",
                         optimize_power: bool = False) -> EveDistanceResult:
    """Distance behind Bob minimizing the achievable rate.

    Coarse log grid (>= 200 points), its channels from one batched
    :func:`channel_params` call, plus golden refinement around the global
    minimum; interference dips below 1.05x the global minimum are reported as
    secondary minima.
    """
    if geom.scenario is not Scenario.BEHIND_BOB:
        raise ValueError("eavesdropper-distance search applies behind Bob")
    cache = cache or ProfileCache()

    def rate_at(lbe: float) -> float:
        ch = channel_params(replace(geom, bob_eve_distance=lbe), beam, noise,
                            profile_provider=cache.get_or_compute)
        return _geometry_score(ch, rates, objective, optimize_power)

    n_coarse = max(n_coarse, 200)
    grid = np.geomspace(search_range[0], search_range[1], n_coarse)
    coarse = channel_params([replace(geom, bob_eve_distance=l) for l in grid],
                            beam, noise, profile_provider=cache.get_or_compute)
    vals = np.array([_geometry_score(ch, rates, objective, optimize_power)
                     for ch in coarse])

    def refine(i):
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        x, fneg = golden_section_max(lambda l: -rate_at(l), lo, hi,
                                     tol=max(1.0, 1e-3 * grid[i]))
        return x, -fneg

    i_min = int(np.argmin(vals))
    best_x, best_v = refine(i_min)
    if vals[i_min] < best_v:
        best_x, best_v = grid[i_min], vals[i_min]

    secondary = []
    for i in range(1, len(grid) - 1):
        if vals[i] < vals[i - 1] and vals[i] < vals[i + 1] and i != i_min:
            x, v = refine(i)
            if v <= 1.05 * best_v:
                secondary.append((float(x), float(v)))
    at_boundary = i_min in (0, len(grid) - 1)
    return EveDistanceResult(distance=float(best_x), rate=float(best_v),
                             at_boundary=at_boundary,
                             secondary_minima=tuple(secondary))


def offset_search_disk(geom: Geometry, beam: BeamParams) -> DiskSpec:
    """Eve's disk at the largest offset a search tries, r_b + 3 W(L_AB)."""
    w_src = plane_params(beam, geom.alice_bob_distance).spot_size
    return DiskSpec(geom.eve_radius, geom.bob_radius + 3.0 * w_src)


def optimize_eve_offset(geom: Geometry, beam: BeamParams, rates: RateInputs,
                        noise: float, cache: ProfileCache | None = None,
                        objective: str = "lb_max", optimize_power: bool = False,
                        offset_tol: float = 1e-3):
    """Offset D minimizing the rate at the geometry's distance behind Bob.

    One profile covers the whole offset range, so the search only re-weights
    the stored intensity.  Multistart golden section (axis, shadow edge, two
    interior points); ties break toward the smaller offset.
    """
    if geom.scenario is not Scenario.BEHIND_BOB:
        raise ValueError("offset optimization applies behind Bob")
    cache = cache or ProfileCache()
    hint = offset_search_disk(geom, beam)
    d_max = hint.center_offset
    src = SourceAnnulus(beam, geom.alice_bob_distance, geom.bob_radius)
    profile = cache.get_or_compute(src, geom.bob_eve_distance, hint)

    def rate_at(d: float) -> float:
        ch = channel_params(replace(geom, eve_offset=d), beam, noise,
                            profile_provider=lambda *_: profile)
        return _geometry_score(ch, rates, objective, optimize_power)

    starts = sorted({0.0, min(geom.bob_radius, d_max), d_max / 3.0,
                     2.0 * d_max / 3.0})
    on_axis = rate_at(0.0)
    best_d, best_v = 0.0, on_axis
    for lo, hi in zip(starts[:-1], starts[1:]):
        x, fneg = golden_section_max(lambda d: -rate_at(d), lo, hi,
                                     tol=offset_tol)
        v = -fneg
        if v < best_v - 1e-12 or (abs(v - best_v) <= 1e-12 and x < best_d):
            best_d, best_v = x, v
    if on_axis <= best_v + 1e-12:
        best_d, best_v = 0.0, on_axis
    return best_d, best_v


# ---------------------------------------------------------------------------
# Closed-form predictor for the optimal eavesdropping distance
# ---------------------------------------------------------------------------

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
    x, _ = grid_then_golden_max(pred.magnitude, grid, tol=max(1.0, 1e-6 * l_ab))
    return f1_argmax, f2_argmax, float(x)


def arago_prediction_curve(geom: Geometry, beam: BeamParams, rates: RateInputs,
                           noise: float, lbe_grid) -> list[SweepRow]:
    """Rates with Eve's power predicted from the bright-spot factor.

    The undisturbed beam at ``L_AB + L_BE`` is scaled by the point-source
    relative amplitude of the obstruction of radius r_b; this tracks the full
    diffraction result when the transmitted beam is nearly collimated.
    """
    if geom.scenario is not Scenario.BEHIND_BOB or geom.eve_offset != 0.0:
        raise ValueError("bright-spot prediction applies on axis behind Bob")
    from .beams import field_amplitude

    p_tot = total_power(beam)
    p_bob = encircled_power(beam, geom.alice_bob_distance, geom.bob_radius)
    eta = p_bob / p_tot
    rows = []
    for lbe in np.asarray(lbe_grid, dtype=float):
        ls = np.linspace(0.0, geom.eve_radius, 2001)
        undisturbed = np.abs(field_amplitude(beam, ls, geom.alice_bob_distance + lbe))
        factor = arago_relative_amplitude(geom.bob_radius, lbe, ls, beam.wavelength)
        intensity = (undisturbed * factor) ** 2
        p_eve = float(np.trapezoid(intensity * 2.0 * np.pi * ls, ls))
        p_eve = min(p_eve, (1.0 - eta) * p_tot)  # prediction can overshoot
        ch = ChannelParams(eta=eta, kappa=p_eve / ((1.0 - eta) * p_tot),
                           n_e=noise, p_bob=p_bob / p_tot, p_eve=p_eve / p_tot)
        report = rate_report(ch, rates)
        rows.append(SweepRow(value=float(lbe), channel=ch, report=report,
                             d_opt=0.0))
    return rows
