"""Parameter sweeps and geometry searches.

Every producer of CSV rows takes a :class:`SweepSpec` and returns
:class:`SweepRow` objects: :func:`run_sweep`, the distance search
:func:`optimal_eve_distance`, the offset search :func:`optimal_eve_offsets`
(:func:`optimize_eve_offset` at each grid distance) and the bright-spot
curve :func:`arago_prediction_curve`.  All but the last pass their
``profile_provider`` on to :func:`~fsoqkd.channel.channel_params`;
:func:`wavefront_profiles` gives the profiles of the wavefront maps.
:func:`check_producer` tells, before a producer runs and from arithmetic
alone, whether its profiles can give any row within their budget.

A sweep evaluates the channel and rate pipeline over a grid of one varied
parameter, capturing per-row errors without aborting.  It runs by stage, in
the calling thread: the channels of each row group (consecutive rows whose
geometries differ in the Bob-Eve distance only) come from one batched call,
then the rates of its rows from a plain loop.

The geometry searches place Eve where she collects the largest share kappa
of the light Bob loses.  Behind Bob, eta and n_e are fixed over a search and
no objective rises with kappa, so the position with the largest kappa
gives the lowest rates: a search needs the optics alone, and rates are computed only for
the rows it writes and, in the distance search, for the candidate peaks
that the dip rule compares.  Kappa carries interference ripples with
multiple local maxima, so the searches scan a coarse grid before local
refinement: the distance search scans a log grid of max(200, count) points
over the spec's L_BE range, and the offset search brackets golden sections
between five fixed offsets.  A search scores each position it tries once,
keeps those channels by position, and its rows carry the channels it scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from .beams import BeamParams, encircled_power, field_amplitude, total_power
from .channel import (ChannelParams, Geometry, Scenario, _kappa_from_powers, _layout,
                      channel_params, profile_request)
from .diffraction import (DiskSpec, FieldProfile, SourceAnnulus,
                          arago_relative_amplitude, over_budget, profile_work,
                          propagate_profile, source_reach)
from .optimize import golden_section_max, refine_grid_point
from .rates import OBJECTIVES, RateInputs, RateReport, rate_report

SWEEP_PARAMETERS = ("L_BE", "L_AE", "mu", "D", "L_AB", "W0", "r_e")
SWEEP_SPACINGS = ("log", "linear")
OFFSET_TOL = 1e-3  # m, the bracket width at which an offset search stops


class ProfileCache:
    """The CLI's ``profile_provider`` when the disk cache is on: ``compute``,
    the disk cache's lookup.  It keeps no profile, so each, with its
    interpolant's pieces, goes after its one use: a map of them had 0 hits
    in 4,674 lookups over every recipe (measured).  The class stays while
    the benchmark traces it."""

    def __init__(self, compute):
        self._compute = compute

    def get_or_compute(self, src: SourceAnnulus, distance: float,
                       disk_hint: DiskSpec) -> FieldProfile:
        return self._compute(src, distance, disk_hint)


@dataclass(frozen=True)
class SweepSpec:
    """One varied parameter over a grid, everything else fixed.

    ``rates`` holds the protocol settings and ``noise`` the background
    occupation n_e; every row computes its own channel from them.  With
    ``optimize_power`` each row reports the rates at the optimal mu for
    ``objective``.  ``objective`` and ``optimize_power`` shape the rows'
    rates, not where a geometry search places Eve; the distance search's
    dip rule compares ``objective`` across its candidate rows.  Every
    setting on a spec's grid is valid: each parameter's valid values form
    an interval and every grid is monotone, so checking the two ends checks
    the grid.
    """

    parameter: str
    minimum: float
    maximum: float
    count: int
    geometry: Geometry
    beam: BeamParams
    rates: RateInputs
    spacing: str = "log"  # or "linear"
    noise: float = 0.0
    optimize_power: bool = False
    objective: str = "lb_max"
    tie_bob_eve_to_link: bool = False  # L_AB sweeps with L_BE kept equal

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        if self.spacing not in SWEEP_SPACINGS:
            raise ValueError("spacing must be 'log' or 'linear'")
        if not (isinstance(self.count, int) and self.count >= 2):
            raise ValueError(f"grid needs an integer count >= 2, got {self.count!r}")
        if not -math.inf < self.minimum < self.maximum < math.inf:
            raise ValueError("grid ends must be finite, the minimum below the maximum")
        if self.spacing == "log" and not self.minimum > 0:
            raise ValueError(f"a log grid needs a positive minimum, got {self.minimum!r}")
        if not 0 <= self.noise < math.inf:
            raise ValueError(f"noise must be finite and nonnegative, got {self.noise!r}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        for value in (self.minimum, self.maximum):
            try:
                _apply_parameter(self, value)
            except ValueError as exc:
                raise ValueError(f"sweep {self.parameter} = {value!r}: {exc}") from exc

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
                 rates: RateInputs, channel: ChannelParams) -> SweepRow:
    """Rate report of one geometry's ``channel`` under the spec's power
    setting; ``d_opt`` is the offset the geometry places Eve at."""
    report = rate_report(channel, rates, optimize=spec.optimize_power,
                         objective=spec.objective)
    return SweepRow(value=value, channel=channel, report=report,
                    d_opt=geom.eve_offset)


def _group_key(spec: SweepSpec, value: float):
    """What the rows of one group share: the beam and everything of the
    geometry but its Bob-Eve distance, so that one :func:`channel_params`
    call takes the group's geometries."""
    geom, beam, _ = _apply_parameter(spec, value)
    return beam, _layout(geom)


def _group_rows(spec: SweepSpec, values: list[float],
                profile_provider) -> list[SweepRow]:
    """Rows of one group: the channels from one batched call over its
    distinct geometries, then the rates row by row.  If any of it raises,
    each row is scored on its own, so that only a bad row carries the error."""
    settings = [_apply_parameter(spec, v) for v in values]
    geoms = list(dict.fromkeys(geom for geom, _, _ in settings))
    try:
        by_geom = dict(zip(geoms, channel_params(geoms, settings[0][1], spec.noise,
                                                 profile_provider=profile_provider)))
        return [geometry_row(spec, value, geom, rates, by_geom[geom])
                for value, (geom, _, rates) in zip(values, settings)]
    except Exception as exc:  # row errors are recorded, not raised
        if len(values) == 1:
            return [SweepRow.failed(values[0], exc)]
        return [row for v in values for row in _group_rows(spec, [v], profile_provider)]


def run_sweep(spec: SweepSpec, profile_provider=None) -> list[SweepRow]:
    """Evaluate a sweep; rows are ordered by grid position.  Its row groups
    are scored one after another in the calling thread."""
    return [row for _, group in groupby(spec.grid(), lambda v: _group_key(spec, v))
            for row in _group_rows(spec, list(group), profile_provider)]


# ---------------------------------------------------------------------------
# Eavesdropper geometry optimization
# ---------------------------------------------------------------------------

def _search_geometry(spec: SweepSpec, search: str) -> Geometry:
    geom = spec.geometry
    if geom.scenario is not Scenario.BEHIND_BOB or spec.parameter != "L_BE":
        raise ValueError(f"{search} scans Bob-Eve distances behind Bob and needs "
                         f"scenario = behind_bob and sweep_parameter = L_BE, got "
                         f"{geom.scenario.value!r} and {spec.parameter!r}")
    return geom


def check_producer(spec: SweepSpec, producer, maps=None) -> None:
    """Raise ValueError when ``producer`` (:func:`run_sweep`, a search, or
    :func:`wavefront_profiles` with its ``maps``) can give no row: a search
    off an L_BE sweep behind Bob, a wavefront off the axis, or a
    :func:`profile_work` over budget at the point that decides.  For
    run_sweep that is the cheaper grid end, as the work is monotone in each
    swept parameter but W0, where W at the source plane is least at
    W0^2 = L lambda / pi; for the distance search ``spec.minimum``, as it
    needs every coarse point; for the offset search ``spec.maximum`` on the
    disk of its largest offset; for a wavefront every map.  Other points
    that fail give error rows.
    """
    if producer is wavefront_profiles:
        src, coverage = _wavefront_source(spec, maps)
        points = [(f"wavefront map at {d!r} m", src, d, coverage) for d in maps.distances]
    elif producer is optimal_eve_offsets:
        geom = _search_geometry(spec, "offset optimization")
        src = SourceAnnulus(spec.beam, geom.alice_bob_distance, geom.bob_radius)
        try:
            hint = _offset_search_disk(geom, spec.beam)
            coverage = hint.center_offset + hint.radius
        except ValueError:  # its offset, with 3 W past the largest double, is inf
            coverage = math.inf
        points = [(f"offset optimization at L_BE = {spec.maximum!r}", src,
                   spec.maximum, coverage)]
    else:
        label, values = f"sweep {spec.parameter} =", [spec.minimum, spec.maximum]
        if producer is optimal_eve_distance:
            _search_geometry(spec, "eavesdropper-distance search")
            label, values = "eavesdropper-distance search at L_BE =", values[:1]
        elif spec.parameter == "W0":
            plane = profile_request(spec.geometry, spec.beam)[0].plane_distance
            least = math.sqrt(plane * spec.beam.wavelength / math.pi)
            values.append(min(max(least, spec.minimum), spec.maximum))
        points = []
        for value in values:
            src, distance, disk = profile_request(*_apply_parameter(spec, value)[:2])
            points.append((f"{label} {value!r}", src, distance,
                           disk.center_offset + disk.radius))
    works = [(where, profile_work(src, distance, coverage))
             for where, src, distance, coverage in points]
    if producer is run_sweep:
        works = [min(works, key=lambda w: (w[1].nodes, w[1].terms, w[1].tail))]
    for where, work in works:
        error = over_budget(work.nodes, work.tail)
        if error is not None:
            raise ValueError(f"{where}: {error}")


def optimal_eve_distance(spec: SweepSpec, profile_provider=None) -> list[SweepRow]:
    """Rows at the distances behind Bob where Eve collects the largest share
    kappa: the global maximum first, then each interior peak of kappa whose
    row's ``spec.objective`` is at most 1.05x the first row's, in grid order.

    The coarse grid is a log grid of max(200, ``spec.count``) points over
    [``spec.minimum``, ``spec.maximum``], its channels from one batched
    :func:`channel_params` call; :func:`refine_grid_point` refines the
    global maximum and each peak between its grid neighbors.  Each distance
    is scored once; only the candidates' rows, on those channels, compute rates.
    """
    geom, beam = _search_geometry(spec, "eavesdropper-distance search"), spec.beam
    grid = np.geomspace(spec.minimum, spec.maximum, max(200, spec.count))
    distances = grid.tolist()
    channels = channel_params(_at_distances(geom, distances), beam, spec.noise,
                              profile_provider=profile_provider)
    scored = dict(zip(distances, channels))

    def kappa_at(lbe: float) -> float:
        scored[lbe] = channel_params(replace(geom, bob_eve_distance=lbe), beam,
                                     spec.noise, profile_provider=profile_provider)
        return scored[lbe].kappa

    kappa = [ch.kappa for ch in channels]
    i_max = int(np.argmax(kappa))
    peaks = [i for i in range(1, len(grid) - 1)
             if kappa[i - 1] < kappa[i] > kappa[i + 1] and i != i_max]
    rows = []
    for i in [i_max] + peaks:
        lbe = float(refine_grid_point(kappa_at, grid, i, kappa[i],
                                      tol=max(1.0, 1e-3 * grid[i]))[0])
        rows.append(geometry_row(spec, lbe, replace(geom, bob_eve_distance=lbe),
                                 spec.rates, scored[lbe]))
    field = "lb" if spec.objective == "lb_max" else spec.objective
    best = getattr(rows[0].report, field)
    return rows[:1] + [r for r in rows[1:] if getattr(r.report, field) <= 1.05 * best]


def _at_distances(geom: Geometry, distances) -> list[Geometry]:
    """``geom`` at each Bob-Eve distance.  The constructor checks each one
    as ``replace`` would, in about 60% of its time."""
    scenario, lab, offset, r_b, r_e = _layout(geom)
    return [Geometry(scenario, lab, lbe, offset, r_b, r_e) for lbe in distances]


def _offset_search_disk(geom: Geometry, beam: BeamParams) -> DiskSpec:
    """Eve's disk at the largest offset a search tries, r_b + 3 W(L_AB), 3 W
    from :func:`source_reach`; ValueError where 3 W is past the largest double."""
    src = SourceAnnulus(beam, geom.alice_bob_distance, geom.bob_radius)
    return DiskSpec(geom.eve_radius, geom.bob_radius + source_reach(src))


def optimize_eve_offset(spec: SweepSpec, distance: float,
                        profile_provider=None) -> tuple[SweepRow, SweepRow]:
    """Rows at the offset D* where Eve collects the largest share kappa, and
    on the axis, at one Bob-Eve ``distance`` behind Bob; the first row's
    ``d_opt`` is D*.

    One profile covers the whole offset range, so the search only re-weights
    the stored intensity.  Golden section on kappa over each interval
    between the axis, the shadow edge, two interior points and the largest
    offset, in that order; a point wins only by more than 1e-12, so ties go
    to the smaller offset and to the axis.  Each offset is scored once;
    only the two rows, on those channels, compute rates.
    """
    geom = replace(_search_geometry(spec, "offset optimization"),
                   bob_eve_distance=distance)
    beam = spec.beam
    hint = _offset_search_disk(geom, beam)
    d_max = hint.center_offset
    src = SourceAnnulus(beam, geom.alice_bob_distance, geom.bob_radius)
    profile = (profile_provider or propagate_profile)(src, distance, hint)
    scored = {}

    def kappa_at(d: float) -> float:
        scored[d] = channel_params(replace(geom, eve_offset=d), beam, spec.noise,
                                   profile_provider=lambda *_: profile)
        return scored[d].kappa

    starts = sorted({0.0, min(geom.bob_radius, d_max), d_max / 3.0,
                     2.0 * d_max / 3.0, d_max})
    best_d, best_k = 0.0, kappa_at(0.0)
    for lo, hi in zip(starts[:-1], starts[1:]):
        x, k = golden_section_max(kappa_at, lo, hi, tol=OFFSET_TOL)
        if k > best_k + 1e-12:
            best_d, best_k = x, k
    return tuple(geometry_row(spec, distance, replace(geom, eve_offset=d),
                              spec.rates, scored[d]) for d in (best_d, 0.0))


def optimal_eve_offsets(spec: SweepSpec, profile_provider=None
                        ) -> tuple[list[SweepRow], list[SweepRow]]:
    """Per grid distance behind Bob, the rows of :func:`optimize_eve_offset`:
    those at Eve's best offset, then those on the axis.  A distance whose
    search raises gives an error row in both lists."""
    _search_geometry(spec, "offset optimization")
    pairs = []
    for lbe in spec.grid():
        try:
            pairs.append(optimize_eve_offset(spec, lbe, profile_provider))
        except Exception as exc:  # row errors are recorded, not raised
            pairs.append((SweepRow.failed(lbe, exc),) * 2)
    rows_opt, rows_axis = zip(*pairs)
    return list(rows_opt), list(rows_axis)


def _wavefront_source(spec: SweepSpec, maps) -> tuple[SourceAnnulus, float]:
    """Bob's cropped beam and the radius of the maps' corners, with a margin."""
    geom = spec.geometry
    if geom.scenario is not Scenario.BEHIND_BOB or geom.eve_offset != 0.0:
        raise ValueError("wavefront maps are on-axis, behind-Bob only")
    return (SourceAnnulus(spec.beam, geom.alice_bob_distance, geom.bob_radius),
            maps.half_width * math.sqrt(2.0) * 1.0001)


def wavefront_profiles(spec: SweepSpec, maps, profile_provider=None
                       ) -> list[FieldProfile]:
    """The field behind Bob, on the axis of ``spec``'s geometry, at each
    distance of ``maps`` (:class:`~fsoqkd.config.WavefrontSettings`): one
    profile per map, out to its corners."""
    src, coverage = _wavefront_source(spec, maps)
    return [(profile_provider or propagate_profile)(src, d, DiskSpec(coverage, 0.0))
            for d in maps.distances]


def arago_geometry(spec: SweepSpec) -> Geometry:
    """The geometry of an L_BE sweep on the axis behind Bob, the only
    sweep with a bright-spot curve; any other spec raises ValueError."""
    geom = _search_geometry(spec, "bright-spot prediction")
    if geom.eve_offset != 0.0:
        raise ValueError("bright-spot prediction applies on axis")
    return geom


def arago_prediction_curve(spec: SweepSpec) -> list[SweepRow]:
    """Rates over the spec's L_BE grid with Eve's power predicted from the
    bright-spot factor, at the spec's fixed mu.

    The undisturbed beam at ``L_AB + L_BE`` is scaled by the point-source
    relative amplitude of the obstruction of radius r_b; this tracks the full
    diffraction result when the transmitted beam is nearly collimated.  A grid
    point that raises gives an error row.
    """
    geom, beam = arago_geometry(spec), spec.beam
    p_tot = total_power(beam)
    p_bob = encircled_power(beam, geom.alice_bob_distance, geom.bob_radius)
    eta = p_bob / p_tot
    ls = np.linspace(0.0, geom.eve_radius, 2001)
    rows = []
    for lbe in spec.grid():
        try:
            undisturbed = np.abs(field_amplitude(beam, ls, geom.alice_bob_distance + lbe))
            factor = arago_relative_amplitude(geom.bob_radius, lbe, ls, beam.wavelength)
            intensity = (undisturbed * factor) ** 2
            p_eve = float(np.trapezoid(intensity * 2.0 * np.pi * ls, ls))
            p_eve = min(p_eve, (1.0 - eta) * p_tot)  # prediction can overshoot
            ch = ChannelParams(eta=eta, kappa=_kappa_from_powers(p_eve, eta, p_tot),
                               n_e=spec.noise, p_bob=p_bob / p_tot, p_eve=p_eve / p_tot)
            rows.append(SweepRow(value=float(lbe), channel=ch,
                                 report=rate_report(ch, spec.rates), d_opt=0.0))
        except Exception as exc:  # row errors are recorded, not raised
            rows.append(SweepRow.failed(lbe, exc))
    return rows
