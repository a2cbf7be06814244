import functools
import math
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsoqkd import channel, sweeps
from fsoqkd.beams import BeamParams
from fsoqkd.channel import Geometry, Scenario, channel_params, profile_request
from fsoqkd.diffraction import (QuadratureError, profile_work, propagate_profile,
                                propagate_profiles)
from fsoqkd.rates import OBJECTIVES, RateInputs, RateReport
from fsoqkd.sweeps import (ProfileCache, SweepSpec, _apply_parameter,
                           arago_prediction_curve, check_producer, geometry_row,
                           optimal_eve_distance, optimal_eve_offsets,
                           optimize_eve_offset, run_sweep, wavefront_profiles)
from predictor_reference import (AnalyticPredictor, DegenerateGeometryError,
                                 analytic_f1_f2)

LAM = 1550e-9


def cached_propagation():
    """A profile provider that computes each request on a disk hint once."""
    one = functools.cache(propagate_profile)
    return lambda requests, disk_hint: [one(src, d, disk_hint) for src, d in requests]


def make_spec(**kw):
    beam = kw.pop("beam", BeamParams(LAM, 0.1))
    geom = kw.pop("geometry", Geometry(Scenario.BEHIND_BOB, 20e3, 20e3))
    rates = kw.pop("rates", RateInputs(mu=math.inf, beta=1.0))
    defaults = dict(parameter="L_BE", minimum=2e3, maximum=120e3, count=10,
                    spacing="log", geometry=geom, beam=beam, rates=rates)
    defaults.update(kw)
    return SweepSpec(**defaults)


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(count=1)
    with pytest.raises(ValueError):
        make_spec(minimum=10.0, maximum=5.0)
    with pytest.raises(ValueError):
        make_spec(parameter="banana")
    with pytest.raises(ValueError):
        make_spec(spacing="cubic")


def test_distance_sweep_dips_then_recovers():
    rows = run_sweep(make_spec(count=12))
    vals = [r.report.lb for r in rows]
    assert all(r.error is None for r in rows)
    i_min = int(np.argmin(vals))
    assert 0 < i_min < len(vals) - 1  # decreases into a dip, then recovers
    assert vals[i_min] < vals[0] and vals[i_min] < vals[-1]


def test_sweep_rows_deterministic_and_cache_reusable():
    cache = cached_propagation()
    spec = make_spec(count=6)
    rows_a = run_sweep(spec, cache)
    rows_b = run_sweep(spec, cache)  # warm cache
    for a, b in zip(rows_a, rows_b):
        assert a.channel.eta == b.channel.eta
        assert a.channel.kappa == b.channel.kappa
        assert a.report.lb == b.report.lb


# one spec per sweep parameter: L_BE, L_AE and mu sweeps are one row group,
# the others a group per row
EVERY_PARAMETER = [
    dict(parameter="L_BE"),
    dict(parameter="L_AE", minimum=2e3, maximum=18e3,
         geometry=Geometry(Scenario.BEFORE_BOB, 20e3, 10e3)),
    dict(parameter="mu", minimum=0.1, maximum=100.0,
         rates=RateInputs(mu=1.0, beta=0.95), optimize_power=False),
    dict(parameter="D", minimum=0.0, maximum=0.2, spacing="linear"),
    dict(parameter="L_AB", minimum=10e3, maximum=60e3),
    dict(parameter="W0", minimum=0.05, maximum=0.2),
    dict(parameter="r_e", minimum=0.05, maximum=0.3),
]


def test_sweep_rows_equal_per_row_channels():
    # each group's batched channels give the rows one channel_params call
    # per row gives, in every channel and report field
    for kw in EVERY_PARAMETER:
        spec = make_spec(**{"count": 4, "noise": 1e-7, "optimize_power": True,
                            "rates": RateInputs(mu=1.0, beta=0.95), **kw})
        rows = run_sweep(spec)
        assert all(r.error is None for r in rows), kw["parameter"]
        for row in rows:
            geom, beam, rates = _apply_parameter(spec, row.value)
            assert row == geometry_row(spec, row.value, geom, rates,
                                       channel_params(geom, beam, spec.noise)), \
                kw["parameter"]


@pytest.mark.parametrize("kw", EVERY_PARAMETER[:2], ids=lambda kw: kw["parameter"])
def test_batch_fault_errors_its_row_only(kw):
    # the batched channel call of the group fails; its rows are re-scored
    # one by one, and only the row at the bad distance fails
    spec = make_spec(count=5, **kw)
    bad = spec.grid()[2]
    bad_distance = _apply_parameter(spec, bad)[0].bob_eve_distance

    def faulty(requests, disk_hint):
        if any(distance == bad_distance for _, distance in requests):
            raise QuadratureError("injected fault", 1.0)
        return propagate_profiles(requests, disk_hint)

    rows = run_sweep(spec, ProfileCache(compute=faulty).get_or_compute)
    assert rows[2].error == ("QuadratureError: injected fault "
                             "(achieved error estimate 1.000e+00)")
    for row in rows[:2] + rows[3:]:
        geom, beam, rates = _apply_parameter(spec, row.value)
        assert row == geometry_row(spec, row.value, geom, rates,
                                   channel_params(geom, beam, spec.noise))


def test_distance_sweep_computes_its_channels_in_one_disk_power_call(monkeypatch):
    disk_power_calls, distances = [], []
    disk_power = channel.disk_power

    def counted_disk_power(profiles, disk):
        disk_power_calls.append(len(profiles))
        return disk_power(profiles, disk)

    def counted_propagation(requests, disk_hint):
        distances.extend(distance for _, distance in requests)
        return propagate_profiles(requests, disk_hint)

    monkeypatch.setattr(channel, "disk_power", counted_disk_power)
    spec = make_spec(count=6)
    run_sweep(spec, ProfileCache(compute=counted_propagation).get_or_compute)
    assert disk_power_calls == [6]
    assert distances == spec.grid().tolist()


def test_mu_sweep_computes_its_one_channel_once(monkeypatch):
    # every row of a mu sweep has the same geometry: one profile goes to
    # disk_power, not one per row, and each row carries that channel
    disk_power_calls = []
    disk_power = channel.disk_power

    def counted_disk_power(profiles, disk):
        disk_power_calls.append(len(profiles))
        return disk_power(profiles, disk)

    monkeypatch.setattr(channel, "disk_power", counted_disk_power)
    spec = make_spec(parameter="mu", minimum=0.1, maximum=100.0, count=60,
                     rates=RateInputs(mu=1.0, beta=0.95))
    rows = run_sweep(spec)
    assert disk_power_calls == [1]
    one = channel_params(spec.geometry, spec.beam, spec.noise)
    assert all(r.error is None and r.channel == one for r in rows)


def test_sweep_records_row_errors_without_aborting(monkeypatch):
    import fsoqkd.sweeps as sweeps_mod

    original = sweeps_mod.channel_params
    spec = make_spec(count=4)
    bad = spec.grid()[1]

    def flaky(geom, beam, noise, profile_provider=None):
        geoms = [geom] if isinstance(geom, Geometry) else geom
        if any(g.bob_eve_distance == bad for g in geoms):
            raise RuntimeError("injected fault")
        return original(geom, beam, noise, profile_provider=profile_provider)

    monkeypatch.setattr(sweeps_mod, "channel_params", flaky)
    rows = run_sweep(spec)
    assert sum(r.error is not None for r in rows) == 1
    assert "injected fault" in [r.error for r in rows if r.error][0]
    assert sum(r.error is None for r in rows) == 3


def test_mu_sweep_wires_rate_inputs():
    rates = RateInputs(mu=1.0, beta=0.95)
    spec = make_spec(parameter="mu", minimum=0.1, maximum=100.0, count=5,
                     rates=rates)
    rows = run_sweep(spec)
    assert all(r.error is None for r in rows)
    # perfect-channel mutual information grows with power
    assert rows[-1].report.lb >= rows[0].report.lb


# ------------------------------------------------------ analytic predictor

def test_predictor_f1_peak_is_link_distance():
    pred = AnalyticPredictor(60e3, BeamParams(LAM, 0.1), 0.1)
    f1_arg, f2_arg, best = analytic_f1_f2(pred)
    assert f1_arg == 60e3
    assert abs(best - 60e3) / 60e3 < 0.1


def test_predictor_f2_branch_formula_100km():
    pred = AnalyticPredictor(100e3, BeamParams(LAM, 0.1), 0.1)
    _, f2_arg, _ = analytic_f1_f2(pred, branch=0)
    assert abs(f2_arg - 100e3) / 100e3 < 0.05


def test_predictor_magnitude_limit():
    # at the matched distance over a very long link the magnitude tends to
    # E0 (1 - e^-9)
    beam = BeamParams(LAM, 0.1)
    pred = AnalyticPredictor(2e6, beam, 0.1)
    mag = pred.magnitude(2e6)
    assert mag / beam.field_peak == pytest.approx(1.0 - math.exp(-9.0), rel=1e-3)


def test_predictor_degenerate_geometry():
    pred = AnalyticPredictor(1e3, BeamParams(LAM, 0.1), crop_radius=0.5)
    with pytest.raises(DegenerateGeometryError):
        analytic_f1_f2(pred)


# ------------------------------------------------------ distance search

@pytest.mark.parametrize("geom", [
    Geometry(Scenario.BEHIND_BOB, 40e3, 5e3),
    Geometry(Scenario.BEHIND_BOB, 25e3, 1e3, eve_offset=0.03, bob_radius=0.12,
             eve_radius=0.08),
], ids=["benchmark", "offset"])
def test_search_grid_geometries_equal_the_constructors(geom):
    # the 1,200-point grid of the benchmark's distance search
    grid = np.geomspace(5e3, 400e3, 1200).tolist()
    points = sweeps._at_distances(geom, grid)
    want = [Geometry(geom.scenario, geom.alice_bob_distance, lbe, geom.eve_offset,
                     geom.bob_radius, geom.eve_radius) for lbe in grid]
    assert points == want
    names = [f.name for f in fields(Geometry)]
    for point, built in zip(points, want):
        assert type(point) is Geometry and hash(point) == hash(built)
        assert [getattr(point, n) for n in names] == [getattr(built, n) for n in names]
    with pytest.raises(FrozenInstanceError):
        points[0].bob_eve_distance = 1.0


@pytest.fixture(scope="module")
def distance_search_cache():
    return cached_propagation()


@pytest.mark.parametrize("optimize_power", [False, True])
def test_distance_search_coarse_grid_equals_per_point_channels(
        monkeypatch, distance_search_cache, optimize_power):
    # the search's first channel call is its coarse grid, batched, and the
    # global row lies at the largest kappa of those channels
    geom = Geometry(Scenario.BEHIND_BOB, 40e3, 50e3)
    beam = BeamParams(LAM, 0.1)
    rates = RateInputs(mu=math.inf, beta=0.95)
    cache = distance_search_cache
    real = sweeps.channel_params
    seen = []

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(sweeps, "channel_params", spy)
    spec = make_spec(geometry=geom, beam=beam, rates=rates, noise=1e-7, minimum=50e3,
                     maximum=400e3, count=200, optimize_power=optimize_power)
    rows = sweeps.optimal_eve_distance(spec, cache)
    # 200 log points and 4 uniform in N over 0.065-0.52, sharing the two ends
    grid = sweeps.distance_grid(spec)
    assert len(grid) == 202
    want = [real(replace(geom, bob_eve_distance=lbe), beam, 1e-7,
                 profile_provider=cache) for lbe in grid]
    assert seen[0] == want
    i = int(np.argmax([ch.kappa for ch in want]))
    assert grid[max(i - 1, 0)] <= rows[0].value <= grid[min(i + 1, len(grid) - 1)]
    assert rows[0].channel.kappa >= want[i].kappa


def _kappas(spec, distances, provider=None):
    """kappa of ``spec``'s geometry at each Bob-Eve distance, in one batch."""
    geoms = [replace(spec.geometry, bob_eve_distance=d) for d in distances]
    return np.array([ch.kappa for ch in channel_params(geoms, spec.beam, spec.noise,
                                                       profile_provider=provider)])


def _local_maxima(values):
    return [i for i in range(1, len(values) - 1)
            if values[i - 1] < values[i] > values[i + 1]]


def test_distance_grid_is_200_log_points_and_6_per_unit_of_fresnel_number():
    assert sweeps.DISTANCE_LOG_POINTS == 200
    assert sweeps.DISTANCE_POINTS_PER_FRESNEL == 6
    # the benchmark's search: N = (r_b + r_e)^2 / (lambda L_BE) spans
    # 0.065-5.2, so ceil(6 x 5.1) + 1 = 32 points uniform in N, two of them
    # the ends the 200 log points share
    spec = make_spec(geometry=Geometry(Scenario.BEHIND_BOB, 40e3, 5e3), minimum=5e3,
                     maximum=400e3, count=1200)
    grid = sweeps.distance_grid(spec)
    assert len(grid) == 230
    assert grid[0] == 5e3 and grid[-1] == 400e3 and np.all(np.diff(grid) > 0)
    assert set(np.geomspace(5e3, 400e3, 200).tolist()) <= set(grid.tolist())
    fresnel = 0.2**2 / (LAM * grid)  # (r_b + r_e)^2 / (lambda L_BE)
    assert np.all(-np.diff(fresnel) <= 1 / 6 * (1 + 1e-12))
    # the spec's count does not enter
    assert np.array_equal(sweeps.distance_grid(replace(spec, count=2)), grid)
    # fig11 re30cm: N spans 0.26-206, so 1,239 points uniform in N
    wide = make_spec(geometry=Geometry(Scenario.BEHIND_BOB, 50e3, 5e3, eve_radius=0.3),
                     minimum=500.0, maximum=400e3)
    assert len(sweeps.distance_grid(wide)) == 1437


@pytest.mark.parametrize("lab, r_e, lbe_range, dense_count, maxima", [
    (40e3, 0.1, (5e3, 400e3), 1000, 1),
    (50e3, 0.3, (4e3, 400e3), 1500, 9),
    (1e3, 0.1, (500.0, 20e3), 1500, 25),
], ids=["benchmark", "fig11-re30cm", "short-link"])
def test_distance_grid_brackets_every_kappa_maximum_of_a_dense_grid(
        lab, r_e, lbe_range, dense_count, maxima):
    # every local maximum of kappa on a dense log grid lies between the two
    # neighbours of a coarse-grid maximum, so the refinement can reach it;
    # the 200 log points alone miss 2 on fig11 re30cm and 4 on the short link
    spec = make_spec(geometry=Geometry(Scenario.BEHIND_BOB, lab, 5e3, eve_radius=r_e),
                     minimum=lbe_range[0], maximum=lbe_range[1])
    grid = sweeps.distance_grid(spec)
    coarse = _kappas(spec, grid)
    dense = np.geomspace(*lbe_range, dense_count)
    peaks = _local_maxima(_kappas(spec, dense))
    assert len(peaks) == maxima
    candidates = _local_maxima(coarse) + [int(np.argmax(coarse))]
    last = len(grid) - 1
    for i in peaks:
        assert any(grid[max(j - 1, 0)] <= dense[i] <= grid[min(j + 1, last)]
                   for j in candidates), dense[i]


def test_distance_search_samples_the_refocus_peak_of_a_long_link():
    # L_AB 1,000 km, 50 times the Rayleigh length: kappa peaks sharply at
    # L_BE = L_AB.  N spans 0.005-0.52, so the points uniform in N are 5;
    # alone, their largest kappa is at 194 km, 0.1% of the peak's.  The
    # log points put one 1% from the peak, at 92% of its kappa, so the
    # global maximum is picked on the peak itself, not on a far flank that
    # happens to beat the ripples.  (Golden section from 194 km still finds
    # the peak, as kappa has one maximum on 99-5,000 km.)
    spec = make_spec(geometry=Geometry(Scenario.BEHIND_BOB, 1000e3, 5e3),
                     minimum=50e3, maximum=5000e3)
    provider = cached_propagation()
    dense = np.geomspace(50e3, 5000e3, 2001)
    i = int(np.argmax(_kappas(spec, dense, provider)))
    fine = np.linspace(dense[i - 1], dense[i + 1], 201)
    fine_kappa = _kappas(spec, fine, provider)
    peak, peak_kappa = fine[np.argmax(fine_kappa)], fine_kappa.max()
    grid = sweeps.distance_grid(spec)
    coarse = _kappas(spec, grid, provider)
    j = int(np.argmax(coarse))
    assert coarse[j] > 0.5 * peak_kappa
    row = optimal_eve_distance(spec, provider)[0]
    assert abs(row.value - peak) <= max(1.0, 1e-3 * grid[j])
    assert row.channel.kappa == pytest.approx(peak_kappa, rel=1e-6)


def _spy_channels(monkeypatch, position):
    """Record the ``position`` of every geometry passed to
    ``sweeps.channel_params`` and the channel object scored there."""
    real = sweeps.channel_params
    positions, channels = [], []

    def spy(geom, *args, **kwargs):
        out = real(geom, *args, **kwargs)
        many = not isinstance(geom, Geometry)
        positions.extend(position(g) for g in (geom if many else [geom]))
        channels.extend(out if many else [out])
        return out

    monkeypatch.setattr(sweeps, "channel_params", spy)
    return positions, channels


def test_distance_search_scores_each_distance_once(monkeypatch, distance_search_cache):
    # no L_BE goes to channel_params twice, and every row carries the
    # channel object the search scored at its distance
    distances, channels = _spy_channels(monkeypatch, lambda g: g.bob_eve_distance)
    spec = make_spec(geometry=Geometry(Scenario.BEHIND_BOB, 40e3, 50e3),
                     rates=RateInputs(mu=math.inf, beta=0.95), noise=1e-7,
                     minimum=50e3, maximum=400e3, count=200)
    rows = sweeps.optimal_eve_distance(spec, distance_search_cache)
    assert len(distances) == len(set(distances)) > 200
    scored = dict(zip(distances, channels))
    assert rows and all(r.channel is scored[r.value] for r in rows)


def test_distance_search_rows_are_the_minimum_then_its_near_dips(monkeypatch):
    # a kappa of log L_BE with the global maximum (rate 1.0), one smooth peak
    # at rate 1.03, one peak at 1.2 (above 1.05x the minimum) and one peak at
    # 1.04 that exists at its grid point alone, so the golden point cannot
    # beat it; the rate falls as kappa rises, as every objective does
    spec = make_spec(minimum=1e3, maximum=1e5, count=200)
    grid = np.geomspace(1e3, 1e5, 200)
    needle = float(grid[40])
    centers = {100.3: 1.0, 150.6: 1.03, 170.4: 1.2}  # at fractional grid indices
    step = math.log(grid[1] / grid[0])

    def rate(lbe):
        if lbe == needle:
            return 1.04
        t = math.log(lbe / grid[0]) / step
        return min([2.0] + [v + 0.01 * (t - c) ** 2 for c, v in centers.items()])

    def channels(g, *args, **kwargs):
        if isinstance(g, list):
            return [channels(x) for x in g]
        return SimpleNamespace(lbe=g.bob_eve_distance, kappa=2.0 - rate(g.bob_eve_distance))

    monkeypatch.setattr(sweeps, "channel_params", channels)
    for objective in OBJECTIVES:
        # the objective's own report field holds the rate; the others would
        # keep every peak
        field = "lb" if objective == "lb_max" else objective

        def report(ch, *args, **kwargs):
            fields = dict.fromkeys(RateReport.__dataclass_fields__, 0.0)
            return SimpleNamespace(**{**fields, field: rate(ch.lbe)})

        monkeypatch.setattr(sweeps, "rate_report", report)
        rows = sweeps.optimal_eve_distance(
            replace(spec, objective=objective),
            ProfileCache(compute=lambda *args: None).get_or_compute)
        assert [r.value for r in rows] == [
            pytest.approx(grid[0] * math.exp(100.3 * step), rel=1e-3), needle,
            pytest.approx(grid[0] * math.exp(150.6 * step), rel=1e-3)]
        assert [getattr(r.report, field) for r in rows] == [
            pytest.approx(1.0, abs=1e-4), 1.04, pytest.approx(1.03, abs=1e-4)]
        assert all(r.channel.lbe == r.value and r.d_opt == 0.0 for r in rows)


# ------------------------------------------------------ offset optimization

def test_offset_returns_zero_past_reconvergence(monkeypatch):
    beam = BeamParams(LAM, 0.1)
    geom = Geometry(Scenario.BEHIND_BOB, 40e3, 60e3)
    rates = RateInputs(mu=math.inf, beta=1.0)
    offsets = []
    real = sweeps.channel_params

    def spy(g, *args, **kwargs):
        offsets.append(g.eve_offset)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(sweeps, "channel_params", spy)
    spec = make_spec(geometry=geom, beam=beam, rates=rates)
    row, on_axis = optimize_eve_offset(spec, geom.bob_eve_distance)
    assert row.d_opt == 0.0
    assert row.report.lb > 0.0
    assert row == on_axis
    assert offsets.count(0.0) == 1  # the on-axis rate is computed once
    assert len(offsets) == len(set(offsets))


def test_offset_search_scores_each_offset_once(monkeypatch):
    # 1 km behind a 50 km link Eve's best offset lies off axis; no offset
    # goes to channel_params twice, and both rows carry the channel objects
    # the search scored there
    offsets, channels = _spy_channels(monkeypatch, lambda g: g.eve_offset)
    geom = Geometry(Scenario.BEHIND_BOB, 50e3, 1e3)
    row, on_axis = optimize_eve_offset(make_spec(geometry=geom), 1e3)
    assert row.d_opt > 0.1
    assert len(offsets) == len(set(offsets))
    scored = dict(zip(offsets, channels))
    assert row.channel is scored[row.d_opt] and on_axis.channel is scored[0.0]


def test_offset_search_reaches_the_largest_offset(monkeypatch):
    # a kappa whose one maximum lies between 2 d_max / 3 and d_max, the
    # largest offset the search tries: the last golden bracket must hold it
    beam = BeamParams(LAM, 0.1)
    geom = Geometry(Scenario.BEHIND_BOB, 40e3, 5e3)
    d_max = sweeps._offset_search_disk(geom, beam).center_offset
    target = 0.9 * d_max

    def channel_at(g, *args, **kwargs):
        return SimpleNamespace(d=g.eve_offset, kappa=0.5 - (g.eve_offset - target) ** 2)

    monkeypatch.setattr(sweeps, "channel_params", channel_at)
    monkeypatch.setattr(sweeps, "rate_report", lambda ch, *a, **k: 1.5 - ch.kappa)
    cache = ProfileCache(compute=lambda *args: None)
    spec = make_spec(geometry=geom, beam=beam, rates=RateInputs())
    row, _ = optimize_eve_offset(spec, geom.bob_eve_distance, cache.get_or_compute)
    d_star, rate = row.d_opt, row.report
    assert row.channel.d == d_star
    assert 2.0 * d_max / 3.0 < d_star < d_max
    assert d_star == pytest.approx(target, abs=1e-3)
    assert rate == pytest.approx(1.0, abs=1e-6)


# ------------------------------------------------------ bright-spot curve

def test_arago_curve_tiny_obstacle_reduces_to_plain_beam():
    beam = BeamParams(LAM, 0.1)
    geom = Geometry(Scenario.BEHIND_BOB, 15e3, 10e3, bob_radius=1e-4)
    rates = RateInputs(mu=math.inf, beta=1.0)
    spec = make_spec(geometry=geom, beam=beam, rates=rates, minimum=10e3,
                     maximum=20e3, count=2)
    rows = arago_prediction_curve(spec)
    assert rows[0].value == 10e3
    from fsoqkd.beams import encircled_power

    want = encircled_power(beam, 25e3, 0.1)
    assert rows[0].channel.p_eve == pytest.approx(want, rel=1e-3)


def test_arago_curve_requires_on_axis():
    beam = BeamParams(LAM, 0.1)
    geom = Geometry(Scenario.BEHIND_BOB, 15e3, 10e3, eve_offset=0.05)
    rates = RateInputs(mu=math.inf, beta=1.0)
    with pytest.raises(ValueError):
        arago_prediction_curve(make_spec(geometry=geom, beam=beam, rates=rates,
                                         minimum=10e3, maximum=20e3, count=2))


# ---------------------------------------------- the work a producer needs

def work_at(spec, value):
    src, distance, disk = profile_request(*_apply_parameter(spec, value)[:2])
    return profile_work(src, distance, disk.center_offset + disk.radius)


# (sweep parameter, spec settings, +1 if the work rises with the value):
# each over the whole range of valid values behind or before Bob
BEFORE = Geometry(Scenario.BEFORE_BOB, 40e3, 10e3)
MONOTONE = {
    "L_BE": (dict(minimum=1.0, maximum=1e7), -1),
    "L_AE": (dict(minimum=1.0, maximum=40e3 - 1.0, geometry=BEFORE), 1),
    "L_AE-behind": (dict(parameter="L_AE", minimum=1.0, maximum=20e3 - 1.0), 1),
    "D": (dict(minimum=0.0, maximum=10.0, spacing="linear"), 1),
    "L_AB": (dict(minimum=1.0, maximum=1e7), 1),
    "L_AB-tied": (dict(parameter="L_AB", minimum=1.0, maximum=1e7,
                       tie_bob_eve_to_link=True), -1),
    "L_AB-before": (dict(parameter="L_AB", minimum=10e3 + 1.0, maximum=1e7,
                         geometry=BEFORE), 1),
    "r_e": (dict(minimum=1e-3, maximum=10.0), 1),
    "r_e-before": (dict(parameter="r_e", minimum=1e-3, maximum=10.0, geometry=BEFORE), 1),
}


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(sorted(MONOTONE)), shares=st.lists(
    st.floats(0.0, 1.0), min_size=2, max_size=2), w0=st.floats(0.01, 0.5))
def test_profile_work_is_monotone_in_each_swept_parameter(case, shares, w0):
    # what check_producer relies on: so no grid point is cheaper than the
    # cheaper end of a sweep.  The phase, which sets the node count, may
    # step back by rounding where two factors move (L_AB tied to L_BE);
    # the Bessel orders are exact.
    kw, rise = MONOTONE[case]
    kw = {"parameter": case.split("-")[0], **kw}
    spec = make_spec(beam=BeamParams(LAM, w0), **kw)
    lo, hi = sorted(spec.minimum + f * (spec.maximum - spec.minimum) for f in shares)
    low, high = work_at(spec, lo), work_at(spec, hi)
    if rise < 0:
        low, high = high, low
    assert low.phase <= high.phase * (1.0 + 1e-12)
    assert low.terms <= high.terms


@settings(max_examples=100, deadline=None)
@given(lab=st.floats(1e3, 1e6), w0=st.floats(1e-3, 10.0))
def test_profile_work_is_least_at_the_waist_check_producer_tries(lab, w0):
    spec = make_spec(parameter="W0", minimum=1e-3, maximum=10.0,
                     geometry=Geometry(Scenario.BEHIND_BOB, lab, 5e3))
    least = math.sqrt(lab * LAM / math.pi)
    assert work_at(spec, least).reach <= work_at(spec, w0).reach * (1.0 + 1e-12)


def test_w0_sweep_over_budget_at_both_ends_runs_at_its_middle():
    # 500 m behind Bob, the waist W0 = 1 mm or 20 m spreads the beam at
    # Bob's plane over too many nodes, while W0 = 0.14 m does not
    spec = make_spec(parameter="W0", minimum=1e-3, maximum=20.0, count=3,
                     geometry=Geometry(Scenario.BEHIND_BOB, 40e3, 500.0))
    ends = [work_at(spec, v).nodes for v in (spec.minimum, spec.maximum)]
    assert min(ends) > 60_000 > work_at(spec, spec.grid()[1]).nodes
    check_producer(spec, run_sweep)
    rows = run_sweep(spec)
    assert [r.error is None for r in rows] == [False, True, False]
    with pytest.raises(ValueError, match=r"sweep W0 = 0\.0015: profile grid needs \d+ nodes"):
        check_producer(replace(spec, maximum=1.5e-3), run_sweep)


@pytest.mark.parametrize("producer", [optimal_eve_distance, optimal_eve_offsets])
def test_check_producer_names_what_a_search_needs(producer):
    spec = make_spec(parameter="mu", minimum=0.1, maximum=10.0)
    with pytest.raises(ValueError, match="behind_bob and sweep_parameter = L_BE"):
        check_producer(spec, producer)
    with pytest.raises(ValueError, match="scans Bob-Eve distances"):
        producer(spec)


def test_check_producer_decides_at_each_searchs_own_point():
    # L_BE from 5 m: the distance search needs every coarse point, so it
    # fails at 5 m; the offset search is decided at the farthest distance,
    # and its nearest one is an error row
    spec = make_spec(minimum=5.0, maximum=20e3, count=2)
    with pytest.raises(ValueError, match="search at L_BE = 5.0: profile grid"):
        check_producer(spec, optimal_eve_distance)
    check_producer(spec, optimal_eve_offsets)
    rows, _ = optimal_eve_offsets(spec)
    assert "QuadratureError" in rows[0].error and rows[1].error is None
    assert rows[1].d_opt > 0.0
    check_producer(spec, run_sweep)
    # 20-50 m: Eve's own disk fits the budget at 50 m, the disk of the
    # offset search's largest offset (r_b + 3 W + r_e = 0.62 m) does not
    near = make_spec(minimum=20.0, maximum=50.0, count=2)
    check_producer(near, run_sweep)
    with pytest.raises(ValueError, match="optimization at L_BE = 50.0: profile grid"):
        check_producer(near, optimal_eve_offsets)


def test_wavefront_check_covers_every_map():
    maps = SimpleNamespace(half_width=0.35, distances=(60e3, 3.0))
    spec = make_spec()
    with pytest.raises(ValueError, match="wavefront map at 3.0 m: profile grid"):
        check_producer(spec, wavefront_profiles, maps)
    maps = SimpleNamespace(half_width=0.35, distances=(60e3,))
    check_producer(spec, wavefront_profiles, maps)
    assert len(wavefront_profiles(spec, maps)) == 1
    with pytest.raises(ValueError, match="on-axis"):
        check_producer(replace(spec, geometry=replace(spec.geometry, eve_offset=0.1)),
                       wavefront_profiles, maps)
