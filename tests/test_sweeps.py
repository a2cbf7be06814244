import math
from dataclasses import replace

import numpy as np
import pytest

from fsoqkd import sweeps
from fsoqkd.beams import BeamParams
from fsoqkd.channel import Geometry, Scenario, channel_params
from fsoqkd.rates import RateInputs
from fsoqkd.sweeps import (AnalyticPredictor, DegenerateGeometryError,
                           ProfileCache, SweepSpec, analytic_f1_f2,
                           arago_prediction_curve, optimize_eve_offset,
                           run_sweep)

LAM = 1550e-9


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
    cache = ProfileCache()
    spec = make_spec(count=6)
    rows_a = run_sweep(spec, cache=cache)
    rows_b = run_sweep(spec, cache=cache)  # warm cache
    for a, b in zip(rows_a, rows_b):
        assert a.channel.eta == b.channel.eta
        assert a.channel.kappa == b.channel.kappa
        assert a.report.lb == b.report.lb


def test_sweep_threaded_matches_serial():
    spec = make_spec(count=8)
    serial = run_sweep(spec, threads=1)
    threaded = run_sweep(spec, threads=4)
    for a, b in zip(serial, threaded):
        assert a.channel.kappa == b.channel.kappa
        assert a.report.lb == b.report.lb


def test_sweep_records_row_errors_without_aborting(monkeypatch):
    import fsoqkd.sweeps as sweeps_mod

    calls = {"n": 0}
    original = sweeps_mod.channel_params

    def flaky(geom, beam, noise, profile_provider=None):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected fault")
        return original(geom, beam, noise, profile_provider=profile_provider)

    monkeypatch.setattr(sweeps_mod, "channel_params", flaky)
    rows = run_sweep(make_spec(count=4))
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

@pytest.fixture(scope="module")
def distance_search_cache():
    return ProfileCache()


@pytest.mark.parametrize("optimize_power", [False, True])
def test_distance_search_coarse_grid_equals_per_point_channels(
        monkeypatch, distance_search_cache, optimize_power):
    # the search's first 200 scores are its coarse grid, batched
    geom = Geometry(Scenario.BEHIND_BOB, 40e3, 50e3)
    beam = BeamParams(LAM, 0.1)
    rates = RateInputs(mu=math.inf, beta=0.95)
    cache = distance_search_cache
    score = sweeps._geometry_score
    seen = []

    def spy(ch, *args):
        seen.append((ch, score(ch, *args)))
        return seen[-1][1]

    monkeypatch.setattr(sweeps, "_geometry_score", spy)
    sweeps.optimal_eve_distance(geom, beam, rates, 1e-7, search_range=(50e3, 400e3),
                                n_coarse=200, cache=cache,
                                optimize_power=optimize_power)
    want = [channel_params(replace(geom, bob_eve_distance=lbe), beam, 1e-7,
                           profile_provider=cache.get_or_compute)
            for lbe in np.geomspace(50e3, 400e3, 200)]
    assert [ch for ch, _ in seen[:200]] == want
    assert [v for _, v in seen[:200]] == [
        score(ch, rates, "lb_max", optimize_power) for ch in want]


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
    d_star, rate = optimize_eve_offset(geom, beam, rates, 0.0)
    assert d_star == 0.0
    assert rate > 0.0
    assert offsets.count(0.0) == 1  # the on-axis rate is computed once


# ------------------------------------------------------ bright-spot curve

def test_arago_curve_tiny_obstacle_reduces_to_plain_beam():
    beam = BeamParams(LAM, 0.1)
    geom = Geometry(Scenario.BEHIND_BOB, 15e3, 10e3, bob_radius=1e-4)
    rates = RateInputs(mu=math.inf, beta=1.0)
    rows = arago_prediction_curve(geom, beam, rates, 0.0, [10e3])
    from fsoqkd.beams import encircled_power

    want = encircled_power(beam, 25e3, 0.1)
    assert rows[0].channel.p_eve == pytest.approx(want, rel=1e-3)


def test_arago_curve_requires_on_axis():
    beam = BeamParams(LAM, 0.1)
    geom = Geometry(Scenario.BEHIND_BOB, 15e3, 10e3, eve_offset=0.05)
    rates = RateInputs(mu=math.inf, beta=1.0)
    with pytest.raises(ValueError):
        arago_prediction_curve(geom, beam, rates, 0.0, [10e3])
