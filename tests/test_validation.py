"""Each setting is checked once, in the object that uses it: NaN and ±inf
fail every range, a mistyped config field fails its type check, and the CLI
turns either into exit code 2 before it writes anything."""

import json
import math
from dataclasses import fields

import pytest

from fsoqkd import cli
from fsoqkd.beams import BeamParams
from fsoqkd.channel import Geometry, Scenario, thermal_occupation
from fsoqkd.config import RunConfig, WavefrontSettings
from fsoqkd.diffraction import DiskSpec, SourceAnnulus
from fsoqkd.rates import RateInputs
from fsoqkd.sweeps import SweepSpec

LAM = 1550e-9
BEAM = BeamParams(LAM, 0.1)
NONFINITE = (math.nan, math.inf, -math.inf)

CONFIG = {"scenario": "behind_bob", "alice_bob_distance": 40_000.0,
          "sweep_parameter": "L_BE", "sweep_min": 20_000.0,
          "sweep_max": 400_000.0, "sweep_count": 3, "noise_override": 1e-8}

# (domain object, valid arguments, the numeric arguments it checks)
DOMAIN = [
    (BeamParams, dict(wavelength=LAM, waist_radius=0.1),
     ("wavelength", "waist_radius", "field_peak")),
    (Geometry, dict(scenario=Scenario.BEHIND_BOB, alice_bob_distance=40e3,
                    bob_eve_distance=40e3),
     ("alice_bob_distance", "bob_eve_distance", "eve_offset", "bob_radius",
      "eve_radius")),
    (DiskSpec, dict(radius=0.1), ("radius", "center_offset")),
    (SourceAnnulus, dict(beam=BEAM, plane_distance=40e3, inner_radius=0.1),
     ("plane_distance", "inner_radius")),
    (RateInputs, dict(), ("mu", "beta", "f_L", "pulse_rate", "misalignment")),
    (thermal_occupation, dict(frequency=2e14, temperature=3.0),
     ("frequency", "temperature")),
    (SweepSpec, dict(parameter="L_BE", minimum=1e3, maximum=1e5, count=3,
                     geometry=Geometry(Scenario.BEHIND_BOB, 40e3, 40e3),
                     beam=BEAM, rates=RateInputs()),
     ("minimum", "maximum", "noise")),
    (WavefrontSettings, dict(), ("half_width",)),
]


def _domain_cases():
    for build, valid, names in DOMAIN:
        for name in names:
            for value in NONFINITE:
                if (build, name, value) == (RateInputs, "mu", math.inf):
                    continue  # the infinite-power sentinel
                yield pytest.param(build, valid, {name: value},
                                   id=f"{build.__name__}.{name}={value}")


@pytest.mark.parametrize("build, valid, override", _domain_cases())
def test_domain_objects_reject_nan_and_inf(build, valid, override):
    build(**valid)
    with pytest.raises(ValueError):
        build(**{**valid, **override})


# JSON values of every type but the field's
MISTYPED = {"bool": [1, "true", None, [True]], "str": [1, True, None, ["x"]],
            "int": [2.5, "3", True, None, [3]], "float": [True, False]}


def _config_cases():
    for name in [f.name for f in fields(RunConfig) if f.type in ("float", "float | None")]:
        for value in NONFINITE:
            if (name, value) == ("mu", math.inf):
                continue  # the infinite-power sentinel
            yield pytest.param("sweep", {name: value}, id=f"{name}={value}")
    for value in NONFINITE:
        yield pytest.param("wavefront", {"wavefront": {"half_width": value}},
                           id=f"wavefront.half_width={value}")
        yield pytest.param("wavefront", {"wavefront": {"distances": [1e3, value]}},
                           id=f"wavefront.distances={value}")
    for f in fields(RunConfig):
        kind = "float" if f.type in ("float", "float | None") else f.type
        for value in MISTYPED.get(kind, ()):
            yield pytest.param("sweep", {f.name: value}, id=f"{f.name}={value!r}")
    for value in MISTYPED["int"]:
        yield pytest.param("wavefront", {"wavefront": {"pixels": value}},
                           id=f"wavefront.pixels={value!r}")
    for value in MISTYPED["float"]:
        yield pytest.param("wavefront", {"wavefront": {"half_width": value}},
                           id=f"wavefront.half_width={value!r}")
        # a half-width small enough that a map 1 m behind Bob is within budget
        yield pytest.param("wavefront", {"wavefront": {"half_width": 0.001,
                                                       "distances": [value]}},
                           id=f"wavefront.distances={value!r}")
    # settings that once ended in a traceback, in error rows, in inf or nan
    # rates, or in a RuntimeWarning
    for override in ({"waist_radius": math.inf},
                     {"temperature": math.inf},
                     {"temperature": math.inf, "noise_override": None},
                     {"eve_offset": math.nan},
                     {"alice_bob_distance": math.inf},
                     {"eve_radius": math.inf},
                     {"wavelength": math.inf},
                     {"sweep_max": math.inf},
                     {"noise_override": math.inf},
                     {"pulse_rate": math.inf},
                     {"optimize_mu": math.nan},
                     {"waist_radius": 1e-200},
                     {"waist_radius": 1e200},
                     {"wavelength": 1e300},
                     {"temperature": 1e-320, "noise_override": None},
                     {"bob_radius": 1e-300}):
        yield pytest.param("sweep", override, id="regression:" + ",".join(
            f"{k}={v}" for k, v in override.items()))
    yield pytest.param("wavefront", {"wavefront": {"half_width": 1e300}},
                       id="regression:wavefront.half_width=1e300")
    # a search grid that needs more profile nodes than the budget, which
    # once ended in a QuadratureError traceback
    yield pytest.param("optimal-distance", {"sweep_min": 1.0},
                       id="regression:optimal-distance.sweep_min=1.0")
    # a bright-spot overlay asked of a sweep that has none, which once
    # wrote the sweep alone and exited 0
    for case, override in (
            ("mu-sweep", {"sweep_parameter": "mu", "sweep_min": 0.1, "sweep_max": 10.0}),
            ("off-axis", {"eve_offset": 0.05}),
            ("before-bob", {"scenario": "before_bob", "bob_eve_distance": 20_000.0,
                            "sweep_min": 1_000.0, "sweep_max": 20_000.0})):
        yield pytest.param("sweep", {"emit_arago_overlay": True, **override},
                           id=f"arago-overlay:{case}")


@pytest.mark.parametrize("command, override", _config_cases())
def test_nonfinite_or_mistyped_config_exits_2(tmp_path, capsys, command, override):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**CONFIG, **override}))
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_sweep_over_budget_row_is_an_error_row(tmp_path, capsys):
    # the grid that makes optimal-distance exit 2 is one error row of a sweep
    config = tmp_path / "budget.json"
    config.write_text(json.dumps({**CONFIG, "sweep_min": 1.0}))
    assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 1
    rows = (tmp_path / "budget__run.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["1.0", "632.4555320336759", "400000.0"]
    assert "QuadratureError: profile grid needs 736749 nodes" in rows[0]
    assert not any("Error" in r for r in rows[1:])
    assert "1 error rows recorded" in capsys.readouterr().err


# finite settings whose every row once failed (exit 1, or a traceback from
# beams.plane_params): the profile's work is over budget, or past the
# largest double, at the one point that decides each command
NO_ROW = {"waist_radius=1e-150": {"waist_radius": 1e-150},
          "alice_bob_distance=1e300": {"alice_bob_distance": 1e300},
          "waist_radius=1e-30": {"waist_radius": 1e-30},
          "eve_offset=1e300": {"eve_offset": 1e300},
          # z0 underflows to 0: a ZeroDivisionError traceback from plane_params
          "wavelength=1e30,waist_radius=1e-150": {"wavelength": 1e30, "waist_radius": 1e-150}}


def _no_row_cases():
    for name, override in NO_ROW.items():
        commands = ("sweep", "optimal-distance")
        if name != "eve_offset=1e300":  # the offset search sets its own offsets
            commands += ("optimize-d", "wavefront")
        for command in commands:
            yield pytest.param(command, override, id=f"{command}:{name}")


@pytest.mark.parametrize("command, override", _no_row_cases())
def test_config_that_can_give_no_row_exits_2(tmp_path, capsys, command, override):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**CONFIG, **override}))
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "budget is" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_offset_search_ignores_the_config_offset(tmp_path):
    # eve_offset 1e300 makes no row of a sweep, but the offset search
    # places Eve itself: the same files as on the axis, exit 0
    outs = []
    for i, offset in enumerate((1e300, 0.0)):
        config = tmp_path / f"offset{i}.json"
        config.write_text(json.dumps({**CONFIG, "sweep_count": 2, "eve_offset": offset}))
        out = tmp_path / f"out{i}"
        assert cli.main(["optimize-d", "--config", str(config), "--out", str(out)]) == 0
        outs.append({p.name.replace(f"offset{i}", ""): p.read_bytes()
                     for p in sorted(out.iterdir())})
    assert outs[0] == outs[1] and len(outs[0]) == 2
