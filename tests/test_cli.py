"""CLI runs: the on-disk profile cache, config errors, and every command on
tiny grids."""

import csv
import functools
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fsoqkd import cache, channel, cli, diffraction, sweeps
from fsoqkd.beams import BeamParams
from fsoqkd.channel import ChannelParams
from fsoqkd.config import RunConfig
from fsoqkd.diffraction import DiskSpec, SourceAnnulus, propagate_profile
from fsoqkd.rates import OBJECTIVES, upper_bound
from fsoqkd.recipes import build_recipe

CACHE_ENV_VAR = "FSOQKD_CACHE"

CONFIG = {"scenario": "behind_bob", "alice_bob_distance": 40_000.0,
          "sweep_parameter": "L_BE", "sweep_min": 20_000.0,
          "sweep_max": 400_000.0, "sweep_count": 3, "noise_override": 1e-8}


@pytest.fixture
def sweep(tmp_path, monkeypatch):
    """Run ``fsoqkd sweep`` on a 3-point grid; returns (propagations, csv bytes)."""
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv(CACHE_ENV_VAR, str(cache_dir))
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return diffraction.propagate_profile(*args, **kwargs)

    monkeypatch.setattr(cache, "propagate_profile", counted)

    def run():
        calls.clear()
        assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        return len(calls), (out / "grid__run.csv").read_bytes()

    run.cache_dir = cache_dir
    return run


def test_warm_cache_run_is_identical_and_computes_nothing(sweep):
    computed, cold = sweep()
    assert computed == 3
    assert len(list(sweep.cache_dir.glob("*.profile"))) == 3
    computed, warm = sweep()
    assert computed == 0
    assert warm == cold


@pytest.mark.parametrize("command,config,files", [
    ("optimal-distance", {**CONFIG, "sweep_min": 50_000.0}, ["grid__run.csv"]),
    ("optimize-d", {**CONFIG, "sweep_count": 2}, ["grid__run.csv", "grid__run_d0.csv"]),
], ids=["optimal-distance", "optimize-d"])
def test_warm_search_run_is_identical_and_computes_nothing(tmp_path, monkeypatch,
                                                           command, config, files):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return diffraction.propagate_profile(*args, **kwargs)

    monkeypatch.setattr(cache, "propagate_profile", counted)
    computed = []
    for run in ("cold", "warm"):
        calls.clear()
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / run)]) == 0
        computed.append(len(calls))
    assert computed[0] > 0 and computed[1] == 0
    for name in files:
        assert (tmp_path / "warm" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()


def test_truncated_cache_entry_is_recomputed(sweep):
    _, cold = sweep()
    entry = sorted(sweep.cache_dir.glob("*.profile"))[1]
    blob = entry.read_bytes()
    entry.write_bytes(blob[:len(blob) // 2])
    computed, again = sweep()
    assert computed == 1
    assert again == cold
    assert entry.read_bytes() == blob


def test_old_record_version_is_recomputed(sweep):
    _, cold = sweep()
    entry = sorted(sweep.cache_dir.glob("*.profile"))[0]
    blob = entry.read_bytes()
    entry.write_bytes(struct.pack("<I", diffraction.SERIALIZATION_VERSION - 1) + blob[4:])
    computed, again = sweep()
    assert computed == 1
    assert again == cold
    assert entry.read_bytes() == blob


def test_record_of_an_older_grid_policy_is_never_read(sweep, monkeypatch):
    # policy 3 recurrences started a margin above the tail order; a record of
    # the entry's key stored under it, with its amplitudes doubled so that a
    # read would show, is left alone and the profile is computed again
    _, cold = sweep()
    entry = sorted(sweep.cache_dir.glob("*.profile"))[0]
    profile = diffraction.deserialize_profile(entry.read_bytes())
    old = replace(profile, complex_amplitudes=2.0 * profile.complex_amplitudes)
    entry.unlink()
    with monkeypatch.context() as policy:
        policy.setattr(cache, "GRID_POLICY_VERSION", 3)
        old_entry = sweep.cache_dir / cache._filename(profile.key)
        old_entry.write_bytes(diffraction.serialize_profile(old))
    assert cache.GRID_POLICY_VERSION == diffraction.GRID_POLICY_VERSION > 3
    computed, again = sweep()
    assert computed == 1
    assert again == cold
    assert old_entry.read_bytes() == diffraction.serialize_profile(old)


def test_one_node_cache_entry_is_recomputed(sweep):
    _, cold = sweep()
    entry = sorted(sweep.cache_dir.glob("*.profile"))[2]
    blob = entry.read_bytes()
    # a well-formed record of the entry's key whose count and body are cut
    # to the axis node
    size = diffraction._HEADER.size
    entry.write_bytes(blob[:size - 16] + struct.pack("<Q", 1) + blob[size - 8:size + 40])
    computed, again = sweep()
    assert computed == 1
    assert again == cold
    assert entry.read_bytes() == blob


@pytest.mark.parametrize("column,value", [(0, float("nan")), (1, float("inf")),
                                          (4, float("nan"))],
                         ids=["nan-node", "inf-amplitude", "nan-slope"])
def test_non_finite_cache_entry_is_recomputed(sweep, caplog, column, value):
    # read as it is, such a record gives a row with kappa nan and no error
    _, cold = sweep()
    entry = sorted(sweep.cache_dir.glob("*.profile"))[1]
    blob = entry.read_bytes()
    at = diffraction._HEADER.size + 40 * 5 + 8 * column
    entry.write_bytes(blob[:at] + struct.pack("<d", value) + blob[at + 8:])
    computed, again = sweep()
    assert "unreadable" in caplog.text and "corrupt" in caplog.text
    assert computed == 1
    assert again == cold
    assert entry.read_bytes() == blob


def test_record_of_another_profile_is_recomputed(sweep, caplog):
    _, cold = sweep()
    first, second = sorted(sweep.cache_dir.glob("*.profile"))[:2]
    blob = second.read_bytes()
    # a valid record whose key is not the one its file name stands for
    second.write_bytes(first.read_bytes())
    computed, again = sweep()
    assert "does not match its key" in caplog.text
    assert computed == 1
    assert again == cold
    assert second.read_bytes() == blob


# Offsets of the key fields in a record: the header's beam, annulus and
# distance doubles follow the uint32 version; the coverage is the last node.
KEY_FIELD_AT = {"wavelength": 4, "inner-radius": 36, "distance": 44, "coverage": -40}


@pytest.mark.parametrize("field", list(KEY_FIELD_AT))
def test_record_of_a_key_one_ulp_away_is_recomputed(sweep, caplog, field):
    # a valid record that differs from the request in one key field alone,
    # by one ulp upwards (so the grid still increases), is not read
    _, cold = sweep()
    entry = sorted(sweep.cache_dir.glob("*.profile"))[1]
    blob = entry.read_bytes()
    at = KEY_FIELD_AT[field] % len(blob)
    value = math.nextafter(struct.unpack_from("<d", blob, at)[0], math.inf)
    entry.write_bytes(blob[:at] + struct.pack("<d", value) + blob[at + 8:])
    assert diffraction.deserialize_profile(entry.read_bytes()).key != \
        diffraction.deserialize_profile(blob).key
    computed, again = sweep()
    assert "does not match its key" in caplog.text and "unreadable" not in caplog.text
    assert computed == 1
    assert again == cold
    assert entry.read_bytes() == blob


def test_cache_read_returns_the_callers_source(tmp_path, monkeypatch):
    # an equal but distinct annulus reads the record written for the first
    # one, and the profile holds the annulus of the request
    disk = cache.ProfileDiskCache(tmp_path)
    beam = BeamParams(1550e-9, 0.1)
    first = SourceAnnulus(beam, 40_000.0, 0.1)
    [written] = disk.get_or_compute([(first, 30_000.0)], DiskSpec(0.1))
    monkeypatch.setattr(cache, "propagate_profile", None)  # a computation would fail
    again = SourceAnnulus(BeamParams(1550e-9, 0.1), 40_000.0, 0.1)
    assert again == first and again is not first
    [read] = disk.get_or_compute([(again, 30_000.0)], DiskSpec(0.1))
    assert read.source is again
    assert read.key == written.key
    assert np.array_equal(read.complex_amplitudes, written.complex_amplitudes)
    assert read.budget == written.budget


# one batch of requests, as a channel call over a distance grid makes
BATCH_SOURCE = SourceAnnulus(BeamParams(1550e-9, 0.1), 40_000.0, 0.1)
BATCH = [(BATCH_SOURCE, d) for d in np.geomspace(5e3, 400e3, 10).tolist()]
BATCH_HINT = DiskSpec(0.1)


@pytest.fixture
def counted_disk(tmp_path, monkeypatch):
    """A disk cache whose ``computed`` list holds the distance of each
    propagate_profile call it makes and ``written`` the path of each write."""
    disk = cache.ProfileDiskCache(tmp_path / "cache")
    disk.computed, disk.written = [], []
    propagate, write = cache.propagate_profile, cache.ProfileDiskCache._write_atomic

    def counted_propagate(src, distance, disk_hint):
        disk.computed.append(distance)
        return propagate(src, distance, disk_hint)

    def counted_write(self, path, blob):
        disk.written.append(path)
        write(self, path, blob)

    monkeypatch.setattr(cache, "propagate_profile", counted_propagate)
    monkeypatch.setattr(cache.ProfileDiskCache, "_write_atomic", counted_write)
    return disk


def test_batch_computes_and_writes_each_miss_once(counted_disk):
    disk = counted_disk
    cold = disk.get_or_compute(BATCH, BATCH_HINT)
    assert disk.computed == [d for _, d in BATCH]
    paths = list(disk.written)
    assert len(set(paths)) == len(BATCH)
    disk.computed.clear()
    disk.written.clear()
    warm = disk.get_or_compute(BATCH, BATCH_HINT)
    assert disk.computed == [] and disk.written == []
    assert [diffraction.serialize_profile(p) for p in warm] == \
        [diffraction.serialize_profile(p) for p in cold]
    # a batch of records and misses computes and writes the misses alone
    misses = [0, 4, 9]
    for i in misses:
        os.unlink(paths[i])
    again = disk.get_or_compute(BATCH, BATCH_HINT)
    assert disk.computed == [BATCH[i][1] for i in misses]
    assert disk.written == [paths[i] for i in misses]
    assert [diffraction.serialize_profile(p) for p in again] == \
        [diffraction.serialize_profile(p) for p in cold]


def _set_double(blob, at, value):
    return blob[:at] + struct.pack("<d", value) + blob[at + 8:]


def test_batch_recomputes_and_rewrites_only_its_bad_records(counted_disk, caplog):
    disk = counted_disk
    disk.get_or_compute(BATCH, BATCH_HINT)
    paths = list(disk.written)
    blobs = [Path(p).read_bytes() for p in paths]
    rows = diffraction._HEADER.size
    second_node = struct.unpack_from("<d", blobs[6], rows + 40)[0]
    faults = {
        1: blobs[1][:-8],
        4: _set_double(blobs[4], rows + 40 * 3 + 8, math.nan),
        6: _set_double(blobs[6], rows + 40 * 2, second_node),
        8: _set_double(blobs[8], KEY_FIELD_AT["distance"],
                       math.nextafter(BATCH[8][1], math.inf)),
    }
    for i, blob in faults.items():
        Path(paths[i]).write_bytes(blob)
    disk.computed.clear()
    disk.written.clear()
    caplog.clear()
    read = disk.get_or_compute(BATCH, BATCH_HINT)
    bad = sorted(faults)
    assert disk.computed == [BATCH[i][1] for i in bad]
    assert disk.written == [paths[i] for i in bad]
    names = [os.path.basename(paths[i]) for i in bad]
    expect = len(blobs[1])
    assert caplog.messages == [
        f"cache entry {names[0]} unreadable (profile record truncated: "
        f"{expect - 8} bytes, expected {expect}); recomputing",
        f"cache entry {names[1]} unreadable (profile record corrupt: a value is "
        f"not finite); recomputing",
        f"cache entry {names[2]} unreadable (profile record corrupt: bad radial "
        f"grid); recomputing",
        f"cache entry {names[3]} does not match its key; recomputing"]
    assert [Path(p).read_bytes() for p in paths] == blobs
    # the others are read from their records: read-only views, not computed
    assert [p.radial_nodes.flags.writeable for p in read] == \
        [i in faults for i in range(len(BATCH))]
    assert [diffraction.serialize_profile(p) for p in read] == blobs


def test_batch_read_of_the_warm_search_equals_one_read_per_record(tmp_path):
    # the distance search of the benchmark's warm workload, on its filled cache
    config = {**CONFIG, "sweep_min": 5_000.0, "sweep_count": 1200}
    spec = RunConfig.from_json(json.dumps(config)).sweep_spec()
    disk = cache.ProfileDiskCache(tmp_path)
    batches = []

    def recorded(requests, disk_hint):
        batches.append((requests, disk_hint))
        return disk.get_or_compute(requests, disk_hint)

    sweeps.optimal_eve_distance(spec, recorded)
    requests = [request for batch, _ in batches for request in batch]
    (hint,) = {hint for _, hint in batches}
    assert len(requests) == 240  # 230 grid points, then 10 golden-section points
    read = disk.get_or_compute(requests, hint)
    for (src, distance), profile in zip(requests, read):
        key = diffraction.profile_key(src, distance, hint.radius)
        blob = (tmp_path / cache._filename(key)).read_bytes()
        one = diffraction.deserialize_profile(blob, key, src)
        for name in ("radial_nodes", "complex_amplitudes", "slopes"):
            assert getattr(profile, name).tobytes() == getattr(one, name).tobytes()
        assert profile.source is src
        assert (profile.propagation_distance, profile.budget) == \
            (one.propagation_distance, one.budget)
        assert diffraction.serialize_profile(profile) == blob


@pytest.mark.parametrize("cache_set", [False, True], ids=["unset", "set"])
@pytest.mark.parametrize("action", ["inspect", "clear"])
def test_removed_cache_command_exits_2(tmp_path, monkeypatch, capsys, action,
                                       cache_set):
    # the cache directory is the user's to list or remove; there is no command
    monkeypatch.chdir(tmp_path)
    if cache_set:
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    else:
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["cache", action])
    assert exit_.value.code == 2
    assert "invalid choice: 'cache'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("override", [
    {"mu": -2},
    {"eve_offset": -1},
    {"sweep_parameter": "bogus"},
    {"sweep_spacing": "bogus"},
    {"scenario": "before_bob", "bob_eve_distance": 40_000.0},
    {"scenario": "before_bob", "bob_eve_distance": 10_000.0, "eve_offset": 0.5},
    {"noise_override": -1e-8},
    {"beta": 1.5},
    {"f_L": 0.9},
    {"sweep_parameter": "mu", "sweep_min": 0.0, "sweep_max": 1.0},
    {"sweep_min": -5.0},
    {"sweep_spacing": "linear", "sweep_min": -5.0},
    {"sweep_parameter": "L_AE", "sweep_min": 1_000.0, "sweep_max": 50_000.0},
    {"sweep_parameter": "mu", "sweep_spacing": "linear", "sweep_min": -1.0},
    {"sweep_parameter": "D", "sweep_spacing": "linear", "sweep_min": -0.1,
     "sweep_max": 0.1},
    {"scenario": "before_bob", "bob_eve_distance": 10_000.0,
     "sweep_parameter": "L_AE", "sweep_min": 1_000.0, "sweep_max": 45_000.0},
    {"sweep_count": 2.5},
    {"threads": 1.5},
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
def test_bad_config_exits_2(tmp_path, capsys, override):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**CONFIG, **override}))
    code = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("wavefront", [
    {"distances": [0.0]},
    {"distances": [60_000.0, -1.0]},
    {"distances": []},
    {"distances": 5},
    {"pixel": 5},
    {"pixels": 0},
    {"pixels": 2.5},
    {"half_width": -0.1},
    [1, 2],
], ids=json.dumps)
def test_bad_wavefront_config_exits_2(tmp_path, capsys, wavefront):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**CONFIG, "wavefront": wavefront}))
    code = cli.main(["wavefront", "--config", str(config), "--out",
                     str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("distances", [[60_000.0, 60_000.4], [1_000.0, 999.6],
                                       [20_000.0, 60_000.0, 20_000.0]], ids=str)
def test_wavefront_distances_in_one_metre_exit_2(tmp_path, capsys, distances):
    # a map's files are named by its distance in whole metres, so the second
    # map would overwrite the first
    config = tmp_path / "maps.json"
    config.write_text(json.dumps({**CONFIG, "wavefront": {"distances": distances}}))
    code = cli.main(["wavefront", "--config", str(config), "--out",
                     str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{distances[0]!r} and {distances[-1]!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, recipe", [
    ("sweep", "fig5"), ("wavefront", "fig4"), ("optimal-distance", "fig11"),
    ("optimize-d", "fig14"), ("before-bob", "fig18")])
def test_out_naming_a_file_exits_2_before_any_producer(tmp_path, monkeypatch, capsys,
                                                       command, recipe):
    def producer(*args, **kwargs):
        raise AssertionError("a producer ran")

    for name in ("run_sweep", "arago_prediction_curve", "optimal_eve_distance",
                 "optimal_eve_offsets", "wavefront_profiles"):
        monkeypatch.setattr(cli, name, producer)
    out = tmp_path / "out"
    out.write_text("not a directory")
    code = cli.main([command, "--recipe", recipe, "--max-points", "2",
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert out.read_text() == "not a directory"


def test_config_and_recipe_together_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(CONFIG))
    with pytest.raises(SystemExit) as exit_:
        cli.main(["sweep", "--recipe", "fig5", "--config", str(config)])
    assert exit_.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


def test_neither_config_nor_recipe_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep"]) == 2
    assert capsys.readouterr().err == "error: either --config or --recipe is required\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("override", [["--threads", "-2"], ["--threads", "0"],
                                      ["--max-points", "1"], ["--max-points", "-3"]],
                         ids=" ".join)
def test_bad_cli_override_exits_2(tmp_path, capsys, override):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(CONFIG))
    code = cli.main(["sweep", "--config", str(config), "--out",
                     str(tmp_path / "out"), *override])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("make", [
    lambda path: None,  # missing
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b'{"scenario": "behind_bob\xff"}'),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, make):
    config = tmp_path / "grid.json"
    make(config)
    code = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(config) in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_removed_deterministic_key_exits_2(tmp_path, capsys):
    # every key the config has lost is an unknown key now
    removed = {"deterministic": True, "alice_radius": 0.1, "cache_dir": "cache",
               "output_dir": "out", "threads": 2}
    config = tmp_path / "old.json"
    for key, value in removed.items():
        config.write_text(json.dumps({**CONFIG, key: value}))
        code = cli.main(["sweep", "--config", str(config), "--out",
                         str(tmp_path / "out")])
        assert code == 2
        assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [["sweep", "--recipe", "fig5", "--cache", "c"],
                                  ["sweep", "--recipe", "fig5", "--scale", "0.5"]],
                         ids=" ".join)
def test_removed_flag_exits_2(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        cli.main(args)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_command_help_lists_every_option(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    for option in ("--config", "--recipe", "--out", "--threads", "--max-points"):
        assert option in out


def test_options_before_the_command_are_read(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(CONFIG))
    assert cli.main(["--out", str(out), "--config", str(config), "sweep"]) == 0
    assert (out / "grid__run.csv").exists()


@pytest.mark.parametrize("cache_path", ["afile", "afile/below"])
def test_cache_path_through_a_file_exits_2_before_any_producer(tmp_path, monkeypatch,
                                                             capsys, cache_path):
    def producer(*args, **kwargs):
        raise AssertionError("a producer ran")

    for name in ("run_sweep", "arago_prediction_curve", "optimal_eve_distance",
                 "optimal_eve_offsets", "wavefront_profiles"):
        monkeypatch.setattr(cli, name, producer)
    (tmp_path / "afile").write_text("not a directory")
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / cache_path))
    out = tmp_path / "out"
    code = cli.main(["sweep", "--recipe", "fig5", "--max-points", "2", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / cache_path) in err
    assert not out.exists()
    assert (tmp_path / "afile").read_text() == "not a directory"


def _run_cli(tmp_path, monkeypatch, command, config, out, *extra):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path), "--out", str(out), *extra]) == 0
    return out


def _rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_wavefront_map_peak_matches_direct_series(tmp_path, monkeypatch):
    config = {**CONFIG, "wavefront": {"half_width": 0.35, "pixels": 21,
                                      "distances": [60_000.0]}}
    out = _run_cli(tmp_path, monkeypatch, "wavefront", config, tmp_path / "out")
    header = b"P5\n21 21\n65535\n"
    pgm = (out / "grid__run_lbe60000m.pgm").read_bytes()
    assert pgm.startswith(header) and len(pgm) == len(header) + 21 * 21 * 2
    with open(out / "grid__run_lbe60000m.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert float(rows[-1]["rho"]) >= 0.35 * 2 ** 0.5  # the corner pixels
    cfg = RunConfig.from_json(json.dumps(config))
    src = diffraction.SourceAnnulus(cfg.beam(), cfg.alice_bob_distance, cfg.bob_radius)
    axis = np.linspace(-0.35, 0.35, 21)
    rho = np.hypot(*np.meshgrid(axis, axis)).ravel()
    field = (diffraction._fresnel_prefactor(src, 60e3, rho)
             * diffraction._fresnel_integral(src, 60e3, rho)[0])
    want = np.abs(field).max()
    meta = dict(line.split(" ", 1) for line in
                (out / "grid__run_lbe60000m.txt").read_text().splitlines())
    # the peak is the axis pixel, a profile node; every other pixel is
    # interpolated to about 1e-8 of it, far below one grey level
    assert abs(float(meta["peak_field_amplitude"]) - want) <= 1e-9 * want
    grey = np.frombuffer(pgm[len(header):], dtype=">u2").astype(float)
    assert np.abs(grey - np.round(np.abs(field) / want * 65535.0)).max() <= 1.0


def test_optimize_d_rows_are_clean_and_deterministic(tmp_path, monkeypatch):
    config = {**CONFIG, "sweep_count": 2}
    runs = [_run_cli(tmp_path, monkeypatch, "optimize-d", config, tmp_path / f"out{i}")
            for i in range(2)]
    for name in ("grid__run.csv", "grid__run_d0.csv"):
        with open(runs[0] / name, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert all(row["error"] == "" for row in rows)
        assert all(float(row["D_opt"]) >= 0.0 for row in rows)
        assert (runs[1] / name).read_bytes() == (runs[0] / name).read_bytes()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_python(*args, **env_vars):
    """Run ``python *args`` in a new process that sees this checkout's
    ``src``, no disk cache, and of the BLAS thread variables only
    ``env_vars`` (this process already imported fsoqkd, which sets them)."""
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_THREAD_VARS and k != CACHE_ENV_VAR}
    env.update(env_vars, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return done.stdout


@functools.lru_cache(maxsize=None)
def _scipy_loaded_by_cli_import():
    code = "import sys, fsoqkd.cli; print(*(m for m in sys.modules if m.startswith('scipy')))"
    return frozenset(_fresh_python("-c", code).split())


def test_cli_import_loads_no_scipy():
    assert not _scipy_loaded_by_cli_import()


def test_cli_import_leaves_scipy_interpolate_unloaded():
    assert "scipy.interpolate" not in _scipy_loaded_by_cli_import()


def test_cli_import_leaves_scipy_constants_unloaded():
    assert "scipy.constants" not in _scipy_loaded_by_cli_import()


def test_cli_import_leaves_scipy_special_unloaded():
    assert "scipy.special" not in _scipy_loaded_by_cli_import()


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # plain `import numpy` does not load it; the package's one Gauss rule is
    # written out as literals
    code = "import sys, fsoqkd.cli; print(*(m for m in sys.modules if m.startswith('numpy.')))"
    loaded = _fresh_python("-c", code).split()
    assert "numpy.linalg" in loaded  # numpy's own imports are seen
    assert not [m for m in loaded if m.startswith("numpy.polynomial")]


def test_cli_import_leaves_concurrent_futures_unloaded():
    # plain `import numpy` does not load it; every command runs in one thread
    code = "import sys, fsoqkd.cli; print(*(m for m in sys.modules if m.startswith('concurrent')))"
    assert _fresh_python("-c", code).split() == []


CACHE_MODULES = ("fsoqkd.cache", "logging", "hashlib")
CACHE_IMPORTS = f"import sys, fsoqkd.cli; print(*(m for m in {CACHE_MODULES!r} if m in sys.modules))"


def test_cli_import_leaves_logging_and_hashlib_unloaded():
    # only the disk cache needs them, and with FSOQKD_CACHE unset the CLI
    # does not import it
    assert _fresh_python("-c", CACHE_IMPORTS).split() == []


def test_cli_import_with_a_cache_loads_it(tmp_path):
    # a process started with the cache set imports it with the CLI, so that
    # the import stays in start-up
    loaded = _fresh_python("-c", CACHE_IMPORTS, FSOQKD_CACHE=str(tmp_path))
    assert loaded.split() == list(CACHE_MODULES)


BLAS_REPORT = f"""
import os, sys, fsoqkd.cli
print(*(os.environ.get(v) for v in {BLAS_THREAD_VARS!r}))
if sys.platform.startswith("linux"):
    print(*(l.split()[1] for l in open("/proc/self/status") if l.startswith("Threads:")))
"""


def test_import_pins_blas_to_one_thread():
    lines = _fresh_python("-c", BLAS_REPORT).splitlines()
    assert lines[0].split() == ["1", "1", "1"]
    if sys.platform.startswith("linux"):
        assert lines[1] == "1"  # no BLAS worker beside the main thread


def test_exported_blas_variable_overrides_the_pin():
    lines = _fresh_python("-c", BLAS_REPORT, OPENBLAS_NUM_THREADS="2").splitlines()
    assert lines[0].split() == ["2", "None", "None"]


NUMPY_FIRST = """
import warnings, numpy
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import fsoqkd
print(sum(issubclass(w.category, RuntimeWarning) for w in caught))
"""


def test_numpy_imported_first_warns_that_the_pin_cannot_apply():
    assert _fresh_python("-c", NUMPY_FIRST).strip() == "1"
    # an exported variable is the user's choice, and fsoqkd first pins BLAS
    assert _fresh_python("-c", NUMPY_FIRST, OPENBLAS_NUM_THREADS="1").strip() == "0"
    _fresh_python("-W", "error::RuntimeWarning", "-c", "import fsoqkd, numpy")


def test_csv_is_identical_with_and_without_the_blas_pin(tmp_path):
    # 0.7-3 km behind a 40 km link: the largest propagation matvecs
    config = tmp_path / "near.json"
    config.write_text(json.dumps({**CONFIG, "sweep_min": 700.0,
                                  "sweep_max": 3_000.0}))
    csvs = []
    for i, env_vars in enumerate(({}, {"OPENBLAS_NUM_THREADS": "2"})):
        out = tmp_path / f"out{i}"
        _fresh_python("-m", "fsoqkd.cli", "sweep", "--config", str(config),
                      "--out", str(out), **env_vars)
        csvs.append((out / "near__run.csv").read_bytes())
    assert csvs[0] == csvs[1]


BEFORE_BOB = {**CONFIG, "scenario": "before_bob", "bob_eve_distance": 20_000.0,
              "sweep_parameter": "L_AE", "sweep_min": 2_000.0,
              "sweep_max": 38_000.0, "sweep_spacing": "linear"}
# optimal-distance scans 200 log points and 6 per unit of Fresnel number,
# 202 here, whatever sweep_count says
DISTANCE_SEARCH = {**CONFIG, "sweep_min": 50_000.0}


def test_before_bob_runs_on_a_tiny_grid(tmp_path, monkeypatch):
    out = _run_cli(tmp_path, monkeypatch, "before-bob", BEFORE_BOB, tmp_path / "out")
    rows = _rows(out / "grid__run.csv")
    assert [float(r["parameter"]) for r in rows] == [-38_000.0, -20_000.0, -2_000.0]
    assert all(r["error"] == "" and float(r["lb"]) <= float(r["ub"]) for r in rows)


def test_sweep_writes_the_bright_spot_overlay_on_request(tmp_path, monkeypatch):
    out = _run_cli(tmp_path, monkeypatch, "sweep", {**CONFIG, "emit_arago_overlay": True},
                   tmp_path / "out")
    rows = _rows(out / "grid__run_arago.csv")
    assert [float(r["parameter"]) for r in rows] == \
        [float(r["parameter"]) for r in _rows(out / "grid__run.csv")]
    assert all(r["error"] == "" and float(r["D_opt"]) == 0.0 for r in rows)


def test_bright_spot_overlay_where_bob_collects_the_whole_beam(tmp_path, monkeypatch,
                                                               capsys):
    # a 3 mm waist 10 m from a 10 cm Bob gives eta = 1.0 exactly: kappa is
    # undefined, so every row of both files is an error row, and the run
    # ends in exit 1, not a traceback
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "scenario": "behind_bob", "alice_bob_distance": 10.0, "waist_radius": 0.003,
        "sweep_min": 500.0, "sweep_max": 2000.0, "sweep_count": 3,
        "emit_arago_overlay": True}))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "6 error rows recorded" in err and "Traceback" not in err
    for name in ("grid__run.csv", "grid__run_arago.csv"):
        rows = _rows(out / name)
        assert [float(r["parameter"]) for r in rows] == [500.0, 1000.0, 2000.0]
        assert all(r["error"].startswith("ChannelConsistencyError: 1 - eta is 0")
                   for r in rows)


def test_optimal_distance_runs_on_a_tiny_grid(tmp_path, monkeypatch):
    out = _run_cli(tmp_path, monkeypatch, "optimal-distance", DISTANCE_SEARCH,
                   tmp_path / "out")
    rows = _rows(out / "grid__run.csv")
    assert rows and all(r["error"] == "" for r in rows)
    assert all(50_000.0 <= float(r["parameter"]) <= 400_000.0 for r in rows)
    assert all(float(r["D_opt"]) == 0.0 for r in rows)


def test_optimal_distance_before_bob_exits_2(tmp_path, capsys):
    config = tmp_path / "before.json"
    config.write_text(json.dumps({**BEFORE_BOB, "sweep_parameter": "L_BE",
                                  "sweep_min": 1_000.0, "sweep_max": 20_000.0}))
    code = cli.main(["optimal-distance", "--config", str(config), "--out",
                     str(tmp_path / "out")])
    assert code == 2
    assert "behind_bob" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["optimal-distance", "optimize-d"])
def test_geometry_search_over_another_parameter_exits_2(tmp_path, capsys, command):
    # the sweep range of a search is a range of Bob-Eve distances
    config = tmp_path / "mu.json"
    config.write_text(json.dumps({**CONFIG, "sweep_parameter": "mu",
                                  "sweep_min": 1e-3, "sweep_max": 10.0}))
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "sweep_parameter" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, config", [
    (["sweep", "--recipe", "fig14"], None),  # an optimize_d recipe
    (["before-bob"], CONFIG),  # a behind-Bob config
    (["wavefront"], {**CONFIG, "eve_offset": 0.05}),
], ids=["sweep-optimize_d-recipe", "before-bob-behind-config", "wavefront-off-axis"])
def test_command_that_does_not_fit_the_config_exits_2(tmp_path, capsys, args, config):
    if config is not None:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(config))
        args = [*args, "--config", str(path)]
    code = cli.main([*args, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_optimal_distance_reports_the_offset_it_used(tmp_path, monkeypatch):
    config = {**DISTANCE_SEARCH, "eve_offset": 0.05}
    out = _run_cli(tmp_path, monkeypatch, "optimal-distance", config, tmp_path / "out")
    rows = _rows(out / "grid__run.csv")
    assert rows and all(float(r["D_opt"]) == 0.05 for r in rows)


def test_optimize_d_axis_file_ignores_the_config_offset(tmp_path, monkeypatch):
    outs = [_run_cli(tmp_path, monkeypatch, "optimize-d",
                     {**CONFIG, "sweep_count": 2, "eve_offset": d},
                     tmp_path / f"out{i}") for i, d in enumerate((0.0, 0.05))]
    axis = [(out / "grid__run_d0.csv").read_bytes() for out in outs]
    assert axis[0] == axis[1]
    assert all(float(r["D_opt"]) == 0.0 for r in _rows(outs[1] / "grid__run_d0.csv"))


@pytest.mark.parametrize("command,config,files", [
    ("sweep", CONFIG, ["grid__run.csv"]),
    ("optimal-distance", DISTANCE_SEARCH, ["grid__run.csv"]),
    ("optimize-d", {**CONFIG, "sweep_count": 2}, ["grid__run.csv", "grid__run_d0.csv"]),
    ("before-bob", BEFORE_BOB, ["grid__run.csv"]),
])
def test_noise_reaches_every_command(tmp_path, monkeypatch, command, config, files):
    # ub depends on the channel alone, so it pins the n_e each row was given
    noise = 0.05
    out = _run_cli(tmp_path, monkeypatch, command,
                   {**config, "noise_override": noise}, tmp_path / "out")
    for name in files:
        rows = _rows(out / name)
        assert rows and all(r["error"] == "" for r in rows)
        for r in rows:
            ch = ChannelParams(float(r["eta"]), float(r["kappa"]), noise, 0.0, 0.0)
            assert repr(upper_bound(ch)) == r["ub"]


# beta < 1 makes every bound 0 at mu = inf, so only the mu-optimized rates of
# the rows are nonzero; the searches rank geometries by kappa alone
RATE_OPT = {**CONFIG, "alice_bob_distance": 50_000.0, "beta": 0.95,
            "optimize_mu": True}


@pytest.mark.parametrize("command,config", [("sweep", CONFIG),
                                            ("before-bob", BEFORE_BOB),
                                            ("sweep", RATE_OPT)])
def test_csv_is_identical_at_one_and_two_threads(tmp_path, monkeypatch, command,
                                                 config):
    outs = [_run_cli(tmp_path, monkeypatch, command, config, tmp_path / f"t{n}",
                     "--threads", str(n)) for n in (1, 2)]
    assert (outs[0] / "grid__run.csv").read_bytes() == \
        (outs[1] / "grid__run.csv").read_bytes()


def test_optimize_d_scores_the_optimized_power(tmp_path, monkeypatch):
    config = {**RATE_OPT, "sweep_min": 1_000.0, "sweep_max": 2_000.0,
              "sweep_count": 2}
    out = _run_cli(tmp_path, monkeypatch, "optimize-d", config, tmp_path / "out")
    first = _rows(out / "grid__run.csv")[0]
    assert float(first["parameter"]) == 1_000.0
    assert float(first["D_opt"]) > 0.1


def test_optimal_distance_scores_the_optimized_power(tmp_path, monkeypatch):
    config = {**RATE_OPT, "sweep_min": 5_000.0, "sweep_max": 400_000.0,
              "sweep_count": 200}
    out = _run_cli(tmp_path, monkeypatch, "optimal-distance", config,
                   tmp_path / "out")
    best = float(_rows(out / "grid__run.csv")[0]["parameter"])
    assert 10_000.0 < best < 400_000.0


# beta < 1 at mu = inf: every rate is 0 wherever Eve sits, and the searches
# still place her where she collects the largest share kappa
ZERO_RATE = {**CONFIG, "alice_bob_distance": 50_000.0, "beta": 0.95,
             "sweep_min": 1_000.0, "sweep_max": 60_000.0, "sweep_count": 4}
RATE_COLUMNS = ("lb_direct", "lb_reverse", "lb", "skr_cv", "skr_bb84")


def _every_rate_setting(spec):
    return [replace(spec, optimize_power=optimize, objective=objective)
            for optimize in (False, True) for objective in OBJECTIVES]


def _cached_propagation():
    """A profile provider that computes each request on a disk hint once."""
    one = functools.cache(propagate_profile)
    return lambda requests, disk_hint: [one(src, d, disk_hint) for src, d in requests]


def test_optimize_d_places_eve_at_the_largest_kappa_where_every_rate_is_0(
        tmp_path, monkeypatch):
    out = _run_cli(tmp_path, monkeypatch, "optimize-d", ZERO_RATE, tmp_path / "out")
    rows, on_axis = _rows(out / "grid__run.csv"), _rows(out / "grid__run_d0.csv")
    assert all(float(r[c]) == 0.0 for r in rows + on_axis for c in RATE_COLUMNS)
    assert [float(r["D_opt"]) for r in rows] == [
        pytest.approx(d, rel=1e-3) for d in (0.14533, 0.13421, 0.067687)] + [0.0]
    assert float(rows[0]["kappa"]) == pytest.approx(0.14492, rel=1e-3)
    assert float(on_axis[0]["kappa"]) == pytest.approx(0.027197, rel=1e-3)
    # the offsets depend on the optics alone, not on the rates
    spec = RunConfig.from_json(json.dumps(ZERO_RATE)).sweep_spec()
    cache = _cached_propagation()
    for setting in _every_rate_setting(spec):
        rows_opt, _ = sweeps.optimal_eve_offsets(setting, cache)
        assert [r.d_opt for r in rows_opt] == [float(r["D_opt"]) for r in rows]


def test_optimal_distance_places_eve_at_the_largest_kappa_where_every_rate_is_0(
        tmp_path, monkeypatch):
    out = _run_cli(tmp_path, monkeypatch, "optimal-distance", ZERO_RATE,
                   tmp_path / "out")
    rows = _rows(out / "grid__run.csv")
    assert all(float(r[c]) == 0.0 for r in rows for c in RATE_COLUMNS)
    assert float(rows[0]["parameter"]) == pytest.approx(52_832.0, rel=1e-3)
    assert float(rows[0]["kappa"]) == pytest.approx(0.75224, rel=1e-3)
    assert len(rows) == 10 and max(float(r["kappa"]) for r in rows) == float(rows[0]["kappa"])
    # the global row depends on the optics alone; a setting whose rates are
    # not 0 may keep fewer of the peaks, never others
    spec = RunConfig.from_json(json.dumps(ZERO_RATE)).sweep_spec()
    cache = _cached_propagation()
    written = [float(r["parameter"]) for r in rows]
    for setting in _every_rate_setting(spec):
        found = [r.value for r in sweeps.optimal_eve_distance(setting, cache)]
        assert found[0] == written[0] and set(found) <= set(written)


def test_optimize_d_scores_its_rows_on_the_search_profile(tmp_path, monkeypatch):
    config = {**RATE_OPT, "sweep_min": 1_000.0, "sweep_max": 2_000.0,
              "sweep_count": 2}
    distances = []
    propagate = sweeps.propagate_profiles

    def counted(requests, disk_hint):
        distances.extend(distance for _, distance in requests)
        return propagate(requests, disk_hint)

    monkeypatch.setattr(sweeps, "propagate_profiles", counted)
    out = _run_cli(tmp_path, monkeypatch, "optimize-d", config, tmp_path / "out")
    spec = RunConfig.from_json(json.dumps(config)).sweep_spec()
    assert distances == spec.grid().tolist()  # one propagation per distance
    channel_params = sweeps.channel_params
    for row in _rows(out / "grid__run.csv"):
        scored = []

        def spy(*args, **kwargs):
            scored.append(channel_params(*args, **kwargs))
            return scored[-1]

        monkeypatch.setattr(sweeps, "channel_params", spy)
        best, _ = sweeps.optimize_eve_offset(spec, float(row["parameter"]))
        assert float(row["D_opt"]) == best.d_opt > 0.0
        ch = ChannelParams(float(row["eta"]), float(row["kappa"]), spec.noise,
                           float(row["P_Bob"]), float(row["P_Eve"]))
        # the written channel is the one the search scored with the largest kappa
        assert ch in scored and ch.kappa == max(c.kappa for c in scored)


# (command, recipe, --max-points) of the runs whose outputs must not depend on
# the disk cache.  fig5 at 40 points: its row groups hold 10.6k-17.9k nodes,
# so the batched field call of each spans several chunks.
CACHE_PATH_RUNS = [("sweep", "fig5", 40), ("optimal-distance", "fig11", 2),
                   ("before-bob", "fig18", 3)]


def test_cached_and_uncached_runs_write_the_same_bytes(tmp_path):
    # with FSOQKD_CACHE set, every profile comes from the disk cache, one
    # propagate_profile call per miss; unset, each batched channel call
    # computes its profiles in one propagate_profiles call.  Cold, warm and
    # uncached runs write the same files, and a RuntimeWarning fails a run.
    for item in build_recipe("fig5").items:  # each row group spans chunks
        spec = replace(item.config, sweep_count=40).sweep_spec()
        src, _, disk = channel.profile_request(spec.geometry, spec.beam)
        coverage = disk.center_offset + disk.radius
        nodes = [diffraction._profile_nodes(src, float(d), coverage).size
                 for d in spec.grid()]
        assert sum(nodes) > 2 * diffraction.CHUNK_NODES
    commands = [[c, "--recipe", r, "--max-points", str(n)] for c, r, n in CACHE_PATH_RUNS]
    cached = {CACHE_ENV_VAR: str(tmp_path / "cache")}
    trees = {}
    for run, env in [("cold", cached), ("warm", cached), ("uncached", {})]:
        out = tmp_path / run
        script = ("import sys; from fsoqkd import cli; sys.exit(max("
                  f"cli.main(a + ['--out', {str(out)!r}]) for a in {commands!r}))")
        _fresh_python("-W", "error::RuntimeWarning", "-c", script, **env)
        trees[run] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(list((tmp_path / "cache").glob("*.profile"))) > 0
    assert len(trees["uncached"]) == 3 + 4 + 3  # fig5, fig11 and fig18 files
    assert trees["cold"] == trees["uncached"] == trees["warm"]
