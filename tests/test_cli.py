"""CLI runs against the on-disk profile cache."""

import json
import struct

import pytest

from fsoqkd import cli, diffraction
from fsoqkd.cache import CACHE_ENV_VAR

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

    def run():
        before = diffraction.PROPAGATION_COUNTER[0]
        assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        return (diffraction.PROPAGATION_COUNTER[0] - before,
                (out / "grid__run.csv").read_bytes())

    run.cache_dir = cache_dir
    return run


def test_warm_cache_run_is_identical_and_computes_nothing(sweep):
    computed, cold = sweep()
    assert computed == 3
    assert len(list(sweep.cache_dir.glob("*.profile"))) == 3
    computed, warm = sweep()
    assert computed == 0
    assert warm == cold


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
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
def test_bad_config_exits_2(tmp_path, capsys, override):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**CONFIG, **override}))
    code = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()
