"""Smoke test of the checked-in timing harness on a small grid."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "warm_search_layers.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("warm_search_layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_warm_search_harness_reports_every_layer(tmp_path):
    # sweep_count 20: the search scans its 200-point floor, plus refinement
    out = tmp_path / "BENCH_warm_search.json"
    assert load_tool().main(["--count", "20", "--repeat", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    metrics = report["metrics"]
    assert metrics["grid_points"] == 200
    assert metrics["records"] > 200
    for name in ("lookup_us_per_record", "deserialize_us_per_record", "disk_power_s",
                 "grid_geometries_s", "search_s"):
        assert metrics[name] > 0.0
    assert report["count"] == 20 and report["repeat"] == 1
