"""Smoke tests of the checked-in tools: the timing harness on a small grid,
and the list of runs of the every-recipe script."""

import importlib.util
import json
from pathlib import Path

from fsoqkd.recipes import recipe_names

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name="warm_search_layers"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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


def test_every_recipe_script_runs_each_recipe_then_the_distance_search():
    runs = load_tool("every_recipe").runs()
    assert [name for _, name, _ in runs[:-1]] == recipe_names()
    assert {(command, subdir) for command, _, subdir in runs[:-1]} <= {
        ("sweep", "recipes"), ("wavefront", "recipes"), ("optimize-d", "recipes"),
        ("before-bob", "recipes")}
    assert runs[-1] == ("optimal-distance", "fig11", "distance-search")
