"""Smoke tests of the benchmark itself, on tiny grids (``--smoke``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import run  # noqa: E402

LAYER_NAMES = {name for name, _unit, _better in run.layer_metric_specs()}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_generated_from_run_py():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.benchmark_spec()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_traced_run_reports_every_layer_metric(workload):
    res = _result(_bench("--smoke", "--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", "1"))
    assert res["correct"], res
    assert res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == LAYER_NAMES
    value = {name: m["value"] for name, m in res["metrics"].items()}
    if workload == "distance_search_warm":
        assert value["diffraction.propagate.calls"] == 0
        assert value["cache.disk.reads"] > 0
        assert value["cache.fill_s"] > 0
    if workload == "near_field_sweep":
        assert value["cache.disk.writes"] == value["diffraction.propagate.calls"] > 0
    if workload == "rate_opt_sweep":
        assert value["rates.eve_spectra.calls"] > 0


def test_smoke_timed_run_reports_end_to_end_metrics():
    res = _result(_bench("--smoke", "--workload", "rate_opt_sweep", "--seed", "1",
                         "--seconds", "0", "--trace", "0"))
    assert res["correct"], res
    assert set(res["metrics"]) == {name for name, *_ in run.END_TO_END}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".results", "__pycache__"))
    proc = _bench("--workload", "rate_opt_sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_function_leaves_its_metrics_out():
    tracer = probe.Tracer()
    targets = [("bessel.j0", "bessel", "fsoqkd.no_such_module", "bessel_j0", None),
               ("diffraction.propagate", "diffraction", "fsoqkd.diffraction",
                "no_such_function", None)]
    assert tracer.install(targets) == ["bessel.j0", "diffraction.propagate"]
    metrics = tracer.layer_metrics()
    assert not any(name.startswith(("bessel.", "diffraction.propagate."))
                   for name in metrics)
    assert "channel.params.calls" not in metrics


def test_spans_nest_on_their_own_thread():
    tracer = probe.Tracer()
    child = tracer.wrap("diffraction.disk_power", "diffraction",
                        lambda: time.sleep(0.05))
    parent = tracer.wrap("channel.params", "channel", lambda: child())
    tracer.installed = {"channel.params", "diffraction.disk_power"}
    workers = [threading.Thread(target=parent) for _ in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
        assert not worker.is_alive()
    metrics = tracer.layer_metrics()
    assert metrics["channel.params.calls"] == 2
    assert metrics["diffraction.disk_power.calls"] == 2
    assert metrics["diffraction.disk_power.busy_s"] >= 0.1
    assert 0 <= metrics["channel.params.self_s"] < 0.05
    assert {span.tid for span in tracer.spans} == {w.ident for w in workers}
