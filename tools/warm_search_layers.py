"""Time the layers of a warm distance search, each on its own, in one process.

Usage::

    PYTHONPATH=src python tools/warm_search_layers.py [--count 1200] \
        [--repeat 15] [--out BENCH_warm_search.json]

The search is that of perfbench's ``distance_search_warm`` workload: behind
Bob, L_AB 40 km, r_b = r_e = W0 = 10 cm, 1550 nm, L_BE over 5-400 km on a
log grid of max(200, ``--count``) points.  The script fills a temporary
profile cache with one untimed search, keeping the requests it makes, then
reports the best of ``--repeat`` timings of:

* ``lookup_us_per_record``: one batched ``ProfileDiskCache.get_or_compute``
  call over every request of the search, per request;
* ``deserialize_us_per_record``: one ``deserialize_profile`` call on the
  sequence of every record, already read into one buffer as the cache
  reads a batch, per record;
* ``disk_power_s``: one ``disk_power`` call over every profile of the search;
* ``grid_geometries_s``: the coarse grid's geometries;
* ``search_s``: the whole ``optimal_eve_distance`` on the filled cache,
  through a fresh ``ProfileCache`` as the CLI builds it.

The report (JSON) also holds the record count and the Python, numpy and
machine it ran on.  Timings of one process on a shared machine vary from run
to run; compare runs made close together.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

import fsoqkd  # before numpy, so that BLAS is pinned to one thread
import numpy as np
from fsoqkd import sweeps
from fsoqkd.cache import ProfileDiskCache, _filename, _read_records
from fsoqkd.config import RunConfig
from fsoqkd.diffraction import DiskSpec, deserialize_profile, disk_power, profile_key


def search_config(count: int) -> RunConfig:
    return RunConfig(scenario="behind_bob", alice_bob_distance=40_000.0,
                     sweep_parameter="L_BE", sweep_min=5_000.0,
                     sweep_max=400_000.0, sweep_count=count, noise_override=1e-8)


def best_of(repeat: int, run) -> float:
    """The shortest of ``repeat`` timed calls of ``run``, in seconds."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def measure(count: int, repeat: int, directory: str) -> dict:
    spec = search_config(count).sweep_spec()
    disk = ProfileDiskCache(directory)
    requests, profiles, hints = [], [], set()

    def recorded(batch, hint):
        requests.extend(batch)
        hints.add(hint)
        read = disk.get_or_compute(batch, hint)
        profiles.extend(read)
        return read

    sweeps.optimal_eve_distance(spec, sweeps.ProfileCache(compute=recorded).get_or_compute)
    (hint,) = hints  # every profile of the search covers Eve's centered disk
    coverage = hint.center_offset + hint.radius
    keys = [profile_key(src, distance, coverage) for src, distance in requests]
    view, spans = _read_records([os.path.join(directory, _filename(key)) for key in keys])
    spans = list(spans.values())
    sources = [src for src, _ in requests]
    n = len(requests)
    grid = np.geomspace(spec.minimum, spec.maximum, max(200, spec.count)).tolist()

    def search():
        sweeps.optimal_eve_distance(
            spec, sweeps.ProfileCache(compute=disk.get_or_compute).get_or_compute)

    lookup = best_of(repeat, lambda: disk.get_or_compute(requests, hint))
    read = best_of(repeat, lambda: deserialize_profile(view, keys, sources, spans))
    centered = DiskSpec(spec.geometry.eve_radius, 0.0)
    return {
        "records": n,
        "grid_points": len(grid),
        "lookup_us_per_record": lookup / n * 1e6,
        "deserialize_us_per_record": read / n * 1e6,
        "disk_power_s": best_of(repeat, lambda: disk_power(profiles, centered)),
        "grid_geometries_s": best_of(repeat, lambda: sweeps._at_distances(spec.geometry, grid)),
        "search_s": best_of(repeat, search),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=1200,
                        help="sweep_count of the search (its grid has at least 200 points)")
    parser.add_argument("--repeat", type=int, default=15, help="timed calls per layer")
    parser.add_argument("--out", default="BENCH_warm_search.json", help="report path")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        metrics = measure(args.count, args.repeat, directory)
    report = {
        "harness": "tools/warm_search_layers.py",
        "count": args.count,
        "repeat": args.repeat,
        "statistic": "best of repeat",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "metrics": metrics,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for name, value in metrics.items():
        print(f"{name:28s} {value:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
