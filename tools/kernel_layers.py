"""Time the rate layer and single profile propagations, each on its own, in
one process.

Usage::

    PYTHONPATH=src python tools/kernel_layers.py [--repeat 15] \
        [--out BENCH_kernels.json]

The rates are those of perfbench's ``rate_opt_sweep`` workload: behind Bob,
L_AB 50 km, r_b = r_e = W0 = 10 cm, 1550 nm, beta 0.95, n_e 1e-8, L_BE over
20-400 km on a log grid of 48 points.  Their channels are computed once,
untimed; the script then reports the best of ``--repeat`` timings of:

* ``channels_s``: one ``channel_params`` call over the 48 geometries;
* ``rate_report_fixed_s``: ``rate_report`` on each channel at a fixed
  mu of 1 photon per mode;
* ``rate_report_optimized_s``: ``rate_report`` on each channel with mu
  optimized, as the workload asks;
* ``propagate_short_s``, ``propagate_mid_s``, ``propagate_long_s``: one
  ``propagate_profile`` on the geometry of perfbench's ``near_field_sweep``
  (L_AB 40 km) at L_BE 0.7, 5 and 100 km, one on each side of perfbench's
  2 km and 20 km split;
* ``propagate_batch_s``: the 48 profiles of the rate geometries (69 nodes
  each) as one ``propagate_profiles`` call, the field call that
  ``channels_s`` makes.

The report (JSON) also holds the Python, numpy and machine it ran on.
Timings of one process on a shared machine vary from run to run; compare
runs made close together.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import replace

import fsoqkd  # before numpy, so that BLAS is pinned to one thread
import numpy as np
from fsoqkd.channel import channel_params, profile_request
from fsoqkd.config import RunConfig
from fsoqkd.diffraction import propagate_profile, propagate_profiles
from fsoqkd.rates import rate_report

# L_BE of the short, mid and long propagations, in metres
PROPAGATION_DISTANCES = {"short": 700.0, "mid": 5_000.0, "long": 100_000.0}


def rate_config() -> RunConfig:
    return RunConfig(scenario="behind_bob", alice_bob_distance=50_000.0,
                     sweep_parameter="L_BE", sweep_min=20_000.0, sweep_max=400_000.0,
                     sweep_count=48, beta=0.95, optimize_mu=True, noise_override=1e-8)


def propagation_config() -> RunConfig:
    return RunConfig(scenario="behind_bob", alice_bob_distance=40_000.0,
                     sweep_parameter="L_BE", sweep_min=700.0, sweep_max=400_000.0,
                     sweep_count=12, noise_override=1e-8)


def best_of(repeat: int, run) -> float:
    """The shortest of ``repeat`` timed calls of ``run``, in seconds."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def measure(repeat: int) -> dict:
    spec = rate_config().sweep_spec()
    geoms = [replace(spec.geometry, bob_eve_distance=float(v)) for v in spec.grid()]
    channels = channel_params(geoms, spec.beam, spec.noise)
    fixed = replace(spec.rates, mu=1.0)

    def reports(inputs, optimize):
        for ch in channels:
            rate_report(ch, inputs, optimize=optimize, objective=spec.objective)

    rate_src, _, rate_disk = profile_request(spec.geometry, spec.beam)
    requests = [(rate_src, g.bob_eve_distance) for g in geoms]
    metrics = {
        "channels": len(channels),
        "channels_s": best_of(repeat, lambda: channel_params(geoms, spec.beam, spec.noise)),
        "rate_report_fixed_s": best_of(repeat, lambda: reports(fixed, False)),
        "rate_report_optimized_s": best_of(repeat, lambda: reports(spec.rates, True)),
    }
    near = propagation_config().sweep_spec()
    src, _, disk = profile_request(near.geometry, near.beam)
    for band, distance in PROPAGATION_DISTANCES.items():
        metrics[f"propagate_{band}_s"] = best_of(
            repeat, lambda: propagate_profile(src, distance, disk))
    metrics["propagate_batch_s"] = best_of(
        repeat, lambda: propagate_profiles(requests, rate_disk))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15, help="timed calls per layer")
    parser.add_argument("--out", default="BENCH_kernels.json", help="report path")
    args = parser.parse_args(argv)
    metrics = measure(args.repeat)
    report = {
        "harness": "tools/kernel_layers.py",
        "repeat": args.repeat,
        "statistic": "best of repeat",
        "propagation_distances_m": PROPAGATION_DISTANCES,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "metrics": metrics,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for name, value in metrics.items():
        print(f"{name:24s} {value:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
