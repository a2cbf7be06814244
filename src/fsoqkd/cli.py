"""Command-line front end.

Subcommands: ``sweep``, ``wavefront``, ``optimal-distance``, ``optimize-d``,
``before-bob``, ``cache``.  All outputs are deterministic: identical configs
produce byte-identical files regardless of thread count.

The config says what is computed; ``--out``, ``--threads`` and the
environment say where and how.  ``FSOQKD_CACHE`` is the profile cache's only
switch: naming a directory keeps profiles there across runs, and ``cache
inspect|clear`` lists or deletes them (exit 2 if the directory is missing).

Parallelism: the sweep row pool (``--threads``, default 1) is the only one.
Importing ``fsoqkd`` pins OpenBLAS, MKL and OpenMP to one thread each.  The
package makes no BLAS call; the pin keeps OpenBLAS from starting worker
threads when numpy loads, a start-up that costs CPU time in every process.
Exporting any of ``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS`` or
``OMP_NUM_THREADS`` before the import leaves all three to the user.

Exit codes: 0 on success, 1 when computational error rows were recorded, 2 on
usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .cache import CACHE_ENV_VAR, env_cache
from .config import ConfigError, RunConfig
from .diffraction import DiskSpec, SourceAnnulus
from .recipes import RecipeItem, build_recipe, recipe_names
from .sweeps import (ProfileCache, SweepRow, SweepSpec, arago_prediction_curve,
                     geometry_row, offset_search_disk, optimal_eve_distance,
                     optimize_eve_offset, run_sweep)

CACHE_HELP = (f"Field profiles are cached on disk when the {CACHE_ENV_VAR} "
              f"environment variable names a directory, and only then.")

CSV_HEADER = ["parameter", "eta", "kappa", "P_Bob", "P_Eve", "lb_direct",
              "lb_reverse", "lb", "ub", "skr_cv", "skr_bb84", "optimal_mu",
              "D_opt", "error"]


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _row_cells(row: SweepRow) -> list[str]:
    if row.error is not None:
        return [_fmt(row.value)] + [""] * 12 + [row.error]
    ch, rep = row.channel, row.report
    return [
        _fmt(row.value), _fmt(ch.eta), _fmt(ch.kappa), _fmt(ch.p_bob),
        _fmt(ch.p_eve), _fmt(rep.lb_direct), _fmt(rep.lb_reverse),
        _fmt(rep.lb), _fmt(rep.ub), _fmt(rep.skr_cv), _fmt(rep.skr_bb84),
        _fmt(rep.optimal_mu), _fmt(row.d_opt), "",
    ]


def write_rows_csv(path: Path, rows) -> int:
    """Write sweep rows; returns the number of error rows."""
    path.parent.mkdir(parents=True, exist_ok=True)
    errors = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            if row.error is not None:
                errors += 1
            writer.writerow(_row_cells(row))
    return errors


def _out_path(out_dir: str, name: str, label: str, suffix: str = ".csv") -> Path:
    return Path(out_dir) / f"{name}__{label}{suffix}"


def cmd_sweep(config: RunConfig, out_dir: str, name: str, label: str,
              cache: ProfileCache, threads: int) -> int:
    spec = config.sweep_spec()
    rows = run_sweep(spec, cache=cache, threads=threads)
    errors = write_rows_csv(_out_path(out_dir, name, label), rows)
    if config.emit_arago_overlay and spec.parameter == "L_BE" \
            and config.scenario == "behind_bob" and config.eve_offset == 0.0:
        overlay = arago_prediction_curve(spec.geometry, spec.beam, spec.rates,
                                         spec.noise, spec.grid())
        errors += write_rows_csv(_out_path(out_dir, name, f"{label}_arago"), overlay)
    return errors


def cmd_before_bob(config: RunConfig, out_dir: str, name: str, label: str,
                   cache: ProfileCache, threads: int) -> int:
    """Sweep Eve's plane between Alice and Bob; the parameter column is the
    signed Bob-to-Eve distance (negative when Eve is before Bob)."""
    if config.scenario != "before_bob":
        raise ConfigError("before-bob command needs scenario = before_bob")
    spec = config.sweep_spec()
    rows = run_sweep(spec, cache=cache, threads=threads)
    lab = config.alice_bob_distance
    signed = [replace(r, value=-(lab - r.value)) for r in rows]
    signed.sort(key=lambda r: r.value)
    return write_rows_csv(_out_path(out_dir, name, label), signed)


def cmd_combined_axis(items, out_dir: str, name: str, cache: ProfileCache,
                      threads: int) -> int:
    """Merge before-Bob (negative axis) and behind-Bob (positive) segments."""
    merged: dict[str, list[SweepRow]] = {}
    for item in items:
        spec = item.config.sweep_spec()
        rows = run_sweep(spec, cache=cache, threads=threads)
        base, _, side = item.label.rpartition("_")
        if side == "before":
            lab = item.config.alice_bob_distance
            rows = [replace(r, value=-(lab - r.value)) for r in rows]
        merged.setdefault(base, []).extend(rows)
    errors = 0
    for base, rows in sorted(merged.items()):
        rows.sort(key=lambda r: r.value)
        errors += write_rows_csv(_out_path(out_dir, name, base), rows)
    return errors


def _search_spec(config: RunConfig, search: str) -> SweepSpec:
    if config.scenario != "behind_bob" or config.sweep_parameter != "L_BE":
        raise ConfigError(f"{search} scans Bob-Eve distances behind Bob and needs "
                          f"scenario = behind_bob and sweep_parameter = L_BE, got "
                          f"{config.scenario!r} and {config.sweep_parameter!r}")
    return config.sweep_spec()


def cmd_optimal_distance(config: RunConfig, out_dir: str, name: str, label: str,
                         cache: ProfileCache) -> int:
    spec = _search_spec(config, "eavesdropper-distance search")
    geom = spec.geometry
    result = optimal_eve_distance(geom, spec.beam, spec.rates, spec.noise,
                                  search_range=(spec.minimum, spec.maximum),
                                  n_coarse=max(200, spec.count), cache=cache,
                                  objective=spec.objective,
                                  optimize_power=spec.optimize_power)
    lbes = [result.distance] + [x for x, _ in result.secondary_minima]
    rows = [geometry_row(spec, lbe, replace(geom, bob_eve_distance=lbe),
                         spec.beam, spec.rates, cache.get_or_compute) for lbe in lbes]
    return write_rows_csv(_out_path(out_dir, name, label), rows)


def cmd_optimize_d(config: RunConfig, out_dir: str, name: str, label: str,
                   cache: ProfileCache) -> int:
    spec = _search_spec(config, "offset optimization")
    rows_opt, rows_axis = [], []
    for lbe in spec.grid():
        try:
            geom = replace(spec.geometry, bob_eve_distance=lbe)
            d_star, _ = optimize_eve_offset(geom, spec.beam, spec.rates, spec.noise,
                                            cache=cache, objective=spec.objective,
                                            optimize_power=spec.optimize_power)
            # both rows are scored on the profile the search scored
            disk = offset_search_disk(geom, spec.beam)

            def searched(src, distance, _hint):
                return cache.get_or_compute(src, distance, disk)

            row = geometry_row(spec, lbe, replace(geom, eve_offset=d_star),
                               spec.beam, spec.rates, searched)
            row0 = geometry_row(spec, lbe, replace(geom, eve_offset=0.0),
                                spec.beam, spec.rates, searched)
        except Exception as exc:
            row = row0 = SweepRow.failed(lbe, exc)
        rows_opt.append(row)
        rows_axis.append(row0)
    errors = write_rows_csv(_out_path(out_dir, name, label), rows_opt)
    errors += write_rows_csv(_out_path(out_dir, name, f"{label}_d0"), rows_axis)
    return errors


def cmd_wavefront(config: RunConfig, out_dir: str, name: str, label: str,
                  cache: ProfileCache) -> int:
    if config.scenario != "behind_bob" or config.eve_offset != 0.0:
        raise ConfigError("wavefront maps are on-axis, behind-Bob only")
    beam = config.beam()
    src = SourceAnnulus(beam, config.alice_bob_distance, config.bob_radius)
    wf = config.wavefront
    for dist in wf.distances:
        coverage = wf.half_width * math.sqrt(2.0) * 1.0001
        profile = cache.get_or_compute(src, dist, DiskSpec(coverage, 0.0))
        spline = profile.interpolator()
        axis = (np.linspace(-wf.half_width, wf.half_width, wf.pixels)
                if wf.pixels > 1 else np.array([0.0]))
        xx, yy = np.meshgrid(axis, axis)
        rho = np.hypot(xx, yy)
        mag = np.abs(spline(np.clip(rho, 0.0, profile.truncation_radius)))
        peak = float(mag.max())
        pixels = np.zeros_like(mag, dtype=">u2")
        if peak > 0:
            pixels = np.round(mag / peak * 65535.0).astype(">u2")
        tag = f"{label}_lbe{int(round(dist))}m"
        pgm = _out_path(out_dir, name, tag, suffix=".pgm")
        pgm.parent.mkdir(parents=True, exist_ok=True)
        with open(pgm, "wb") as handle:
            handle.write(f"P5\n{wf.pixels} {wf.pixels}\n65535\n".encode())
            handle.write(pixels.tobytes())
        with open(_out_path(out_dir, name, tag, suffix=".txt"), "w") as handle:
            handle.write(f"half_width_m {wf.half_width!r}\n"
                         f"pixels {wf.pixels}\n"
                         f"propagation_distance_m {dist!r}\n"
                         f"peak_field_amplitude {peak!r}\n")
        with open(_out_path(out_dir, name, tag, suffix=".csv"), "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["rho", "magnitude", "real", "imag"])
            for r, a in zip(profile.radial_nodes, profile.complex_amplitudes):
                writer.writerow([repr(float(r)), repr(float(abs(a))),
                                 repr(float(a.real)), repr(float(a.imag))])
    return 0


def cmd_cache(args) -> int:
    disk = env_cache()
    if disk is None:
        raise ConfigError(f"no profile cache: {CACHE_ENV_VAR} is not set")
    if not disk.directory.is_dir():
        raise ConfigError(f"no profile cache: {disk.directory} is not a directory")
    if args.cache_action == "clear":
        removed = disk.clear()
        print(f"removed {removed} cached profiles")
    else:
        entries = disk.entries()
        print(f"{len(entries)} cached profiles in {disk.directory}")
        for entry in entries:
            print(f"  {entry.name}  {entry.stat().st_size} bytes")
    return 0


def _capped(config: RunConfig, max_points: int) -> RunConfig:
    """Cap the sweep grid at ``max_points`` (0: keep the config's), and
    validate the result."""
    if max_points:
        config = replace(config, sweep_count=min(config.sweep_count, max_points))
    return config.validate()


def _load_items(args) -> tuple[str, str, list[RecipeItem]]:
    if args.recipe:
        recipe = build_recipe(args.recipe)
        name, kind, items = recipe.name, recipe.kind, recipe.items
    elif args.config:
        name, kind = Path(args.config).stem, args.command.replace("-", "_")
        items = [RecipeItem("run", RunConfig.from_json(Path(args.config).read_text()))]
    else:
        raise ConfigError("either --config or --recipe is required")
    return name, kind, [RecipeItem(i.label, _capped(i.config, args.max_points))
                        for i in items]


_KIND_FOR_COMMAND = {
    "sweep": ("sweep",),
    "wavefront": ("wavefront",),
    "optimal-distance": ("optimal_distance", "sweep"),
    "optimize-d": ("optimize_d",),
    "before-bob": ("before_bob", "combined_axis"),
}


def _run_command(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    name, kind, items = _load_items(args)
    if args.recipe and kind not in _KIND_FOR_COMMAND[args.command]:
        raise ConfigError(
            f"recipe {name!r} is of kind {kind!r}, not usable with '{args.command}'")
    out_dir, threads = args.out, args.threads
    disk = env_cache()
    cache = ProfileCache(compute=disk.get_or_compute if disk else None)
    errors = 0
    if kind == "combined_axis":
        errors += cmd_combined_axis(items, out_dir, name, cache, threads)
    else:
        for item in items:
            cfg = item.config
            if args.command == "sweep":
                errors += cmd_sweep(cfg, out_dir, name, item.label, cache, threads)
            elif args.command == "wavefront":
                errors += cmd_wavefront(cfg, out_dir, name, item.label, cache)
            elif args.command == "optimal-distance":
                errors += cmd_optimal_distance(cfg, out_dir, name, item.label, cache)
            elif args.command == "optimize-d":
                errors += cmd_optimize_d(cfg, out_dir, name, item.label, cache)
            elif args.command == "before-bob":
                errors += cmd_before_bob(cfg, out_dir, name, item.label, cache, threads)
    if errors:
        print(f"{errors} error rows recorded", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsoqkd",
        description="Key-rate bounds over a free-space link with a movable "
                    "finite-aperture eavesdropper",
        epilog=CACHE_HELP)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--recipe", choices=recipe_names(),
                       help="named canonical recipe")
        p.add_argument("--out", default=".",
                       help="output directory (default: the current one)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for sweep rows, the only parallel "
                            "layer: BLAS is pinned to one thread unless "
                            "OPENBLAS_NUM_THREADS, MKL_NUM_THREADS or "
                            "OMP_NUM_THREADS is exported (default: 1)")
        p.add_argument("--max-points", type=int, default=0,
                       help="cap sweep grid sizes, at least 2 (smoke testing)")

    for cmd in ("sweep", "wavefront", "optimal-distance", "optimize-d",
                "before-bob"):
        add_common(sub.add_parser(cmd, epilog=CACHE_HELP))

    cache_p = sub.add_parser("cache", description="List or delete the profiles "
                             f"cached in the ${CACHE_ENV_VAR} directory.")
    cache_p.add_argument("cache_action", choices=["inspect", "clear"])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "cache":
            return cmd_cache(args)
        return _run_command(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
