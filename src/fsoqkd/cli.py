"""Command-line front end.

Each command builds the config's :class:`~fsoqkd.sweeps.SweepSpec`, gets
its rows from one call in :mod:`fsoqkd.sweeps` and writes them as CSV:
``sweep`` (:func:`run_sweep`, plus the bright-spot overlay on request),
``optimal-distance`` (:func:`optimal_eve_distance`), ``optimize-d``
(:func:`optimal_eve_offsets`, a D* file and an on-axis ``_d0`` file) and
``before-bob`` (:func:`run_sweep` on a signed Bob-to-Eve axis, the segments
of one label in one file).  ``wavefront`` writes one map per profile of
:func:`wavefront_profiles`.  :data:`COMMANDS` names, for each command, the
recipe kinds it accepts, its producer and its writer.  All outputs are
deterministic: identical configs produce byte-identical files.

Every command takes the same options, so one parser takes the command and
its options, in any order.  The config (``--config`` or ``--recipe``,
exactly one) says what is computed; ``--out`` and the environment say where
and how.  ``FSOQKD_CACHE`` is the profile cache's only switch: naming a
directory keeps profiles there across runs, as records that
:class:`~fsoqkd.cache.ProfileDiskCache` reads and writes; the first write
makes a missing directory, and removing the directory empties the cache.
With it set, every producer takes each batch of profiles from one call of a
:class:`~fsoqkd.sweeps.ProfileCache` over the disk cache, which reads the
batch's records together and computes each miss with
:func:`~fsoqkd.diffraction.propagate_profile`; only then is
:mod:`fsoqkd.cache` imported.  Unset, the CLI passes no provider, and each
batched channel call computes all its profiles in one
:func:`~fsoqkd.diffraction.propagate_profiles` call.  Both write the same
bytes.

Parallelism: none.  Every command runs in one thread.  A sweep is scored by
row group, a run of rows whose geometries differ in the Bob-Eve distance
only: each group's channels come from one batched call, and the groups run
one after another.  ``--threads`` is accepted (at least 1) and has no effect;
it stays only because the benchmark passes it, and goes once the benchmark
no longer does.  Importing ``fsoqkd`` pins OpenBLAS, MKL and OpenMP to one
thread each.  The package makes no BLAS call; the pin keeps OpenBLAS from
starting worker threads when numpy loads, a start-up that costs CPU time in
every process.  Exporting any of ``OPENBLAS_NUM_THREADS``,
``MKL_NUM_THREADS`` or ``OMP_NUM_THREADS`` before the import leaves all
three to the user.

Exit codes: 0 on success; 2 on usage or configuration errors, all found
before anything is written: ``--config`` and ``--recipe`` both given or
neither, a config file that cannot be read as UTF-8 text, the config's own
checks (:mod:`fsoqkd.config`), a recipe or scenario that does not fit the
command, :func:`~fsoqkd.sweeps.check_producer` on every item, an
``FSOQKD_CACHE`` whose path holds a file where a directory must be, and last
an ``--out`` that cannot be made a directory (it is made once, before any
producer runs).  ``check_producer`` rejects a search off an L_BE sweep
behind Bob, a wavefront off the axis, and a profile over its node or series
budget where the command cannot give a row without it: the cheaper end of a
sweep, the nearest distance of ``optimal-distance``, the farthest of
``optimize-d``, any wavefront map.  1 when error rows were recorded: any
other row that fails, such as a sweep or offset-search row over the budget
at a dearer grid point, is written as an error row and the run goes on.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .recipes import RecipeItem, build_recipe, recipe_names
from .sweeps import (ProfileCache, SweepRow, arago_prediction_curve, check_producer,
                     optimal_eve_distance, optimal_eve_offsets, run_sweep,
                     wavefront_profiles)

# fsoqkd.cache loads logging and hashlib, which an uncached run never uses.
# A process started with FSOQKD_CACHE set imports it here, with the package,
# as before: so its import stays in process start-up, and perfbench's probe,
# which wraps the functions of the fsoqkd modules loaded when it starts,
# still traces the cache.  _run_command imports it for a cache set later.
if os.environ.get("FSOQKD_CACHE"):
    from . import cache  # noqa: F401

CACHE_HELP = ("Field profiles are cached on disk when the FSOQKD_CACHE "
              "environment variable names a directory, and only then; "
              "removing the directory empties the cache.")

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
              profile_provider) -> int:
    spec = config.sweep_spec()
    errors = write_rows_csv(_out_path(out_dir, name, label),
                            run_sweep(spec, profile_provider))
    if config.emit_arago_overlay:
        errors += write_rows_csv(_out_path(out_dir, name, f"{label}_arago"),
                                 arago_prediction_curve(spec))
    return errors


def cmd_signed_axis(items, out_dir: str, name: str, profile_provider) -> int:
    """Sweep Eve's plane along the axis; the parameter column is the signed
    Bob-to-Eve distance, negative for a before-Bob config.  The items of one
    label share a file, their rows sorted by that distance."""
    merged: dict[str, list[SweepRow]] = {}
    for item in items:
        rows = run_sweep(item.config.sweep_spec(), profile_provider)
        if item.config.scenario == "before_bob":
            lab = item.config.alice_bob_distance
            rows = [replace(r, value=-(lab - r.value)) for r in rows]
        merged.setdefault(item.label, []).extend(rows)
    errors = 0
    for label, rows in sorted(merged.items()):
        rows.sort(key=lambda r: r.value)
        errors += write_rows_csv(_out_path(out_dir, name, label), rows)
    return errors


def cmd_optimal_distance(config: RunConfig, out_dir: str, name: str, label: str,
                         profile_provider) -> int:
    rows = optimal_eve_distance(config.sweep_spec(), profile_provider)
    return write_rows_csv(_out_path(out_dir, name, label), rows)


def cmd_optimize_d(config: RunConfig, out_dir: str, name: str, label: str,
                   profile_provider) -> int:
    rows_opt, rows_axis = optimal_eve_offsets(config.sweep_spec(), profile_provider)
    return (write_rows_csv(_out_path(out_dir, name, label), rows_opt)
            + write_rows_csv(_out_path(out_dir, name, f"{label}_d0"), rows_axis))


def cmd_wavefront(config: RunConfig, out_dir: str, name: str, label: str,
                  profile_provider) -> int:
    wf = config.wavefront
    profiles = wavefront_profiles(config.sweep_spec(), wf, profile_provider)
    for dist, profile in zip(wf.distances, profiles):
        axis = (np.linspace(-wf.half_width, wf.half_width, wf.pixels)
                if wf.pixels > 1 else np.array([0.0]))
        xx, yy = np.meshgrid(axis, axis)
        rho = np.hypot(xx, yy)
        mag = np.abs(profile.field(np.clip(rho, 0.0, profile.truncation_radius)))
        peak = float(mag.max())
        pixels = np.zeros_like(mag, dtype=">u2")
        if peak > 0:
            pixels = np.round(mag / peak * 65535.0).astype(">u2")
        tag = f"{label}_lbe{int(round(dist))}m"
        with open(_out_path(out_dir, name, tag, suffix=".pgm"), "wb") as handle:
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


def _capped(config: RunConfig, max_points: int) -> RunConfig:
    """Cap the sweep grid at ``max_points`` (0: keep the config's)."""
    if max_points:
        return replace(config, sweep_count=min(config.sweep_count, max_points))
    return config


def _load_items(args) -> tuple[str, str, list[RecipeItem]]:
    if args.recipe:
        recipe = build_recipe(args.recipe)
        name, kind, items = recipe.name, recipe.kind, recipe.items
    elif args.config:
        name, kind = Path(args.config).stem, args.command.replace("-", "_")
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"cannot read config {args.config}: {reason}") from exc
        items = [RecipeItem("run", RunConfig.from_json(text))]
    else:
        raise ConfigError("either --config or --recipe is required")
    return name, kind, [RecipeItem(i.label, _capped(i.config, args.max_points))
                        for i in items]


# command: (recipe kinds it accepts, producer for check_producer, writer).
# A writer takes (config, out_dir, name, label, provider) and writes one
# item; cmd_signed_axis takes (items, out_dir, name, provider), as the items
# of one label share a file.
COMMANDS = {
    "sweep": (("sweep",), run_sweep, cmd_sweep),
    "wavefront": (("wavefront",), wavefront_profiles, cmd_wavefront),
    "optimal-distance": (("sweep",), optimal_eve_distance, cmd_optimal_distance),
    "optimize-d": (("optimize_d",), optimal_eve_offsets, cmd_optimize_d),
    "before-bob": (("before_bob", "combined_axis"), run_sweep, cmd_signed_axis),
}


def _run_command(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    kinds, producer, write = COMMANDS[args.command]
    name, kind, items = _load_items(args)
    if args.recipe and kind not in kinds:
        raise ConfigError(
            f"recipe {name!r} is of kind {kind!r}, not usable with '{args.command}'")
    for item in items:
        try:
            check_producer(item.config.sweep_spec(), producer, item.config.wavefront)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "before_bob" and any(i.config.scenario != "before_bob" for i in items):
        raise ConfigError("before-bob command needs scenario = before_bob")
    cache_dir = os.environ.get("FSOQKD_CACHE")
    if cache_dir:
        # the first write makes a missing directory; a file on its path never can
        path = Path(cache_dir)
        existing = next((p for p in (path, *path.parents) if p.exists()), path)
        if not existing.is_dir():
            raise ConfigError(f"cannot use FSOQKD_CACHE={cache_dir} as a directory: "
                              f"{existing} is not a directory")
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        reason = exc.strerror or exc
        raise ConfigError(f"cannot make output directory {args.out}: {reason}") from exc
    provider = None
    if cache_dir:
        from .cache import ProfileDiskCache  # see the import after the module imports
        provider = ProfileCache(ProfileDiskCache(cache_dir).get_or_compute).get_or_compute
    if write is cmd_signed_axis:
        errors = write(items, args.out, name, provider)
    else:
        errors = sum(write(i.config, args.out, name, i.label, provider) for i in items)
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
    parser.add_argument("command", choices=COMMANDS, help="what to compute")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", help="JSON run configuration")
    source.add_argument("--recipe", choices=recipe_names(), help="named canonical recipe")
    parser.add_argument("--out", default=".",
                        help="output directory (default: the current one)")
    parser.add_argument("--threads", type=int, default=1,
                        help="no effect: every command runs in one thread.  "
                             "Kept, at least 1, only because the benchmark "
                             "passes it.  BLAS is pinned to one thread unless "
                             "OPENBLAS_NUM_THREADS, MKL_NUM_THREADS or "
                             "OMP_NUM_THREADS is exported (default: 1)")
    parser.add_argument("--max-points", type=int, default=0,
                        help="cap sweep grid sizes, at least 2 (smoke testing)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
