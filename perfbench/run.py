"""End-to-end benchmark of the ``fsoqkd`` command-line interface.

Usage (from the repository root)::

    python3 perfbench/run.py --workload near_field_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-benchmark-json

Every CLI invocation runs in a fresh process started through ``probe.py``,
with ``PYTHONPATH`` pointing at ``src/`` and ``FSOQKD_CACHE`` scrubbed from
the environment (set only where a workload asks for a disk cache).  The
benchmark repeats the workload's command for ``--seconds`` seconds, checks
every CSV it writes, and prints medians with quartiles and sample counts.
Its last line of standard output is one JSON object::

    {"correct": ..., "attempted": <rows>, "failed": <rows>, "metrics": {...}}

``attempted`` counts CSV rows requested over all runs, ``failed`` the rows
that carried an error, failed a check, or were lost to a non-zero exit;
``failed_frac`` is their ratio.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the untimed repetitions are followed by
one traced run whose per-layer metrics are reported instead.

Determinism checks run outside the timed region: repeated runs must write
byte-identical CSVs; ``near_field_sweep`` must write the same CSV at
``--threads 1`` and ``--threads 2``; a ``distance_search_warm`` run must add
or rewrite no cache file and must reproduce the CSV of the run that filled
the cache.  A full record (inputs, environment, every sample, CSV sha256
digests, problems) is written to ``perfbench/.results/``.

``--smoke`` shrinks every grid so the benchmark's own tests run in seconds;
it skips the check that each workload is still dominated by its layer.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE = HERE / "probe.py"
RESULTS_DIR = HERE / ".results"
WORK_DIR = HERE / ".work"

CACHE_ENV_VAR = "FSOQKD_CACHE"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RUN_SECONDS = 30
# Every run must end within 180 s: no new sample starts after SAMPLE_CUTOFF_S,
# and no child process may outlive HARD_LIMIT_S.
SAMPLE_CUTOFF_S = 110.0
HARD_LIMIT_S = 170.0
MIN_SAMPLES = 3

# (name, unit, better, bound as a share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

CSV_COLUMNS = ("parameter", "eta", "kappa", "P_Bob", "P_Eve", "lb_direct",
               "lb_reverse", "lb", "ub", "skr_cv", "skr_bb84", "error")
NONNEGATIVE = ("lb_direct", "lb_reverse", "lb", "ub", "skr_cv", "skr_bb84")
ETA_RTOL = 1e-9
POWER_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    config: dict
    smoke: dict
    threads: int
    cache: str  # "fresh": new empty dir per run, "none", "warm": filled once
    dominant: str  # layer group that must dominate the traced run


BASE = {"scenario": "behind_bob", "sweep_parameter": "L_BE",
        "sweep_spacing": "log", "mu": "inf", "beta": 1.0}

WORKLOADS = {w.name: w for w in [
    Workload(
        name="near_field_sweep",
        why="sweep behind Bob from 0.7 km, fresh disk cache, 2 threads: J0 "
            "propagation at short L_BE dominates and every profile is computed "
            "and written",
        command="sweep",
        config={**BASE, "alice_bob_distance": 40_000.0, "sweep_min": 700.0,
                "sweep_max": 400_000.0, "sweep_count": 12},
        smoke={"sweep_min": 20_000.0, "sweep_count": 3},
        threads=2, cache="fresh", dominant="propagation"),
    Workload(
        name="rate_opt_sweep",
        why="sweep at beta 0.95 with optimized mu, 1 thread, no disk cache: "
            "the Gaussian rate layer (optimize_mu, eve_spectra) dominates",
        command="sweep",
        config={**BASE, "alice_bob_distance": 50_000.0, "beta": 0.95,
                "optimize_mu": True, "sweep_min": 20_000.0,
                "sweep_max": 400_000.0, "sweep_count": 48},
        smoke={"sweep_count": 3},
        threads=1, cache="none", dominant="rates"),
    Workload(
        name="distance_search_warm",
        why="optimal-distance search on a disk cache filled before timing: "
            "zero propagations, time goes to cache reads and disk_power",
        command="optimal-distance",
        config={**BASE, "alice_bob_distance": 40_000.0, "sweep_min": 5_000.0,
                "sweep_max": 400_000.0, "sweep_count": 1200},
        smoke={"sweep_min": 50_000.0, "sweep_count": 200},
        threads=1, cache="warm", dominant="disk_power+cache_reads"),
]}


def layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    return ([(n, u, b) for n, u, b, _ in probe.LAYER_METRICS]
            + [("cache.fill_s", "s", "lower"),
               ("trace.overhead_frac", "ratio", "lower")])


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in layer_metric_specs()],
    }


def make_config(workload: Workload, seed: int, smoke: bool) -> dict:
    """The workload's config; the seed picks the background noise n_e.

    n_e is drawn log-uniformly from [1e-9, 1e-6] photons per mode: it moves
    every rate column without changing how much work a row takes.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    config = dict(workload.config, **(workload.smoke if smoke else {}))
    config["noise_override"] = 10.0 ** rng.uniform(-9.0, -6.0)
    return config


def expected_eta(config: dict) -> float:
    """Bob's share of the Gaussian beam, 1 - exp(-2 r_b^2 / W(L_AB)^2)."""
    wavelength = config.get("wavelength", 1550e-9)
    w0 = config.get("waist_radius", 0.1)
    r_b = config.get("bob_radius", 0.1)
    z0 = math.pi * w0 ** 2 / wavelength
    w = w0 * math.sqrt(1.0 + (config["alice_bob_distance"] / z0) ** 2)
    return -math.expm1(-2.0 * r_b ** 2 / w ** 2)


def sweep_grid(config: dict) -> list[float]:
    import numpy as np

    return [float(v) for v in np.geomspace(config["sweep_min"], config["sweep_max"],
                                           config["sweep_count"])]


def check_rows(rows: list[dict], config: dict, grid: list[float] | None) -> dict:
    """Row index -> reason, for every row that fails an output check."""
    bad = {}
    eta_ref = expected_eta(config)
    for i, row in enumerate(rows):
        try:
            if row["error"]:
                raise ValueError(f"error row: {row['error']}")
            v = {k: float(row[k]) for k in CSV_COLUMNS if k != "error"}
            if not 0.0 <= v["eta"] <= 1.0:
                raise ValueError(f"eta {v['eta']} outside [0, 1]")
            if not 0.0 <= v["kappa"] <= 1.0:
                raise ValueError(f"kappa {v['kappa']} outside [0, 1]")
            if not v["P_Bob"] + v["P_Eve"] <= 1.0 + POWER_TOL:
                raise ValueError(f"P_Bob + P_Eve = {v['P_Bob'] + v['P_Eve']} > 1")
            if not (v["lb_direct"] <= v["ub"] and v["lb_reverse"] <= v["ub"]):
                raise ValueError(f"lower bound above ub {v['ub']}")
            negative = [k for k in NONNEGATIVE if not v[k] >= 0.0]
            if negative:
                raise ValueError(f"negative or NaN rates: {negative}")
            if not abs(v["eta"] - eta_ref) <= ETA_RTOL * eta_ref:
                raise ValueError(f"eta {v['eta']} != Gaussian-beam {eta_ref}")
            if grid is not None and not math.isclose(v["parameter"], grid[i],
                                                     rel_tol=1e-12):
                raise ValueError(f"parameter {v['parameter']} != grid {grid[i]}")
        except (KeyError, ValueError, IndexError) as exc:
            bad[i] = str(exc)
    return bad


@dataclass
class Run:
    """One CLI invocation and what its checks found."""

    label: str
    report: dict
    sha256: str | None
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


def snapshot(directory: Path) -> dict:
    """File name -> (size, mtime_ns, inode) for every file in a directory."""
    return {p.name: (s.st_size, s.st_mtime_ns, s.st_ino)
            for p in sorted(directory.iterdir()) for s in [p.stat()]}


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Session:
    """One benchmark run: set-up, timed repetitions, optional traced run."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, smoke: bool):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.t0 = time.monotonic()
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
        self.config = make_config(workload, seed, smoke)
        self.config_path = self.work / "workload.json"
        self.config_path.write_text(json.dumps(self.config, indent=1, sort_keys=True))
        self.grid = sweep_grid(self.config) if workload.command == "sweep" else None
        self.expected_rows = len(self.grid) if self.grid else None
        self.env = {k: v for k, v in os.environ.items() if k != CACHE_ENV_VAR}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.runs: list[Run] = []
        self.reference_sha: str | None = None
        self.reference_label = ""
        self.problems: list[str] = []
        self._count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def cli(self, label: str, cache_dir: Path | None, threads: int | None = None,
            traced: bool = False) -> Run:
        """Run the workload's command once in a fresh process and check it."""
        self._count += 1
        out_dir = self.work / f"out{self._count}"
        report_path = self.work / f"report{self._count}.json"
        env = dict(self.env)
        if cache_dir is not None:
            env[CACHE_ENV_VAR] = str(cache_dir)
        cmd = [sys.executable, str(PROBE), "--report", str(report_path)]
        if traced:
            cmd.append("--trace")
        cli_args = ["--", self.workload.command, "--config", str(self.config_path),
                    "--out", str(out_dir),
                    "--threads", str(threads or self.workload.threads)]
        log_path = self.work / f"log{self._count}.txt"
        with open(log_path, "wb") as log:
            launched = time.monotonic()
            proc = subprocess.Popen(cmd + ["--launched", repr(launched)] + cli_args,
                                    cwd=self.work, env=env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        report = (json.loads(report_path.read_text()) if report_path.exists()
                  else {"exit_code": proc.returncode})
        return self._check(label, report, out_dir / "workload__run.csv", log_path)

    def _check(self, label: str, report: dict, csv_path: Path, log_path: Path) -> Run:
        problems = []
        rows: list[dict] = []
        sha = None
        if csv_path.exists():
            data = csv_path.read_bytes()
            sha = hashlib.sha256(data).hexdigest()
            rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
        attempted = max(self.expected_rows or len(rows), 1)
        bad = check_rows(rows, self.config, self.grid)
        failed = len(bad) + max(0, attempted - len(rows))
        problems += [f"{label}: row {i}: {why}" for i, why in sorted(bad.items())]
        if len(rows) < attempted:
            problems.append(f"{label}: {attempted - len(rows)} rows missing")
        if report.get("exit_code") != 0:
            tail = log_path.read_text(errors="replace")[-400:].strip()
            problems.append(f"{label}: exit code {report.get('exit_code')}: {tail}")
            if not bad and len(rows) >= attempted:
                failed = attempted
        if sha is not None and self.reference_sha is None:
            self.reference_sha, self.reference_label = sha, label
        elif sha != self.reference_sha:
            problems.append(f"{label}: CSV sha256 {sha} differs from "
                            f"{self.reference_label} ({self.reference_sha})")
            failed = attempted
        run = Run(label, report, sha, attempted, min(failed, attempted), problems)
        self.runs.append(run)
        self.problems += problems
        return run

    def fresh_cache(self) -> Path | None:
        if self.workload.cache != "fresh":
            return None
        return Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))

    def execute(self) -> dict:
        w = self.workload
        info: dict = {}
        warm_cache = None
        if w.cache == "warm":
            warm_cache = self.work / "warm-cache"
            fill = self.cli("fill", warm_cache)
            if self.expected_rows is None and fill.report.get("exit_code") == 0:
                self.expected_rows = fill.attempted
            info["fill_s"] = fill.report.get("wall_s", 0.0)
            info["cache_files"] = len(list(warm_cache.glob("*")))
            before = snapshot(warm_cache)
        elif w.threads > 1:  # the CSV must not depend on the thread count
            self.cli("threads1", self.fresh_cache(), threads=1)

        timed: list[Run] = []
        t_start = time.monotonic()
        min_samples = 1 if self.smoke else MIN_SAMPLES
        while (len(timed) < min_samples
               or time.monotonic() - t_start < self.seconds):
            if self.elapsed() > SAMPLE_CUTOFF_S and timed:
                break
            run = self.cli(f"sample{len(timed) + 1}", warm_cache or self.fresh_cache())
            if warm_cache is not None:
                after = snapshot(warm_cache)
                if after != before:
                    changed = sorted(set(after.items()) ^ set(before.items()))
                    run.problems.append(f"{run.label}: cache directory changed: "
                                        f"{changed[:3]}")
                    self.problems.append(run.problems[-1])
                    run.failed = run.attempted
                    before = after
            timed.append(run)
            if "wall_s" not in run.report:  # killed or crashed before reporting
                break
        info["samples"] = timed

        if self.trace:
            traced = self.cli("traced", warm_cache or self.fresh_cache(), traced=True)
            info["traced"] = traced
        return info

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def attribution_problems(workload: Workload, layers: dict, busy: dict) -> list[str]:
    """Check that the traced run still gives the workload its dominant layer."""
    problems = []
    groups = {
        "propagation": layers.get("diffraction.propagate.busy_s", 0.0),
        "rates": busy.get("rates", 0.0),
        "disk_power+cache_reads": (layers.get("diffraction.disk_power.busy_s", 0.0)
                                   + layers.get("cache.disk.read_s", 0.0)),
        "csv": busy.get("cli", 0.0),
    }
    top = max(groups, key=groups.get)
    if top != workload.dominant:
        problems.append(f"attribution: {workload.name} should be dominated by "
                        f"{workload.dominant}, traced busy seconds are {groups}")
    return problems


def invariant_problems(workload: Workload, layers: dict) -> list[str]:
    problems = []
    calls = layers.get("diffraction.propagate.calls")
    if workload.cache == "warm":
        if calls != 0:
            problems.append(f"traced warm run computed {calls} profiles, expected 0")
        if not layers.get("cache.disk.reads", 0) > 0:
            problems.append("traced warm run read nothing from the disk cache")
    if workload.cache == "fresh" and calls is not None \
            and layers.get("cache.disk.writes") != calls:
        problems.append(f"cache writes {layers.get('cache.disk.writes')} != "
                        f"profiles computed {calls}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fsoqkd end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, for the benchmark's own tests")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "fsoqkd" / "cli.py").is_file():
        print(f"error: no fsoqkd sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    session = Session(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    try:
        info = session.execute()
    finally:
        session.close()

    samples: list[Run] = info["samples"]
    ok_samples = [r for r in samples if r.report.get("exit_code") == 0]
    stats = {name: summarize([r.report[name] for r in ok_samples])
             for name, *_ in END_TO_END} if ok_samples else {}
    problems = list(session.problems)
    attempted = sum(r.attempted for r in session.runs)
    failed = sum(r.failed for r in session.runs)

    if args.trace:
        traced: Run = info["traced"]
        layers = dict(traced.report.get("layers", {}))
        busy = traced.report.get("layer_busy_s", {})
        layers["cache.fill_s"] = info.get("fill_s", 0.0)
        if stats and traced.report.get("exit_code") == 0:
            layers["trace.overhead_frac"] = (traced.report["wall_s"]
                                             / stats["wall_s"]["median"] - 1.0)
        problems += invariant_problems(workload, layers)
        if not args.smoke:
            problems += attribution_problems(workload, layers, busy)
        units = {n: u for n, u, _ in layer_metric_specs()}
        metrics = {n: {"value": layers[n], "unit": units[n]} for n in units if n in layers}
    else:
        metrics = {n: {"value": stats[n]["median"], "unit": u}
                   for n, u, *_ in END_TO_END if n in stats}

    env = environment()
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "config": session.config,
        "environment": env, "stats": stats,
        "runs": [{"label": r.label, "sha256": r.sha256, "attempted": r.attempted,
                  "failed": r.failed, **r.report} for r in session.runs],
        "cache_files": info.get("cache_files"), "problems": problems,
        "metrics": metrics,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(samples)} timed samples, {len(session.runs)} CLI runs")
    print(f"environment: nproc {env['nproc']}, python {env['python']}, numpy "
          f"{env['numpy']}, scipy {env['scipy']}, blas {env['blas']}, "
          f"threads {env['blas_threads']}, commit {env['git_commit']}")
    for name, unit, *_ in END_TO_END:
        if name in stats:
            s = stats[name]
            print(f"  {name:12s} median {s['median']:.4f} {unit}  "
                  f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}")
    print(f"  failed_frac  {failed / max(attempted, 1):.4f} ratio  "
          f"({failed} of {attempted} rows)")
    for r in session.runs:
        print(f"  csv {r.label}: sha256 {r.sha256}")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name} = {value['value']} {value['unit']}")
    for p in problems[:20]:
        print(f"PROBLEM {p}", file=sys.stderr)
    correct = not problems and failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
