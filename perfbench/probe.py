"""Run one ``fsoqkd`` CLI command in this process and report how it went.

Usage::

    python3 perfbench/probe.py --report OUT.json --launched T [--trace] \
        -- sweep --config run.json --out DIR --threads 2

``T`` is the ``time.monotonic()`` reading the parent took just before it
started this process.  The report (JSON) holds:

* ``setup_s``: from ``T`` until ``fsoqkd.cli`` is imported, i.e. interpreter
  start plus the package imports (scipy dominates);
* ``wall_s``: ``fsoqkd.cli.main`` from entry to return, config parsing and
  CSV writing included;
* ``cpu_s`` and ``peak_rss_mb``: user + system CPU time and peak resident
  memory of this process, all threads;
* ``exit_code``: what ``python -m fsoqkd.cli`` would have exited with;
* with ``--trace``, ``layers``: per-layer counters and busy times.

Tracing wraps each layer's public functions at every ``fsoqkd`` module that
holds a reference to them (callers import by name, e.g. ``fsoqkd.sweeps``
binds its own ``propagate_profile``).  Spans live on a per-thread stack, so
nested time is attributed to the right parent when sweep rows run on worker
threads; busy times are summed over threads.  A function that no longer
exists is skipped and its metrics are left out.  References captured before
tracing starts (default arguments, closures) are not seen.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import sys
import threading
import time
import traceback
from collections import Counter

# Propagation distances (m) splitting short / mid / long Bob-Eve hops.
SHORT_HOP_M = 2_000.0
LONG_HOP_M = 20_000.0


def _propagate_info(args, kwargs, result):
    distance = kwargs.get("distance", args[1] if len(args) > 1 else None)
    budget = getattr(result, "budget", None)
    return {"distance": distance,
            "source_nodes": getattr(budget, "source_nodes", 0),
            "profile_nodes": getattr(budget, "profile_nodes", 0),
            "achieved": getattr(budget, "achieved", 0.0)}


def _write_info(args, kwargs, result):
    blob = kwargs.get("blob", args[2] if len(args) > 2 else b"")
    return {"bytes": len(blob)}


def _rows_info(args, kwargs, result):
    rows = kwargs.get("rows", args[1] if len(args) > 1 else ())
    return {"rows": len(rows) if hasattr(rows, "__len__") else 0}


# (span name, layer, defining module, attribute, span info).  ``Class.method``
# attributes are patched on the class, plain functions at every module that
# holds them.
TARGETS = [
    ("bessel.j0", "bessel", "fsoqkd.bessel", "bessel_j0",
     lambda a, k, r: {"evals": getattr(a[0] if a else k.get("x"), "size", 1)}),
    ("diffraction.propagate", "diffraction", "fsoqkd.diffraction",
     "propagate_profile", _propagate_info),
    ("diffraction.disk_power", "diffraction", "fsoqkd.diffraction", "disk_power", None),
    ("channel.params", "channel", "fsoqkd.channel", "channel_params", None),
    ("rates.rate_report", "rates", "fsoqkd.rates", "rate_report", None),
    ("rates.optimize_mu", "rates", "fsoqkd.rates", "optimize_mu", None),
    ("rates.eve_spectra", "rates", "fsoqkd.rates", "eve_spectra", None),
    ("rates.objective", "rates", "fsoqkd.rates", "evaluate_objective", None),
    ("sweeps.run_sweep", "sweeps", "fsoqkd.sweeps", "run_sweep", None),
    ("sweeps.optimal_eve_distance", "sweeps", "fsoqkd.sweeps",
     "optimal_eve_distance", None),
    ("sweeps.profile_cache", "sweeps", "fsoqkd.sweeps",
     "ProfileCache.get_or_compute", None),
    ("cache.disk.lookup", "cache", "fsoqkd.cache",
     "ProfileDiskCache.get_or_compute", None),
    ("cache.disk.write", "cache", "fsoqkd.cache",
     "ProfileDiskCache._write_atomic", _write_info),
    ("cache.disk.serialize", "cache", "fsoqkd.diffraction", "serialize_profile", None),
    ("cache.disk.deserialize", "cache", "fsoqkd.diffraction", "deserialize_profile", None),
    ("cli.csv", "cli", "fsoqkd.cli", "write_rows_csv", _rows_info),
]

# Per-layer metrics: (name, unit, better, spans the metric is made from).
LAYER_METRICS = [
    ("bessel.j0.calls", "count", "lower", ("bessel.j0",)),
    ("bessel.j0.evals", "count", "lower", ("bessel.j0",)),
    ("bessel.j0.busy_s", "s", "lower", ("bessel.j0",)),
    ("bessel.j0.ns_per_eval", "ns", "lower", ("bessel.j0",)),
    ("diffraction.propagate.calls", "count", "lower", ("diffraction.propagate",)),
    ("diffraction.propagate.busy_s", "s", "lower", ("diffraction.propagate",)),
    ("diffraction.propagate.self_s", "s", "lower", ("diffraction.propagate",)),
    ("diffraction.propagate.source_nodes", "count", "lower", ("diffraction.propagate",)),
    ("diffraction.propagate.profile_nodes", "count", "lower", ("diffraction.propagate",)),
    ("diffraction.propagate.max_achieved_err", "rel_err", "lower", ("diffraction.propagate",)),
    ("diffraction.propagate.short.busy_s", "s", "lower", ("diffraction.propagate",)),
    ("diffraction.propagate.mid.busy_s", "s", "lower", ("diffraction.propagate",)),
    ("diffraction.propagate.long.busy_s", "s", "lower", ("diffraction.propagate",)),
    ("diffraction.disk_power.calls", "count", "lower", ("diffraction.disk_power",)),
    ("diffraction.disk_power.busy_s", "s", "lower", ("diffraction.disk_power",)),
    ("channel.params.calls", "count", "lower", ("channel.params",)),
    ("channel.params.self_s", "s", "lower", ("channel.params",)),
    ("rates.rate_report.calls", "count", "lower", ("rates.rate_report",)),
    ("rates.rate_report.busy_s", "s", "lower", ("rates.rate_report",)),
    ("rates.optimize_mu.calls", "count", "lower", ("rates.optimize_mu",)),
    ("rates.optimize_mu.busy_s", "s", "lower", ("rates.optimize_mu",)),
    ("rates.eve_spectra.calls", "count", "lower", ("rates.eve_spectra",)),
    ("rates.eve_spectra.busy_s", "s", "lower", ("rates.eve_spectra",)),
    ("rates.objective.calls", "count", "lower", ("rates.objective",)),
    ("sweeps.profile_cache.lookups", "count", "lower", ("sweeps.profile_cache",)),
    ("sweeps.profile_cache.hit_ratio", "ratio", "higher", ("sweeps.profile_cache",)),
    ("sweeps.run_sweep.busy_s", "s", "lower", ("sweeps.run_sweep",)),
    ("sweeps.optimal_eve_distance.busy_s", "s", "lower", ("sweeps.optimal_eve_distance",)),
    ("sweeps.optimal_eve_distance.evals", "count", "lower",
     ("sweeps.optimal_eve_distance", "rates.objective")),
    ("cache.disk.reads", "count", "lower", ("cache.disk.deserialize",)),
    ("cache.disk.read_s", "s", "lower", ("cache.disk.lookup", "diffraction.propagate")),
    ("cache.disk.writes", "count", "lower", ("cache.disk.write",)),
    ("cache.disk.write_s", "s", "lower", ("cache.disk.write", "cache.disk.serialize")),
    ("cache.disk.bytes_written", "B", "lower", ("cache.disk.write",)),
    ("cli.csv.rows", "count", "higher", ("cli.csv",)),
    ("cli.csv.write_s", "s", "lower", ("cli.csv",)),
]


class Span:
    __slots__ = ("name", "layer", "tid", "parent", "start", "end", "child_s",
                 "kids", "outermost", "layer_outermost", "in_search", "info")

    def __init__(self, name, layer, tid, parent, active):
        self.name = name
        self.layer = layer
        self.tid = tid
        self.parent = parent
        self.outermost = active[name] == 0
        self.layer_outermost = active[layer] == 0
        self.in_search = active["sweeps.optimal_eve_distance"] > 0
        self.child_s = 0.0
        self.kids = None
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; one stack and active-name counter per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.installed: set[str] = set()
        self._local = threading.local()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], Counter())
        return state

    def wrap(self, name, layer, fn, info=None):
        tracer = self
        layer_key = "layer:" + layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, active = tracer._state()
            span = Span(name, layer_key, threading.get_ident(),
                        stack[-1] if stack else None, active)
            stack.append(span)
            active[name] += 1
            active[layer_key] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                active[name] -= 1
                active[layer_key] -= 1
                stack.pop()
                parent = span.parent
                if parent is not None:
                    parent.child_s += span.end - span.start
                    if parent.kids is None:
                        parent.kids = set()
                    parent.kids.add(name)
                tracer.spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS):
        """Wrap every resolvable target; return the names left unwrapped."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fsoqkd" or n.startswith("fsoqkd."))]
        missing = []
        for name, layer, module_name, attr, info in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, fn_name, None)
            if not callable(original):
                missing.append(name)
                continue
            wrapper = self.wrap(name, layer, original, info)
            if cls_path:
                setattr(owner, fn_name, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
            self.installed.add(name)
        return missing

    def layer_busy(self) -> dict:
        """Busy seconds per layer, counting only its outermost spans."""
        busy = Counter()
        for span in self.spans:
            if span.layer_outermost:
                busy[span.layer.removeprefix("layer:")] += span.duration
        return dict(busy)

    def layer_metrics(self) -> dict:
        """Aggregate the spans into the ``LAYER_METRICS`` values."""
        calls, busy, self_s = Counter(), Counter(), Counter()
        by_name: dict[str, list[Span]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)
            calls[span.name] += 1
            if span.outermost:
                busy[span.name] += span.duration
                self_s[span.name] += span.duration - span.child_s

        def total(name, key):
            return sum((s.info or {}).get(key, 0) for s in by_name.get(name, ()))

        prop = by_name.get("diffraction.propagate", [])

        def hop_busy(lo, hi):
            return sum(s.duration for s in prop if s.outermost and s.info
                       and s.info["distance"] is not None
                       and lo <= s.info["distance"] < hi)

        evals = total("bessel.j0", "evals")
        lookups = calls["sweeps.profile_cache"]
        hits = sum(1 for s in by_name.get("sweeps.profile_cache", ()) if not s.kids)
        values = {
            "bessel.j0.calls": calls["bessel.j0"],
            "bessel.j0.evals": evals,
            "bessel.j0.busy_s": busy["bessel.j0"],
            "bessel.j0.ns_per_eval": busy["bessel.j0"] / evals * 1e9 if evals else 0.0,
            "diffraction.propagate.calls": calls["diffraction.propagate"],
            "diffraction.propagate.busy_s": busy["diffraction.propagate"],
            "diffraction.propagate.self_s": self_s["diffraction.propagate"],
            "diffraction.propagate.source_nodes": total("diffraction.propagate", "source_nodes"),
            "diffraction.propagate.profile_nodes": total("diffraction.propagate", "profile_nodes"),
            "diffraction.propagate.max_achieved_err": max(
                (float(s.info["achieved"]) for s in prop if s.info), default=0.0),
            "diffraction.propagate.short.busy_s": hop_busy(0.0, SHORT_HOP_M),
            "diffraction.propagate.mid.busy_s": hop_busy(SHORT_HOP_M, LONG_HOP_M),
            "diffraction.propagate.long.busy_s": hop_busy(LONG_HOP_M, float("inf")),
            "diffraction.disk_power.calls": calls["diffraction.disk_power"],
            "diffraction.disk_power.busy_s": busy["diffraction.disk_power"],
            "channel.params.calls": calls["channel.params"],
            "channel.params.self_s": self_s["channel.params"],
            "rates.rate_report.calls": calls["rates.rate_report"],
            "rates.rate_report.busy_s": busy["rates.rate_report"],
            "rates.optimize_mu.calls": calls["rates.optimize_mu"],
            "rates.optimize_mu.busy_s": busy["rates.optimize_mu"],
            "rates.eve_spectra.calls": calls["rates.eve_spectra"],
            "rates.eve_spectra.busy_s": busy["rates.eve_spectra"],
            "rates.objective.calls": calls["rates.objective"],
            "sweeps.profile_cache.lookups": lookups,
            "sweeps.profile_cache.hit_ratio": hits / lookups if lookups else 0.0,
            "sweeps.run_sweep.busy_s": busy["sweeps.run_sweep"],
            "sweeps.optimal_eve_distance.busy_s": busy["sweeps.optimal_eve_distance"],
            "sweeps.optimal_eve_distance.evals": sum(
                1 for s in by_name.get("rates.objective", ()) if s.in_search),
            "cache.disk.reads": calls["cache.disk.deserialize"],
            "cache.disk.read_s": sum(
                s.duration for s in by_name.get("cache.disk.lookup", ())
                if s.outermost and "diffraction.propagate" not in (s.kids or ())),
            "cache.disk.writes": calls["cache.disk.write"],
            "cache.disk.write_s": busy["cache.disk.write"] + busy["cache.disk.serialize"],
            "cache.disk.bytes_written": total("cache.disk.write", "bytes"),
            "cli.csv.rows": total("cli.csv", "rows"),
            "cli.csv.write_s": busy["cli.csv"],
        }
        return {name: values[name] for name, _u, _b, sources in LAYER_METRICS
                if all(s in self.installed for s in sources)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True, help="JSON report path")
    parser.add_argument("--launched", type=float, required=True,
                        help="parent's time.monotonic() at process launch")
    parser.add_argument("--trace", action="store_true",
                        help="wrap layer functions and report per-layer metrics")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for fsoqkd, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import fsoqkd.cli

    t_ready = time.monotonic()
    tracer = None
    missing = []
    if args.trace:
        tracer = Tracer()
        missing = tracer.install()
    t_main = time.monotonic()
    try:
        exit_code = fsoqkd.cli.main(cli_args)
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error exits 1, as the CLI itself would
        traceback.print_exc()
        exit_code = 1
    t_done = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "exit_code": exit_code,
        "setup_s": t_ready - args.launched,
        "wall_s": t_done - t_main,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["layer_busy_s"] = tracer.layer_busy()
        report["spans"] = len(tracer.spans)
        report["unwrapped"] = missing
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
