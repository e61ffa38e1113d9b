"""Run one `kingman` CLI command with a span recorded around every layer call.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 perfbench/tracer.py SPANS.json -- qv-scan --n 500 --out q.json

The wrappers live here, not in the package: every public function listed in
LAYERS is replaced at each name binding the package looks it up through
(module globals such as ``kingman.experiments.build_path``, module-level
dicts such as ``EXPERIMENTS``, and class attributes for methods). A wrapper
only reads its arguments and result, so the random draw order and every
output byte stay as in an untraced run.

Spans are kept in memory as ``[name, parent_index, start, end, counts]`` and
written to SPANS.json when the command ends, whatever its exit status.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time


def _n_events(args, result):
    return {"events": int(args["log"].n_events)}


def _svg_points(args, result):
    return {"points": sum(len(points) for _, points in args["series"])}


# Layer name -> (module, attribute path, work counter). A work counter maps
# the bound call arguments and the result to deterministic counts.
LAYERS = {
    "rng.make_stream": ("kingman.rng", "make_stream", None),
    "rng.RngStream.exponentials": (
        "kingman.rng", "RngStream.exponentials",
        lambda a, r: {"draws": int(a["size"])},
    ),
    "rng.sample_poisson_times": (
        "kingman.rng", "sample_poisson_times",
        lambda a, r: {"arrivals": int(r.size)},
    ),
    "lookdown.simulate_events": (
        "kingman.lookdown", "simulate_events",
        lambda a, r: {"events": int(r.n_events)},
    ),
    "lookdown.stationary_births": (
        "kingman.lookdown", "stationary_births",
        lambda a, r: {"levels": int(a["N"]) - 1},
    ),
    "lookdown.sample_stationary_state": (
        "kingman.lookdown", "sample_stationary_state", None,
    ),
    "lookdown.resolve_final_state": (
        "kingman.lookdown", "resolve_final_state", _n_events,
    ),
    "lookdown.sample_infinite_deaths": (
        "kingman.lookdown", "sample_infinite_deaths",
        lambda a, r: {"deaths": int(r.count)},
    ),
    "treelength.build_path": ("kingman.treelength", "build_path", _n_events),
    "treelength.reconstruct_length_backward": (
        "kingman.treelength", "reconstruct_length_backward", None,
    ),
    "treelength.sample_static_kingman_length": (
        "kingman.treelength", "sample_static_kingman_length", None,
    ),
    "treelength.sample_stationary_length_increments": (
        "kingman.treelength", "sample_stationary_length_increments",
        lambda a, r: {"reps": int(a["reps"])},
    ),
    "stats.quadratic_variation": ("kingman.stats", "quadratic_variation", None),
    "stats.qv_mesh_scan": ("kingman.stats", "qv_mesh_scan", None),
    "stats.poisson_suite": ("kingman.stats", "poisson_suite", None),
    "stats.ks_test": ("kingman.stats", "ks_test", None),
    "stats.ks_test_two_sample": ("kingman.stats", "ks_test_two_sample", None),
    "stats.variance_scaling": ("kingman.stats", "variance_scaling", None),
    "experiments.run_qv_scan": ("kingman.experiments", "run_qv_scan", None),
    "experiments.run_crosscheck": ("kingman.experiments", "run_crosscheck", None),
    "experiments.run_variance_scaling": (
        "kingman.experiments", "run_variance_scaling", None,
    ),
    "experiments.run_gumbel": ("kingman.experiments", "run_gumbel", None),
    "experiments.run_divergence": ("kingman.experiments", "run_divergence", None),
    "experiments.run_poisson_deaths": (
        "kingman.experiments", "run_poisson_deaths", None,
    ),
    "reports.ExperimentReport.to_json": (
        "kingman.reports", "ExperimentReport.to_json",
        lambda a, r: {"bytes": len(r)},
    ),
    "svg.emit_svg": ("kingman.svg", "emit_svg", _svg_points),
    "cli.main": ("kingman.cli", "main", None),
}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else None, 0.0, 0.0, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span[4] = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def install(tracer: Tracer) -> dict:
    """Wrap every LAYERS entry at all of its bindings; return the wrappers."""
    importlib.import_module("kingman.cli")  # imports every engine module
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "kingman" or n.startswith("kingman.")]
    wrappers = {}
    for name, (module_name, path, counter) in LAYERS.items():
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, counter)
        wrappers[name] = wrapper
        if outer:  # a method: the class attribute is its only binding
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for dict_key, dict_value in list(value.items()):
                        if dict_value is original:
                            value[dict_key] = wrapper
    return wrappers


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <kingman arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    cli_main = install(tracer)["cli.main"]
    try:
        return cli_main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fp:
            json.dump({"spans": tracer.spans}, fp)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
