"""The benchmark tracer's view of the package still matches the package.

perfbench/tracer.py names the layers it wraps by module and attribute, and
its work counters read call arguments by parameter name. Those files change
only with the benchmark itself, so a rename in the package must not leave a
name they look up dangling.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Read(Exception):
    def __init__(self, key):
        super().__init__(key)
        self.key = key


class _ArgumentSpy(dict):
    """Bound arguments that stop a counter at the first name it reads."""

    def __getitem__(self, key):
        raise _Read(key)


def test_traced_layers_resolve_with_the_parameters_their_counters_read():
    layers = _load_tracer().LAYERS
    read = set()
    for name, (module_name, path, counter) in layers.items():
        target = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(target, part), f"{name}: {module_name}.{path} is gone"
            target = getattr(target, part)
        assert callable(target), name
        if counter is None:
            continue
        try:
            counter(_ArgumentSpy(), None)
        except _Read as exc:
            params = inspect.signature(target).parameters
            assert exc.key in params, f"{name} lost its parameter {exc.key!r}"
            read.add(exc.key)
        except (AttributeError, TypeError):
            pass  # the counter reads only the result
    assert read == {"N", "size", "reps", "log", "series"}


def test_environment_probe_finds_the_kernel_flag():
    kernels = importlib.import_module("kingman._kernels")
    assert isinstance(kernels.HAVE_NUMBA, bool)


# Every subcommand at a tiny size, and the work counts its spans must carry.
# The tracer records spans only in its own process, so the runners that
# default to a worker per CPU are held to one.
_TRACED_RUNS = [
    (["simulate-path", "--n", "10", "--t1", "1", "--svg"], "path.csv"),
    (["mean-length", "--n", "10", "--reps", "20"], "report.json"),
    (["gumbel", "--n", "10", "--reps", "20"], "report.json"),
    (["poisson-deaths", "--levels", "4", "--reps", "4", "--workers", "1"], "report.json"),
    (["divergence", "--k-grid", "2,4,8,200", "--reps", "2", "--workers", "1"],
     "report.json"),
    (["qv-scan", "--n", "20", "--n-grid", "10,20", "--reps", "2"], "report.json"),
    (["variance-scaling", "--n", "20", "--reps", "4"], "report.json"),
    (["crosscheck", "--n", "10"], "report.json"),
]
_COUNTED_BY = {
    "deaths": {"lookdown.sample_infinite_deaths"},
    "events": {"lookdown.simulate_events", "treelength.build_path",
               "lookdown.resolve_final_state"},
    "arrivals": {"rng.sample_poisson_times"},
    "reps": {"treelength.sample_stationary_length_increments"},
    "levels": {"lookdown.stationary_births"},
    "draws": {"rng.RngStream.exponentials"},
    "points": {"svg.emit_svg"},
}


def test_tracer_counts_the_work_of_every_subcommand(tmp_path):
    # The counters read results and arguments (r.count, r.size, r.n_events,
    # a["N"], ...), so each is run here on what the package returns.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    counted = {}
    for i, (argv, out) in enumerate(_TRACED_RUNS):
        spans_path = tmp_path / f"spans{i}.json"
        run_dir = tmp_path / f"run{i}"
        run_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(TRACER), str(spans_path), "--", *argv,
             "--seed", "1", "--out", str(run_dir / out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        # Some statistical verdicts fail at these sizes (exit 1).
        assert proc.returncode in (0, 1), (argv, proc.stderr)
        totals = {}
        for name, _, _, _, counts in json.loads(spans_path.read_text())["spans"]:
            for key, value in (counts or {}).items():
                assert isinstance(value, int) and value >= 0, (name, key, value)
                if value:
                    counted.setdefault(key, set()).add(name)
                totals[name, key] = totals.get((name, key), 0) + value
        if argv[0] == "simulate-path":
            # The one replayed log is the one simulated.
            events = totals["lookdown.simulate_events", "events"]
            assert events > 0
            assert totals["treelength.build_path", "events"] == events
            assert totals["rng.sample_poisson_times", "arrivals"] == events
            # The SVG's one series is the corner source: two rows per jump,
            # the start and the end.
            assert totals["svg.emit_svg", "points"] == 2 * events + 2
    # Each counter counted some work, on the layer it belongs to.
    assert counted == _COUNTED_BY
