"""End-to-end benchmark of the `kingman` command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client: the workload's commands run
one after another, each in a fresh Python process (``workers=1``, BLAS pinned
to one thread), with the seed passed on the command line. A pass is one run
of every command; passes repeat until the next one would overrun
``--seconds``. Timings are medians over passes.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced pass with a pass run through ``tracer.py`` and reports the
per-command wall times of the untraced passes, the per-layer metrics, the
tracing overhead, and the share of each command's wall time spent in its
dominant layer.

Every command's outputs are checked (exit status, exactness verdicts, finite
numbers, well-formed JSON/CSV/SVG) and digested. Digests and work counts must
agree across the passes of a run, between traced and untraced passes, and
across runs of the same seed on the same code (a record is kept under
``.perfbench_work/``). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")

SETUP_REPS = 5
COMMAND_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0
BLAS_THREADS = "1"


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    exact: verdicts that must pass whatever the seed (a miss is a failure).
    dominant: layer metrics ("<layer>.s" or "<layer>.self_s") whose summed
    share of this command's wall time the traced run reports.
    """

    args: tuple[str, ...]
    out: str
    exact: tuple[str, ...]
    dominant: tuple[str, ...]

    @property
    def name(self) -> str:
        return self.args[0]


# Why each workload exists, and the layers it is meant to move, is recorded in
# BENCHMARK.json and perfbench/README.md. Each workload has exactly three
# commands so that wall_s.cmd1..cmd3 exist on every workload.
WORKLOADS = {
    "replay": (
        Command(("qv-scan", "--n", "500", "--n-grid", "50,100,200,400",
                 "--reps", "5", "--svg"), "qv.json",
                ("finest_qv_matches_jump_squares",), ("treelength.build_path.s",)),
        # negative_control_detected is not exact: the dropped event can be
        # one whose effect vanishes before the next query (seed 2 reads
        # 4.7e-12), so it is counted with the statistical verdicts.
        Command(("crosscheck",), "crosscheck.json",
                ("incremental_matches_reconstruction",),
                ("lookdown.resolve_final_state.s",)),
        Command(("simulate-path", "--n", "200", "--t0", "0", "--t1", "5", "--svg"),
                "path.csv", (), ("cli.main.self_s", "svg.emit_svg.s")),
    ),
    "stationary": (
        Command(("variance-scaling", "--n", "10000", "--reps", "250"), "vs.json",
                (), ("lookdown.stationary_births.s",)),
        Command(("variance-scaling", "--n", "1000", "--reps", "500"), "vs1k.json",
                (), ("lookdown.stationary_births.s",)),
        Command(("gumbel", "--reps", "10000"), "gumbel.json",
                (), ("treelength.sample_static_kingman_length.s",)),
    ),
    "lifelengths": (
        Command(("divergence", "--reps", "4", "--svg"), "divergence.json",
                ("replicates_strictly_increasing",),
                ("experiments.run_divergence.self_s",)),
        Command(("poisson-deaths", "--reps", "50"), "deaths.json",
                (), ("lookdown.sample_infinite_deaths.s",)),
        Command(("poisson-deaths", "--levels", "4", "--reps", "400"), "deaths4.json",
                (), ("lookdown.sample_infinite_deaths.s",)),
    ),
}

# Layers whose calls, inclusive seconds and self seconds are reported.
TIMED_LAYERS = (
    "rng.make_stream", "rng.RngStream.exponentials", "rng.sample_poisson_times",
    "lookdown.simulate_events", "lookdown.stationary_births",
    "lookdown.sample_stationary_state", "lookdown.resolve_final_state",
    "lookdown.sample_infinite_deaths",
    "treelength.build_path", "treelength.reconstruct_length_backward",
    "treelength.sample_static_kingman_length",
    "treelength.sample_stationary_length_increments",
    "stats.quadratic_variation", "stats.qv_mesh_scan", "stats.poisson_suite",
    "stats.ks_test", "stats.ks_test_two_sample", "stats.variance_scaling",
    "experiments.run_qv_scan", "experiments.run_crosscheck",
    "experiments.run_variance_scaling", "experiments.run_gumbel",
    "experiments.run_divergence", "experiments.run_poisson_deaths",
    "reports.ExperimentReport.to_json", "svg.emit_svg", "cli.main",
)

# (layer, work count, rate metric, scale): inclusive time per unit of work.
WORK_RATES = (
    ("treelength.build_path", "events", "us_per_event", 1e6),
    ("lookdown.simulate_events", "events", "ns_per_event", 1e9),
    ("lookdown.resolve_final_state", "events", "ns_per_event", 1e9),
    ("lookdown.stationary_births", "levels", "ns_per_level", 1e9),
    ("treelength.sample_stationary_length_increments", "reps", "ms_per_rep", 1e3),
    ("lookdown.sample_infinite_deaths", "lines", "ns_per_line", 1e9),
    ("rng.RngStream.exponentials", "draws", "ns_per_draw", 1e9),
)


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KINGMAN_OUT_DIR", None)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], log_dir: str) -> Proc:
    """Run argv to completion; measure its wall time, CPU time and peak RSS."""
    out_path = os.path.join(log_dir, "stdout.txt")
    err_path = os.path.join(log_dir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fp:
        stdout = fp.read()
    with open(err_path, encoding="utf-8", errors="replace") as fp:
        stderr = fp.read()
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, stdout, stderr)


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _finite(value) -> bool:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return False


def check_report(cmd: Command, path: str, rc: int) -> tuple[list[str], list[str]]:
    """Failures, and the names of failed verdicts that are not exact."""
    with open(path, encoding="utf-8") as fp:
        report = json.loads(fp.read(), parse_constant=lambda c: math.nan)
    failures = []
    for table in report["tables"]:
        if not all(_finite(row) for row in table["rows"]):
            failures.append(f"table {table['name']} has a non-finite number")
    verdicts = {v["name"]: v for v in report["verdicts"]}
    for v in verdicts.values():
        if not _finite(v["observed"]) or v["observed"] is None:
            failures.append(f"verdict {v['name']} observed is not finite")
    for name in cmd.exact:
        if name not in verdicts or verdicts[name]["status"] != "pass":
            failures.append(f"exactness verdict {name} did not pass")
    statistical = [name for name, v in verdicts.items()
                   if v["status"] == "fail" and name not in cmd.exact]
    if rc != (0 if report["pass"] else 1):
        failures.append(f"exit code {rc} disagrees with report pass={report['pass']}")
    return failures, statistical


def check_svg(path: str) -> list[str]:
    root = ET.parse(path).getroot()
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        return [f"{os.path.basename(path)} is not an SVG document"]
    if root.find("{http://www.w3.org/2000/svg}polyline") is None:
        return [f"{os.path.basename(path)} has no plotted series"]
    return []


def check_path_csv(path: str, stdout: str) -> list[str]:
    """simulate-path CSV: header, finite (time, length) rows, 2 per jump + 2."""
    jumps = [int(tok.split("=")[1]) for tok in stdout.split() if tok.startswith("jumps=")]
    rows = 0
    last_t = -math.inf
    header_seen = False
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            if line.startswith("# "):
                continue
            if not header_seen:
                if line != "time,length\n":
                    return ["path CSV header is not time,length"]
                header_seen = True
                continue
            t, v = (float(x) for x in line.split(","))
            if not (math.isfinite(t) and math.isfinite(v)) or t < last_t:
                return [f"path CSV row {rows} is not finite and time ordered"]
            last_t = t
            rows += 1
    if len(jumps) != 1 or rows != 2 * jumps[0] + 2:
        return [f"path CSV has {rows} rows for jumps={jumps}"]
    return []


def check_command(cmd: Command, proc: Proc, out_dir: str) -> tuple[list[str], list[str]]:
    """Failures (empty when the command succeeded) and failed statistical verdicts."""
    if proc.rc not in (0, 1) or "Traceback" in proc.stderr:
        return [f"exit code {proc.rc}: {proc.stderr.strip()[-300:]}"], []
    stem = os.path.splitext(cmd.out)[0]
    expected = {cmd.out} | ({stem + ".svg"} if "--svg" in cmd.args else set())
    wrote = {os.path.basename(line[len("wrote "):]) for line in proc.stdout.splitlines()
             if line.startswith("wrote ")}
    present = set(os.listdir(out_dir))
    if wrote != expected or not expected <= present:
        return [f"expected outputs {sorted(expected)}, wrote {sorted(wrote)}"], []
    failures, statistical = [], []
    try:
        if cmd.out.endswith(".json"):
            failures, statistical = check_report(cmd, os.path.join(out_dir, cmd.out),
                                                 proc.rc)
        else:
            failures = check_path_csv(os.path.join(out_dir, cmd.out), proc.stdout)
            if proc.rc != 0:
                failures.append(f"exit code {proc.rc}")
        if "--svg" in cmd.args:
            failures += check_svg(os.path.join(out_dir, stem + ".svg"))
    except (OSError, ValueError, KeyError, TypeError, ET.ParseError) as exc:
        failures.append(f"malformed output: {exc!r}")
    return failures, statistical


def digest_dir(out_dir: str) -> tuple[dict, int]:
    digests, size = {}, 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fp:
            data = fp.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


# ---------------------------------------------------------------------------
# Spans to layer metrics
# ---------------------------------------------------------------------------

def layer_totals(spans: list[list]) -> dict:
    """Per layer: calls, inclusive s, self s, and summed work counts.

    Self time is a span's duration minus the durations of its direct
    children. A span's counts are also added to its parent's layer under
    "<child layer>:<count>", which is how lines born inside
    sample_infinite_deaths and exponential draws inside sample_poisson_times
    are attributed.
    """
    totals: dict[str, dict] = {}
    child_time = [0.0] * len(spans)
    for name, parent, start, end, counts in spans:
        if parent is not None:
            child_time[parent] += end - start
    for idx, (name, parent, start, end, counts) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - child_time[idx]
        for key, value in (counts or {}).items():
            t[key] = t.get(key, 0) + value
            if parent is not None:
                p = totals.setdefault(spans[parent][0],
                                      {"calls": 0, "s": 0.0, "self_s": 0.0})
                p[f"{name}:{key}"] = p.get(f"{name}:{key}", 0) + value
    deaths = totals.get("lookdown.sample_infinite_deaths")
    if deaths is not None:  # every line born is one Poisson arrival
        deaths["lines"] = deaths.get("rng.sample_poisson_times:arrivals", 0)
    return totals


def merge_totals(per_command: list[dict]) -> dict:
    merged: dict[str, dict] = {}
    for totals in per_command:
        for name, t in totals.items():
            m = merged.setdefault(name, {})
            for key, value in t.items():
                m[key] = m.get(key, 0) + value
    return merged


def work_counts(totals: dict) -> dict:
    """The deterministic part of the layer totals: every count, no times."""
    return {name: {k: v for k, v in sorted(t.items()) if k not in ("s", "self_s")}
            for name, t in sorted(totals.items())}


def layer_metrics(totals: dict) -> dict:
    def get(layer, key):
        return totals.get(layer, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.calls"] = (get(layer, "calls"), "count")
        metrics[f"{layer}.s"] = (get(layer, "s"), "s")
        metrics[f"{layer}.self_s"] = (get(layer, "self_s"), "s")
    for layer, count, rate, scale in WORK_RATES:
        metrics[f"{layer}.{count}"] = (get(layer, count), "count")
        metrics[f"{layer}.{rate}"] = (ratio(scale * get(layer, "s"), get(layer, count)),
                                      rate.split("_per_")[0])
    deaths = "lookdown.sample_infinite_deaths"
    metrics[f"{deaths}.deaths"] = (get(deaths, "deaths"), "count")
    metrics[f"{deaths}.kept_frac"] = (ratio(get(deaths, "deaths"), get(deaths, "lines")),
                                      "frac")
    poisson = "rng.sample_poisson_times"
    metrics[f"{poisson}.arrivals"] = (get(poisson, "arrivals"), "count")
    metrics[f"{poisson}.kept_frac"] = (
        ratio(get(poisson, "arrivals"),
              get(poisson, "rng.RngStream.exponentials:draws")), "frac")
    metrics["svg.emit_svg.points"] = (get("svg.emit_svg", "points"), "count")
    metrics["reports.ExperimentReport.to_json.bytes"] = (
        get("reports.ExperimentReport.to_json", "bytes"), "bytes")
    return metrics


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    procs: list[Proc] = field(default_factory=list)
    failures: list[list[str]] = field(default_factory=list)
    statistical: list[list[str]] = field(default_factory=list)
    digests: list[dict] = field(default_factory=list)
    out_bytes: int = 0
    totals: list[dict] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)


def run_pass(commands, seed: int, traced: bool, pass_dir: str) -> PassResult:
    result = PassResult()
    for i, cmd in enumerate(commands):
        cmd_dir = fresh_dir(os.path.join(pass_dir, f"cmd{i + 1}"))
        out_dir = fresh_dir(os.path.join(cmd_dir, "out"))
        cli_args = list(cmd.args) + ["--seed", str(seed), "--out",
                                     os.path.join(out_dir, cmd.out)]
        spans_path = os.path.join(cmd_dir, "spans.json")
        if traced:
            argv = [sys.executable, TRACER, spans_path, "--"] + cli_args
        else:
            argv = [sys.executable, "-c",
                    "import sys; from kingman.cli import main; sys.exit(main())"
                    ] + cli_args
        proc = run_child(argv, cmd_dir)
        failures, statistical = check_command(cmd, proc, out_dir)
        digests, size = digest_dir(out_dir)
        if traced:
            try:
                with open(spans_path, encoding="utf-8") as fp:
                    result.totals.append(layer_totals(json.load(fp)["spans"]))
            except (OSError, ValueError, KeyError) as exc:
                failures.append(f"no spans: {exc!r}")
                result.totals.append({})
        result.procs.append(proc)
        result.failures.append(failures)
        result.statistical.append(statistical)
        result.digests.append(digests)
        result.out_bytes += size
    return result


def measure_setup() -> list[float]:
    """Wall time of a fresh interpreter importing kingman.cli, SETUP_REPS times."""
    log_dir = fresh_dir(os.path.join(WORK, "setup"))
    times = []
    for _ in range(SETUP_REPS):
        proc = run_child([sys.executable, "-c", "import kingman.cli"], log_dir)
        if proc.rc != 0:
            raise SetupError(f"importing kingman.cli failed: {proc.stderr.strip()}")
        times.append(proc.wall)
    return times


def environment_stamp() -> dict:
    probe = (
        "import json, sys, numpy, kingman, kingman.cli, kingman._kernels as k\n"
        "try:\n import numba; numba_ok = True\nexcept ImportError:\n numba_ok = False\n"
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
        " 'numba_importable': numba_ok, 'kernels_compiled': k.HAVE_NUMBA,"
        " 'kingman_file': kingman.__file__}))"
    )
    proc = run_child([sys.executable, "-c", probe], fresh_dir(os.path.join(WORK, "env")))
    if proc.rc != 0:
        raise SetupError(f"environment probe failed: {proc.stderr.strip()}")
    stamp = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = os.path.join(SRC, "kingman", "__init__.py")
    if os.path.realpath(stamp["kingman_file"]) != os.path.realpath(expected):
        raise SetupError(f"kingman imported from {stamp['kingman_file']}, not {expected}")
    stamp["blas_threads"] = BLAS_THREADS
    stamp["nproc"] = len(os.sched_getaffinity(0))
    stamp["platform"] = platform.platform()
    stamp["git"] = git_stamp()
    return stamp


def git_stamp() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "kingman")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fp:
                    h.update(hashlib.sha256(fp.read()).digest())
    return h.hexdigest()


def check_record(workload: str, commands, seed: int, digests, counts) -> list[str]:
    """Compare with (or create) the record of earlier runs of this seed and code."""
    key = hashlib.sha256(json.dumps(
        [source_digest(), workload, seed, [c.args for c in commands]]).encode()
    ).hexdigest()[:24]
    path = os.path.join(WORK, "records", f"{workload}-{seed}-{key}.json")
    try:
        with open(path, encoding="utf-8") as fp:
            record = json.load(fp)
    except FileNotFoundError:
        record = {}
    problems = []
    if record.get("digests", digests) != digests:
        problems.append("output digests differ from an earlier run of this seed")
    if counts is not None and record.get("counts", counts) != counts:
        problems.append("work counts differ from an earlier run of this seed")
    record.setdefault("digests", digests)
    if counts is not None:
        record.setdefault("counts", counts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(record, fp)
    return problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "kingman", "cli.py")):
        raise SetupError(f"no kingman package under {SRC}")
    commands = WORKLOADS[workload]
    os.makedirs(WORK, exist_ok=True)
    stamp = environment_stamp()
    print("env " + json.dumps(stamp, sort_keys=True))
    setup = measure_setup()
    print(f"setup_s runs: {' '.join(f'{t:.4f}' for t in setup)}")

    plain: list[PassResult] = []
    traced: list[PassResult] = []
    start = time.perf_counter()
    while True:
        n = len(plain)
        plain.append(run_pass(commands, seed, False, os.path.join(WORK, f"pass{n}")))
        if trace:
            traced.append(run_pass(commands, seed, True, os.path.join(WORK, f"trace{n}")))
        elapsed = time.perf_counter() - start
        step = elapsed / len(plain)
        if elapsed + step > min(seconds, RUN_LIMIT_S):
            break

    # Per-command failures, then the determinism and work-count checks.
    runs = [(f"pass{i}", p) for i, p in enumerate(plain)]
    runs += [(f"trace{i}", p) for i, p in enumerate(traced)]
    reference = plain[0].digests
    for label, p in runs:
        for i, digests in enumerate(p.digests):
            if digests != reference[i]:
                p.failures[i].append(f"{label} digests differ from pass0")
    counts = None
    if trace:
        counts = [work_counts(t) for t in traced[0].totals]
        for i, p in enumerate(traced[1:], start=1):
            if [work_counts(t) for t in p.totals] != counts:
                p.failures[0].append(f"trace{i} work counts differ from trace0")
    for problem in check_record(workload, commands, seed, reference, counts):
        plain[0].failures[0].append(problem)

    attempted = sum(len(p.procs) for _, p in runs)
    failed = 0
    for label, p in runs:
        for cmd, proc, failures, missed in zip(commands, p.procs, p.failures,
                                               p.statistical):
            status = "FAILED " + "; ".join(failures) if failures else "ok"
            print(f"{label} {cmd.name:17s} wall={proc.wall:.4f}s cpu={proc.cpu:.4f}s "
                  f"rss={proc.rss_mb:.1f}MB rc={proc.rc} {status} "
                  f"verdicts_failed={','.join(missed) or '-'}")
            failed += bool(failures)
    statistical = sum(len(m) for _, p in runs for m in p.statistical)
    print(f"commands attempted={attempted} failed={failed} "
          f"fail_frac={failed / attempted:.4f} statistical_verdicts_failed={statistical}")
    for i, digests in enumerate(reference):
        print(f"digests cmd{i + 1} " + json.dumps(digests, sort_keys=True))

    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        metrics["setup_s"] = (median(setup), "s")
        metrics["wall_s"] = (median(p.wall for p in plain), "s")
        metrics["cpu_s"] = (median(sum(x.cpu for x in p.procs) for p in plain), "s")
        metrics["peak_rss_mb"] = (median(max(x.rss_mb for x in p.procs) for p in plain),
                                  "MB")
    else:
        # Per-command times are reported without a bound: each averages only
        # a few seconds, and on a shared host their run-to-run spread is
        # wider than any bound the benchmark may set.
        for i in range(len(commands)):
            metrics[f"wall_s.cmd{i + 1}"] = (median(p.procs[i].wall for p in plain), "s")
        for i, totals in enumerate(counts):
            print(f"work cmd{i + 1} " + json.dumps(totals, sort_keys=True))
        per_pass = [layer_metrics(merge_totals(p.totals)) for p in traced]
        for name, (_, unit) in per_pass[0].items():
            values = [m[name][0] for m in per_pass]
            # counts are equal in every pass (checked above); times vary
            metrics[name] = (values[0] if unit in ("count", "bytes") else median(values),
                             unit)
        metrics["output.bytes"] = (plain[0].out_bytes, "bytes")
        metrics["trace_overhead_frac"] = (
            median(p.wall for p in traced) / median(p.wall for p in plain) - 1.0, "frac")
        for i, cmd in enumerate(commands):
            shares = []
            for p in traced:
                layer_s = 0.0
                for metric in cmd.dominant:
                    layer, key = metric.rsplit(".", 1)
                    layer_s += p.totals[i].get(layer, {}).get(key, 0.0)
                shares.append(layer_s / p.procs[i].wall)
            metrics[f"dominant_share.cmd{i + 1}"] = (median(shares), "frac")
            print(f"dominant layer of cmd{i + 1} ({cmd.name}): "
                  f"{' + '.join(cmd.dominant)} = {median(shares):.1%} of its "
                  f"traced wall time")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
