"""Reproducible experiment drivers with pass/fail verdicts.

Each run_* function assembles an :class:`~kingman.reports.ExperimentReport`:
tables of measured statistics plus verdicts comparing selected cells against
the versioned defaults carried inside the report. Every verdict's observed
value is literally one of the table cells, so a report is self-contained.

Randomness is organized so results do not depend on the worker count: work
is cut into blocks, each block (or each replicate) owns the stream
:func:`_stream` derives from (experiment ordinal, counter), and partial
results are merged in block order. A block is a job, an (fn, args) pair of
a module-level function and its positional arguments; :func:`_map_blocks`
calls fn(*args) for each, serially or in worker processes, and returns the
results in job order. Workers only change wall time.

mean-length, gumbel, variance-scaling and crosscheck draw one stream per
fixed-size block, and qv-scan runs one job per system size; they default
to one worker. poisson-deaths and divergence draw one stream per
replicate, so any cut of their replicates gives the same draws: by
default they run on every CPU the process may use, in jobs of at most
ceil(reps / workers) replicates (:func:`_replicate_jobs`), merged back in
replicate order.

Experiment ordinals: 0 simulate-path (the CLI path writer), 1 mean-length,
2 gumbel, 3 poisson-deaths, 4 divergence, 5 qv-scan, 6 variance-scaling,
7 crosscheck. The CLI's path writer takes its stream, parameters and window
from :func:`_stream`, :func:`_resolve` and :func:`_window` as the runners do,
and its path from :func:`~kingman.treelength.stationary_path`, as qv-scan does.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import __version__
from .lookdown import (
    GAMMA_TAIL_LEVEL,
    EventLog,
    life_moments,
    life_skewness,
    pair_count,
    resolve_final_state,
    sample_infinite_deaths,
    sample_lifelengths_gamma_tail,
    simulate_events,
    stationary_births,
)
from .reports import ExperimentReport
from .rng import GENERATOR_ID, RngStream, derive_stream_id, make_stream
from .stats import (
    MAX_DYADIC_LEVEL,
    _KS_MIN_N,
    fit_log_slope,
    gumbel_cdf,
    independence_check,
    ks_test,
    ks_test_two_sample,
    poisson_suite,
    quadratic_variation,
    qv_mesh_scan,
    variance_scaling,
)
from .treelength import (
    build_path,
    reconstruct_length_backward,
    sample_static_kingman_length,
    sample_stationary_length_increments,
    stationary_path,
    tree_length,
)

__all__ = [
    "DEFAULTS",
    "DEFAULTS_VERSION",
    "EXPERIMENTS",
    "ORDINALS",
    "run_crosscheck",
    "run_divergence",
    "run_gumbel",
    "run_mean_length",
    "run_poisson_deaths",
    "run_qv_scan",
    "run_variance_scaling",
]

DEFAULTS_VERSION = "1"

# The paper's constant: per unit time, S(K) and the quadratic variation grow
# like 4 ln K and 4 ln n, and E[increment^2] / (eps |ln eps|) tends to 4.
_LIMIT = 4.0

ORDINALS = {
    "simulate-path": 0,
    "mean-length": 1,
    "gumbel": 2,
    "poisson-deaths": 3,
    "divergence": 4,
    "qv-scan": 5,
    "variance-scaling": 6,
    "crosscheck": 7,
}

# Parameter and tolerance defaults, versioned as a unit. Every report embeds
# this table (for its own experiment) plus DEFAULTS_VERSION, so a stored
# report pins the thresholds it was judged against. simulate-path is the
# CLI's path writer, not an experiment; its entry only holds the defaults of
# its flags.
DEFAULTS = {
    "simulate-path": {
        "n_leaves": 30,
        "window": (0.0, 5.0),
    },
    "mean-length": {
        "n_leaves": 100,
        "reps": 20000,
        "rel_tol": 0.005,
        "block_reps": 5000,
    },
    "gumbel": {
        "n_leaves": 10000,
        "reps": 2000,
        "max_ks_statistic": 0.06,
        "min_ks_p": 1e-3,
        "asymptotic_min_leaves": 1000,
        "block_reps": 500,
    },
    "poisson-deaths": {
        "max_level": 40,
        "window": (0.0, 5.0),
        "reps": 200,
        "alpha": 0.05,
        "truncation_tol": 1e-3,
        "max_gap_rejection": 0.15,
        "max_count_z": 3.0,
        "max_abs_correlation": 0.2,
        "block_reps": 25,
    },
    "divergence": {
        "k_grid": (16, 64, 256, 1024, 4096),
        "window": (0.0, 1.0),
        "reps": 100,
        "slope_rel_tol": 0.25,
        "block_reps": 5,
    },
    "qv-scan": {
        "detail_n": 500,
        "mesh_levels": tuple(range(0, 21, 2)),
        "n_grid": (50, 100, 200, 400, 800),
        "reps": 20,
        "window": (0.0, 1.0),
        "mesh_factor": 8.0,
        "detail_rel_tol": 0.05,
        "slope_rel_tol": 0.30,
    },
    "variance-scaling": {
        "n_levels": 10000,
        "epsilons": (10.0**-1.5, 1e-2, 10.0**-2.5),
        "reps": 10000,
        "ratio_rel_tol": 0.35,
        "asymptotic_min_levels": 1000,
        "block_reps": 250,
    },
    "crosscheck": {
        "n_leaves": 50,
        "window": (0.0, 1.0),
        "queries": 100,
        "warmup": 40.0,
        "max_rel_error": 1e-9,
        "dist_n_leaves": 100,
        "dist_reps": 2000,
        "min_ks_p": 1e-3,
        "block_reps": 250,
    },
}


def _stream(seed: int, name: str, counter: int) -> RngStream:
    """The stream of block or replicate `counter` of experiment `name`."""
    return make_stream(seed, derive_stream_id(ORDINALS[name], counter))


def _jsonable(v):
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v


def _resolve(name: str, overrides: dict) -> dict:
    params = dict(DEFAULTS[name])
    for key, value in overrides.items():
        if key not in params:
            raise ValueError(f"unknown parameter {key!r} for {name}")
        if value is not None:
            params[key] = value
    return params


def _new_report(name: str, params: dict, seed: int) -> ExperimentReport:
    report = ExperimentReport(
        experiment=name,
        params=_jsonable(params),
        seed=int(seed),
        generator=GENERATOR_ID,
        version=__version__,
        defaults_version=DEFAULTS_VERSION,
    )
    report.add_table(
        "defaults",
        ["key", "value"],
        [[k, _jsonable(v)] for k, v in sorted(DEFAULTS[name].items())],
    )
    return report


def _call(job):
    """Run one (fn, args) job."""
    fn, args = job
    return fn(*args)


def _map_blocks(jobs: list, workers: int) -> list:
    """Call fn(*args) for each (fn, args) job, returning results in job order.

    With several workers (never more processes than jobs), results are
    collected in job order; at the first job that raised, every job not
    yet started is cancelled and its exception propagates without waiting
    for them.
    """
    if workers <= 1 or len(jobs) <= 1:
        return [_call(job) for job in jobs]
    # Imported here: it pulls in multiprocessing, which a one-worker run
    # never needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(_call, jobs))


def _split(total: int, block: int) -> list[tuple[int, int]]:
    """Fixed-size block layout as (start, size) pairs; independent of workers."""
    block = max(1, int(block))
    return [(lo, min(block, total - lo)) for lo in range(0, total, block)]


# Runners whose every replicate owns its stream; the rest default to one
# worker. On a 2-core host at the benchmark's sizes, going from 1 to 2
# workers slowed qv-scan and gumbel in both of two probes, and crosscheck
# and variance-scaling in one probe but not the other; CPU time rose in all.
_PER_REPLICATE = ("poisson-deaths", "divergence")


def _workers(name: str, workers: int | None) -> int:
    """The worker count of runner `name`: `workers` when given, else every
    CPU the process may use for a per-replicate runner and 1 for the rest."""
    if workers is not None:
        return int(workers)
    if name not in _PER_REPLICATE:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def _replicate_jobs(fn, seed: int, total: int, block_reps: int, workers: int,
                    *args) -> list:
    """Jobs fn(seed, rep_lo, size, *args) over replicates 0..total-1, of at
    most block_reps and at most ceil(total / workers) replicates each, so
    every worker gets one. fn draws replicate r from its own stream, so the
    cut changes no draw."""
    size = min(int(block_reps), math.ceil(total / max(1, workers)))
    return [(fn, (seed, lo, n, *args)) for lo, n in _split(total, size)]


def _at_least(params: dict, key: str, floor: int) -> int:
    """The integer parameter `key`, which must be at least `floor`."""
    value = int(params[key])
    if value < floor:
        raise ValueError(f"{key} must be at least {floor}")
    return value


def _judged(passed, decided=True) -> str:
    """A gate's status: inconclusive when it cannot decide, else pass or fail."""
    if not decided:
        return "inconclusive"
    return "pass" if passed else "fail"


def _band(report: ExperimentReport, name: str, observed, expected, tol) -> None:
    """Add verdict `name`, which passes when observed is within tol of expected."""
    report.add_verdict(name, observed, expected, tol,
                       _judged(abs(observed - expected) <= tol))


def _worst(values) -> float:
    """The signed value of largest magnitude."""
    values = np.asarray(values)
    return float(values[np.argmax(np.abs(values))])


def _window(params: dict) -> tuple[float, float]:
    """The window parameter as floats; it must be finite, of positive length."""
    win = (float(params["window"][0]), float(params["window"][1]))
    if not (math.isfinite(win[0]) and math.isfinite(win[1])):
        raise ValueError("window endpoints must be finite")
    if not win[1] > win[0]:
        raise ValueError("window must have positive length")
    return win


def _increasing(params: dict, key: str, min_points: int) -> list[int]:
    """An integer grid parameter, which must be strictly increasing with at
    least min_points points."""
    grid = [int(v) for v in params[key]]
    if len(grid) < min_points or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{key} must be strictly increasing with >= {min_points} points")
    return grid


# ---------------------------------------------------------------------------
# 1: mean tree length
# ---------------------------------------------------------------------------

def _static_lengths(seed, name, counter, n, size) -> np.ndarray:
    """`size` static n-leaf tree lengths from stream `counter` of `name`."""
    return sample_static_kingman_length(n, _stream(seed, name, counter), size=size)


def run_mean_length(seed: int = 0, n_leaves: int | None = None,
                    reps: int | None = None,
                    workers: int | None = None) -> ExperimentReport:
    """Mean static tree length vs its exact harmonic-sum expectation.

    The verdict is inconclusive, rather than pass or fail, when the two
    standard error band of the sample mean is wider than the tolerance band
    itself; small rep counts cannot decide the check either way. The info
    verdict `mean_z` states the relative error in standard errors.
    """
    params = _resolve("mean-length", {"n_leaves": n_leaves, "reps": reps})
    n, total = _at_least(params, "n_leaves", 2), _at_least(params, "reps", 2)
    report = _new_report("mean-length", params, seed)
    jobs = [(_static_lengths, (seed, "mean-length", i, n, size))
            for i, (_, size) in enumerate(_split(total, params["block_reps"]))]
    lengths = np.concatenate(_map_blocks(jobs, _workers("mean-length", workers)))
    mean = float(lengths.mean())
    se = math.sqrt(float(lengths.var(ddof=1)) / total)
    expected = 2.0 * math.fsum(1.0 / k for k in range(1, n))
    rel_err = abs(mean - expected) / expected
    rel_tol = float(params["rel_tol"])
    status = _judged(rel_err <= rel_tol, not 2.0 * se > rel_tol * expected)
    mean_z = rel_err / (se / expected)
    report.add_table(
        "summary",
        ["n_leaves", "reps", "mean", "se", "expected", "rel_error", "mean_z"],
        [[n, total, mean, se, expected, rel_err, mean_z]],
    )
    report.add_verdict("mean_matches_expectation", rel_err, 0.0, rel_tol, status)
    report.add_verdict("mean_z", mean_z, 0.0, None, "info")
    return report


# ---------------------------------------------------------------------------
# 2: centered length vs the Gumbel law
# ---------------------------------------------------------------------------

def run_gumbel(seed: int = 0, n_leaves: int | None = None,
               reps: int | None = None,
               workers: int | None = None) -> ExperimentReport:
    """KS test of length/2 - ln(n_leaves) against the standard Gumbel CDF.

    Below asymptotic_min_leaves the limit has not set in; the verdicts are
    still evaluated honestly (they may fail) and an extra info verdict flags
    the pre-asymptotic regime.
    """
    params = _resolve("gumbel", {"n_leaves": n_leaves, "reps": reps})
    n, total = _at_least(params, "n_leaves", 2), _at_least(params, "reps", _KS_MIN_N)
    report = _new_report("gumbel", params, seed)
    jobs = [(_static_lengths, (seed, "gumbel", i, n, size))
            for i, (_, size) in enumerate(_split(total, params["block_reps"]))]
    lengths = np.concatenate(_map_blocks(jobs, _workers("gumbel", workers)))
    centered = 0.5 * lengths - math.log(n)
    res = ks_test(centered, gumbel_cdf)
    report.add_table(
        "summary",
        ["n_leaves", "reps", "ks_statistic", "ks_p"],
        [[n, total, res.statistic, res.p_value]],
    )
    report.add_table(
        "centered_lengths", ["centered_length"], [[float(x)] for x in centered]
    )
    d_max = float(params["max_ks_statistic"])
    p_min = float(params["min_ks_p"])
    _band(report, "ks_statistic_small", res.statistic, 0.0, d_max)
    report.add_verdict("ks_p_not_tiny", res.p_value, None, p_min,
                       _judged(res.p_value >= p_min))
    if n < int(params["asymptotic_min_leaves"]):
        report.add_verdict(
            "asymptotic_regime", float(n),
            float(params["asymptotic_min_leaves"]), None, "info",
        )
    return report


# ---------------------------------------------------------------------------
# 3: death processes of fixed levels are Poisson(level - 1)
# ---------------------------------------------------------------------------

def _poisson_deaths_block(seed, rep_lo, size, max_level, window, tol) -> list:
    out = []
    for rep in range(rep_lo, rep_lo + size):
        stream = _stream(seed, "poisson-deaths", rep)
        out.append([sample_infinite_deaths(level, window, stream, tol=tol)
                    for level in range(2, max_level + 1)])
    return out


def run_poisson_deaths(seed: int = 0, max_level: int | None = None,
                       window: tuple[float, float] | None = None,
                       reps: int | None = None,
                       workers: int | None = None) -> ExperimentReport:
    """Poissonity and independence checks for level death processes.

    For each level 2..max_level, replicated death samples are tested for
    rate (level - 1) (mean count z score), exponential gaps (per-replicate
    KS rejection fraction), and unit dispersion (info only); counts across
    levels are checked for vanishing pairwise correlation. Verdicts report
    the signed worst case, which is a cell of the levels table. A gate that
    tested nothing is inconclusive: the gap gate when no replicate of any
    level has enough gaps for a KS test, the correlation gate when fewer
    than two levels' counts vary.
    """
    params = _resolve("poisson-deaths", {
        "max_level": max_level, "window": window, "reps": reps,
    })
    top, total = _at_least(params, "max_level", 3), _at_least(params, "reps", 3)
    win = _window(params)
    report = _new_report("poisson-deaths", params, seed)
    tol = float(params["truncation_tol"])
    workers = _workers("poisson-deaths", workers)
    jobs = _replicate_jobs(_poisson_deaths_block, seed, total, params["block_reps"],
                           workers, top, win, tol)
    by_rep = [rep for block in _map_blocks(jobs, workers) for rep in block]
    levels = list(range(2, top + 1))
    alpha = float(params["alpha"])
    suites = [
        poisson_suite([r[i] for r in by_rep], alpha) for i in range(len(levels))
    ]
    rows = [
        [
            level, s.expected_count, s.mean_count, s.count_z,
            s.dispersion_index, s.dispersion_z, s.gap_rejection_fraction,
            s.n_valid_gap_reps,
            s.pooled_gap_ks.p_value if s.pooled_gap_ks is not None else math.nan,
        ]
        for level, s in zip(levels, suites)
    ]
    report.add_table(
        "levels",
        ["level", "expected_count", "mean_count", "count_z",
         "dispersion_index", "dispersion_z", "gap_rejection_fraction",
         "valid_gap_reps", "pooled_gap_p"],
        rows,
    )
    counts = np.stack([s.counts for s in suites], axis=1)
    indep = independence_check(counts, levels)
    report.add_table(
        "independence",
        ["max_abs_correlation", "level_a", "level_b", "n_degenerate"],
        [[indep.max_abs_correlation, indep.argmax_pair[0],
          indep.argmax_pair[1], len(indep.degenerate_levels)]],
    )
    worst_rej = max(s.gap_rejection_fraction for s in suites)
    _band(report, "count_mean_within_band", _worst([s.count_z for s in suites]),
          0.0, float(params["max_count_z"]))
    rej_max = float(params["max_gap_rejection"])
    report.add_verdict(
        "gap_rejection_bounded", worst_rej, alpha, rej_max,
        _judged(worst_rej <= rej_max, any(s.n_valid_gap_reps for s in suites)),
    )
    corr_max = float(params["max_abs_correlation"])
    report.add_verdict(
        "counts_uncorrelated", indep.max_abs_correlation, 0.0, corr_max,
        _judged(indep.max_abs_correlation < corr_max,
                len(levels) - len(indep.degenerate_levels) >= 2),
    )
    report.add_verdict("dispersion_worst_z", _worst([s.dispersion_z for s in suites]),
                       0.0, None, "info")
    return report


# ---------------------------------------------------------------------------
# 4: divergence of summed squared life lengths
# ---------------------------------------------------------------------------

def _squared_life_sums_one_rep(stream, k_max: int, window) -> np.ndarray:
    """One replicate's sum of squared life lengths dying in the window,
    resolved per birth level 2..k_max.

    Lines of level k are born at Poisson rate (k - 1) and live i.i.d. T_k,
    so by the displacement theorem their deaths form a Poisson(k - 1)
    process in time whose every point carries an independent T_k-distributed
    life. The deaths inside the window are therefore Poisson((k - 1) span)
    lives drawn straight from T_k: no births, no burn-in, no in-window
    mask. Lives come from :func:`sample_lifelengths_gamma_tail` with the
    Gamma tail from :data:`GAMMA_TAIL_LEVEL`, so E[T_k^2] = m_k^2 + v_k and
    the mean of every level sum are exact.
    """
    span = window[1] - window[0]
    levels = np.arange(2, k_max + 1)
    counts = stream.generator.poisson((levels - 1.0) * span)
    totals = np.empty(k_max - 1)
    for i, (k, count) in enumerate(zip(levels.tolist(), counts.tolist())):
        lives = sample_lifelengths_gamma_tail(k, count, stream, GAMMA_TAIL_LEVEL)
        totals[i] = lives @ lives
    return totals


def _divergence_block(seed, rep_lo, size, k_grid, window) -> np.ndarray:
    grid = np.asarray(k_grid, dtype=np.int64)
    out = np.empty((size, grid.size))
    for i, rep in enumerate(range(rep_lo, rep_lo + size)):
        stream = _stream(seed, "divergence", rep)
        totals = _squared_life_sums_one_rep(stream, int(grid[-1]), window)
        out[i] = np.cumsum(totals)[grid - 2]
    return out


def run_divergence(seed: int = 0, k_grid=None,
                   window: tuple[float, float] | None = None,
                   reps: int | None = None,
                   workers: int | None = None) -> ExperimentReport:
    """Growth of S(K), the squared life lengths summed over levels up to K.

    The mean of S(K) grows like (4 window-length) ln K, so the OLS slope of
    the replicate mean against ln K is checked against that value, and each
    replicate's S(K) must be strictly increasing in K. The `s_k` table also
    carries the exact mean E[S(K)] = span sum_{k<=K} (k-1)(m_k^2 + v_k)
    (:func:`~kingman.lookdown.life_moments`) and the z-score of the Monte
    Carlo mean against it; the largest |z| is an info verdict. The
    `gamma_tail` table states the Gamma tail level and its skewness gap.
    """
    params = _resolve("divergence", {
        "k_grid": k_grid, "window": window, "reps": reps,
    })
    grid = _increasing(params, "k_grid", 4)
    if grid[0] < 2:
        raise ValueError("k_grid entries must be at least 2")
    if grid[-1] < 100 * grid[0]:
        raise ValueError("k_grid must span at least two decades")
    win = _window(params)
    total = _at_least(params, "reps", 2)
    report = _new_report("divergence", params, seed)
    workers = _workers("divergence", workers)
    jobs = _replicate_jobs(_divergence_block, seed, total, params["block_reps"],
                           workers, tuple(grid), win)
    matrix = np.vstack(_map_blocks(jobs, workers))
    mean_s = matrix.mean(axis=0)
    se_s = matrix.std(axis=0, ddof=1) / math.sqrt(total)
    span = win[1] - win[0]
    mean_t, var_t = life_moments(np.arange(2, grid[-1] + 1))
    per_level = (np.arange(1, grid[-1]) * (mean_t**2 + var_t)) * span
    expected_s = np.cumsum(per_level)[np.asarray(grid) - 2]
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero SE: +-inf, or nan
        z_s = (mean_s - expected_s) / se_s
    slope, intercept, r2 = fit_log_slope(np.asarray(grid, float), mean_s)
    expected_slope = _LIMIT * span
    increasing = float(np.mean(np.all(np.diff(matrix, axis=1) > 0.0, axis=1)))
    report.add_table(
        "s_k",
        ["k", "mean_s", "se_s", "expected_s", "z"],
        [[k, float(mu), float(se), float(ex), float(z)]
         for k, mu, se, ex, z in zip(grid, mean_s, se_s, expected_s, z_s)],
    )
    report.add_table(
        "fit",
        ["slope", "intercept", "r_squared", "expected_slope",
         "strictly_increasing_fraction"],
        [[slope, intercept, r2, expected_slope, increasing]],
    )
    tail_mean, tail_var = life_moments(GAMMA_TAIL_LEVEL)
    gamma_skew = float(2.0 * math.sqrt(tail_var) / tail_mean)  # 2/sqrt(m^2/v)
    true_skew = life_skewness(GAMMA_TAIL_LEVEL)
    report.add_table(
        "gamma_tail",
        ["gamma_level", "skewness", "gamma_skewness", "skewness_mismatch"],
        [[GAMMA_TAIL_LEVEL, true_skew, gamma_skew, abs(true_skew - gamma_skew)]],
    )
    _band(report, "slope_matches_log_divergence", slope, expected_slope,
          float(params["slope_rel_tol"]) * expected_slope)
    _band(report, "replicates_strictly_increasing", increasing, 1.0, 0.0)
    report.add_verdict("mean_s_matches_expected_z", _worst(z_s), 0.0, None, "info")
    return report


# ---------------------------------------------------------------------------
# 5: quadratic variation across meshes and system sizes
# ---------------------------------------------------------------------------

def _required_mesh_level(n: int, span: float, factor: float) -> int:
    """Least nonnegative dyadic level whose cell length is below
    1/(factor * C(n,2)); 0 when one cell, the whole window, already is."""
    return max(0, math.ceil(math.log2(factor * pair_count(n) * span)))


def _qv_detail(seed, n, win, mesh_levels):
    """The detail path's (mesh, qv) rows, its squared-jump sum and jump count."""
    path = stationary_path(n, win, _stream(seed, "qv-scan", 0))
    rows = qv_mesh_scan(path, mesh_levels)
    return rows, float(np.sum(path.jump_sizes**2)), path.n_jumps


def _qv_grid(seed, n, win, reps, counter_base, mesh_level) -> np.ndarray:
    """QV at one dyadic level of `reps` paths, from streams counter_base + rep."""
    return np.array([
        quadratic_variation(stationary_path(n, win, _stream(seed, "qv-scan", c)), mesh_level)
        for c in range(counter_base, counter_base + reps)
    ])


def run_qv_scan(seed: int = 0, n_grid=None,
                window: tuple[float, float] | None = None,
                mesh_levels=None, reps: int | None = None,
                detail_n: int | None = None,
                workers: int | None = None) -> ExperimentReport:
    """Quadratic variation of compensated length paths.

    Detail part: one path at detail_n is scanned across dyadic meshes; at
    the finest mesh the QV must land within detail_rel_tol of the exact sum
    of squared jumps (the finest cell length sits below the mean inter-event
    gap by mesh_factor, so almost every cell isolates at most one jump).
    Grid part: for each n in n_grid the finest-mesh QV is averaged over
    replicates and its growth against ln n is checked against slope
    4 window-length.
    """
    params = _resolve("qv-scan", {
        "n_grid": n_grid, "window": window, "mesh_levels": mesh_levels,
        "reps": reps, "detail_n": detail_n,
    })
    win = _window(params)
    span = win[1] - win[0]
    grid = _increasing(params, "n_grid", 2)
    nd = int(params["detail_n"])
    factor = float(params["mesh_factor"])
    if grid[0] < 2 or nd < 2:
        raise ValueError("system sizes must be at least 2")
    total = _at_least(params, "reps", 2)
    levels = _increasing(params, "mesh_levels", 2)
    need = _required_mesh_level(nd, span, factor)
    if levels[-1] < need:
        raise ValueError(
            f"finest mesh level {levels[-1]} is coarser than the required "
            f"level {need} for detail_n={nd} (factor {factor})"
        )
    grid_meshes = [_required_mesh_level(n, span, factor) for n in grid]
    # quadratic_variation checks these too; checked here so that no job starts.
    if levels[0] < 0:
        raise ValueError("dyadic level must be nonnegative")
    if max(levels[-1], grid_meshes[-1]) > MAX_DYADIC_LEVEL:
        raise ValueError(f"dyadic level must be at most {MAX_DYADIC_LEVEL}")
    report = _new_report("qv-scan", params, seed)
    jobs = [(_qv_detail, (seed, nd, win, tuple(levels)))]
    jobs += [(_qv_grid, (seed, n, win, total, 1 + i * total, mesh))
             for i, (n, mesh) in enumerate(zip(grid, grid_meshes))]
    results = _map_blocks(jobs, _workers("qv-scan", workers))
    (mesh_rows, jump_sq, n_jumps), *grid_qvs = results
    if n_jumps == 0:
        raise ValueError(
            f"the detail path (detail_n={nd}) has no jumps in the window, so its "
            "QV has nothing to match; widen the window or raise detail_n"
        )
    finest_qv = float(mesh_rows[-1][1])
    rel_gap = abs(finest_qv - jump_sq) / jump_sq
    report.add_table(
        "qv_mesh_detail",
        ["mesh", "qv"],
        [[float(mesh), float(qv)] for mesh, qv in mesh_rows],
    )
    report.add_table(
        "detail_summary",
        ["n_leaves", "n_jumps", "finest_qv", "jump_square_sum", "rel_gap"],
        [[nd, n_jumps, finest_qv, jump_sq, rel_gap]],
    )
    mean_qv = np.array([qvs.mean() for qvs in grid_qvs])
    se_qv = np.array([qvs.std(ddof=1) / math.sqrt(total) for qvs in grid_qvs])
    report.add_table(
        "qv_by_n",
        ["n_leaves", "mesh_level", "mean_qv", "se_qv"],
        [[n, mesh, float(mu), float(se)]
         for n, mesh, mu, se in zip(grid, grid_meshes, mean_qv, se_qv)],
    )
    slope, intercept, r2 = fit_log_slope(np.asarray(grid, float), mean_qv)
    expected_slope = _LIMIT * span
    report.add_table(
        "fit",
        ["slope", "intercept", "r_squared", "expected_slope"],
        [[slope, intercept, r2, expected_slope]],
    )
    _band(report, "finest_qv_matches_jump_squares", rel_gap, 0.0,
          float(params["detail_rel_tol"]))
    _band(report, "qv_grows_like_log", slope, expected_slope,
          float(params["slope_rel_tol"]) * expected_slope)
    return report


# ---------------------------------------------------------------------------
# 6: infinitesimal variance ratio of stationary increments
# ---------------------------------------------------------------------------

def _variance_scaling_block(seed, counter, n_levels, eps, size) -> np.ndarray:
    stream = _stream(seed, "variance-scaling", counter)
    return sample_stationary_length_increments(n_levels, eps, size, stream)


def run_variance_scaling(seed: int = 0, n_levels: int | None = None,
                         epsilons=None, reps: int | None = None,
                         workers: int | None = None) -> ExperimentReport:
    """Mean-square stationary increment over eps |ln eps|, per epsilon.

    The ratio tends to 4 as eps shrinks (at large n_levels). Below
    asymptotic_min_levels the band check is demoted to informational: the
    limit has no reason to have set in.
    """
    params = _resolve("variance-scaling", {
        "n_levels": n_levels, "epsilons": epsilons, "reps": reps,
    })
    n = _at_least(params, "n_levels", 2)
    eps_list = [float(e) for e in params["epsilons"]]
    if not eps_list:
        raise ValueError("epsilons must be non-empty")
    for eps in eps_list:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
    total = _at_least(params, "reps", 2)
    report = _new_report("variance-scaling", params, seed)
    blocks = _split(total, params["block_reps"])
    # Epsilon i's blocks draw from streams i * len(blocks) + b and come back
    # in that order, so row i of the reshaped draws holds its increments.
    jobs = [(_variance_scaling_block, (seed, i * len(blocks) + b, n, eps, size))
            for i, eps in enumerate(eps_list) for b, (_, size) in enumerate(blocks)]
    blocks_out = _map_blocks(jobs, _workers("variance-scaling", workers))
    increments = np.concatenate(blocks_out).reshape(-1, total)
    rows = variance_scaling(eps_list, increments)
    report.add_table(
        "scaling",
        ["epsilon", "ratio", "mean_square", "se_mean_square"],
        [list(row) for row in rows],
    )
    band = float(params["ratio_rel_tol"]) * _LIMIT
    informational = n < int(params["asymptotic_min_levels"])
    for i, (eps, ratio, _, _) in enumerate(rows):
        name = f"ratio_near_limit_eps{i + 1}"
        if informational:
            report.add_verdict(name, ratio, _LIMIT, band, "info")
        else:
            _band(report, name, ratio, _LIMIT, band)
    return report


# ---------------------------------------------------------------------------
# 7: crosscheck of independent routes
# ---------------------------------------------------------------------------

def _crosscheck_exact(seed, n, win, queries, warmup) -> tuple[float, float]:
    """Max relative gap of forward replay against backward reconstruction,
    and the same gap for the negative control."""
    t0, t1 = win
    stream = _stream(seed, "crosscheck", 0)
    log = simulate_events(n, (t0 - warmup, t1), stream)
    start = np.full(n - 1, t0 - warmup)
    qs = t0 + (t1 - t0) * stream.generator.random(queries)
    # The replayed path is read at the queries and dropped, so it is gone
    # before the damaged log and its path are built.
    forward = build_path(start, log).eval(qs)
    recon = np.array([reconstruct_length_backward(log, float(q)) for q in qs])
    max_rel = float(np.max(np.abs(forward - recon) / np.abs(recon)))
    # negative control: drop an event near the middle of the query window
    # and replay; reconstruction of the full log must now visibly disagree.
    # The dropped event must sit inside the window, because a perturbation
    # from the warmup era washes out (the displaced line is pushed up and
    # exits) long before the first query.
    drop = int(np.searchsorted(log.times, 0.5 * (t0 + t1), side="right")) - 1
    if drop < 0 or log.times[drop] <= t0:
        drop = log.n_events // 2
    damaged = EventLog(n, log.t_start, log.t_end,
                       np.delete(log.times, drop), np.delete(log.targets, drop))
    broken = build_path(start, damaged)
    # The control is also queried at the dropped event's own time, where the
    # damaged path misses the full jump; at the random query times the
    # displaced line may already have exited, erasing the damage.
    t_drop = float(log.times[drop])
    neg_qs = np.append(qs, t_drop)
    neg_recon = np.append(recon, reconstruct_length_backward(log, t_drop))
    # At n = 2 the true length at an event's own time is exactly 0; the gap
    # there is read against the damaged path's value.
    damaged_at = broken.eval(neg_qs)
    scale = np.where(neg_recon == 0.0, damaged_at, neg_recon)
    neg = float(np.max(np.abs(damaged_at - neg_recon) / np.abs(scale)))
    return max_rel, neg


def _crosscheck_evolved(seed, counter, n, win, size) -> np.ndarray:
    """`size` end-of-window lengths of systems started from stationarity."""
    stream = _stream(seed, "crosscheck", counter)
    t0, t1 = win
    out = np.empty(size)
    for i in range(size):
        births = stationary_births(n, t0, stream)
        log = simulate_events(n, win, stream)
        out[i] = tree_length(resolve_final_state(log, births), t1)
    return out


def run_crosscheck(seed: int = 0, n_leaves: int | None = None,
                   window: tuple[float, float] | None = None,
                   workers: int | None = None) -> ExperimentReport:
    """Two independent validations of the evolving length engine.

    Exact arm (n_leaves <= 200): a path built from a degenerate start far
    before the window is compared at random query times against backward
    genealogy reconstruction from the log alone; agreement must hold to
    max_rel_error, and a negative control (one event removed) must break it.
    Distribution arm: end-of-window lengths of stationary evolved systems
    against the static sampler, two-sample KS.
    """
    params = _resolve("crosscheck", {"n_leaves": n_leaves, "window": window})
    n = int(params["n_leaves"])
    if not 2 <= n <= 200:
        raise ValueError("n_leaves must lie in [2, 200] for the exact arm")
    win = _window(params)
    queries = int(params["queries"])
    warmup = float(params["warmup"])
    nd = int(params["dist_n_leaves"])
    dist_reps = int(params["dist_reps"])
    report = _new_report("crosscheck", params, seed)
    sizes = [size for _, size in _split(dist_reps, params["block_reps"])]
    jobs = [(_crosscheck_exact, (seed, n, win, queries, warmup))]
    jobs += [(_crosscheck_evolved, (seed, c, nd, win, size))
             for c, size in enumerate(sizes, start=1)]
    jobs += [(_static_lengths, (seed, "crosscheck", c, nd, size))
             for c, size in enumerate(sizes, start=1 + len(sizes))]
    (max_rel, neg), *dist = _map_blocks(jobs, _workers("crosscheck", workers))
    evolved = np.concatenate(dist[:len(sizes)])
    static = np.concatenate(dist[len(sizes):])
    res = ks_test_two_sample(evolved, static)
    report.add_table(
        "exact",
        ["n_leaves", "queries", "max_rel_error", "negative_control_error"],
        [[n, queries, max_rel, neg]],
    )
    report.add_table(
        "distribution",
        ["n_leaves", "reps", "ks_statistic", "ks_p"],
        [[nd, dist_reps, res.statistic, res.p_value]],
    )
    tol = float(params["max_rel_error"])
    _band(report, "incremental_matches_reconstruction", max_rel, 0.0, tol)
    report.add_verdict("negative_control_detected", neg, None, tol, _judged(neg > tol))
    p_min = float(params["min_ks_p"])
    report.add_verdict("evolved_matches_static_law", res.p_value, None, p_min,
                       _judged(res.p_value >= p_min))
    return report


EXPERIMENTS = {
    "mean-length": run_mean_length,
    "gumbel": run_gumbel,
    "poisson-deaths": run_poisson_deaths,
    "divergence": run_divergence,
    "qv-scan": run_qv_scan,
    "variance-scaling": run_variance_scaling,
    "crosscheck": run_crosscheck,
}
