"""Tests for the experiment drivers and their reports."""

import concurrent.futures
import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from kingman import experiments as ex
from kingman.lookdown import (
    GAMMA_TAIL_LEVEL,
    default_burn_in,
    sample_lifelengths,
    simulate_events,
    truncation_level_for,
)
from kingman.reports import ExperimentReport
from kingman.rng import derive_stream_id, make_stream, sample_poisson_times
from kingman.stats import fit_log_slope


def _all_cells(report: ExperimentReport):
    cells = []
    for t in report.tables:
        for row in t["rows"]:
            cells.extend(row)
    return cells


def _assert_verdicts_reference_cells(report: ExperimentReport):
    cells = _all_cells(report)
    for v in report.verdicts:
        assert any(
            isinstance(c, (int, float)) and float(c) == float(v.observed)
            for c in cells
        ), f"verdict {v.name} observed {v.observed} not found in any table"


def test_mean_length_small_rep_count_is_inconclusive():
    report = ex.run_mean_length(seed=11, reps=10)
    v = report.verdict("mean_matches_expectation")
    assert v.status == "inconclusive"
    assert report.passed  # inconclusive does not fail a run
    _assert_verdicts_reference_cells(report)


def test_mean_length_moderate_run_passes():
    report = ex.run_mean_length(seed=2, n_leaves=20, reps=25000)
    v = report.verdict("mean_matches_expectation")
    assert v.status == "pass"
    row = report.table("summary")["rows"][0]
    expected = 2.0 * math.fsum(1.0 / k for k in range(1, 20))
    assert row[4] == pytest.approx(expected, rel=1e-15)


def test_mean_length_rejects_bad_params():
    with pytest.raises(ValueError):
        ex.run_mean_length(seed=0, n_leaves=1)
    with pytest.raises(ValueError):
        ex.run_mean_length(seed=0, reps=1)
    with pytest.raises(TypeError):
        ex.run_mean_length(seed=0, bogus=3)  # type: ignore[call-arg]


def test_report_carries_versioned_defaults():
    report = ex.run_mean_length(seed=0, reps=10)
    assert report.defaults_version == ex.DEFAULTS_VERSION
    table = report.table("defaults")
    keys = [row[0] for row in table["rows"]]
    assert keys == sorted(ex.DEFAULTS["mean-length"])
    # resolved params override defaults but the defaults table stays stock
    assert report.params["reps"] == 10
    stock = dict(zip(keys, [row[1] for row in table["rows"]]))
    assert stock["reps"] == ex.DEFAULTS["mean-length"]["reps"]


def test_gumbel_pre_asymptotic_run_is_recorded():
    report = ex.run_gumbel(seed=1, n_leaves=10, reps=100)
    assert report.verdict("asymptotic_regime").status == "info"
    row = report.table("summary")["rows"][0]
    assert 0.0 < row[2] < 1.0  # the KS statistic is recorded either way
    _assert_verdicts_reference_cells(report)


def test_gumbel_moderate_run_passes():
    report = ex.run_gumbel(seed=4, n_leaves=2000, reps=500)
    assert report.verdict("ks_statistic_small").status == "pass"
    assert report.verdict("ks_p_not_tiny").status == "pass"
    with pytest.raises(KeyError):
        report.verdict("asymptotic_regime")
    assert len(report.table("centered_lengths")["rows"]) == 500


def test_poisson_deaths_structure_and_cells():
    report = ex.run_poisson_deaths(seed=3, max_level=8, window=(0.0, 4.0), reps=40)
    levels = report.table("levels")
    assert [row[0] for row in levels["rows"]] == list(range(2, 9))
    for row in levels["rows"]:
        level, expected_count = row[0], row[1]
        assert expected_count == pytest.approx((level - 1) * 4.0)
    _assert_verdicts_reference_cells(report)
    assert report.verdict("dispersion_worst_z").status == "info"


def test_poisson_deaths_draw_order_is_pinned():
    # Criterion 3's pinned seed depends on these exact draws; any change to
    # the order in which poisson-deaths consumes its streams shows here.
    block = ex._poisson_deaths_block(182, 0, 3, 6, (0.0, 5.0), 1e-3)
    counts = [[sample.count for sample in rep] for rep in block]
    assert counts == [[8, 9, 15, 22, 18], [9, 12, 13, 32, 23], [3, 13, 12, 18, 22]]


def test_poisson_deaths_validation():
    with pytest.raises(ValueError):
        ex.run_poisson_deaths(seed=0, max_level=2)
    with pytest.raises(ValueError):
        ex.run_poisson_deaths(seed=0, window=(1.0, 1.0))


def test_poisson_deaths_gates_that_test_nothing_are_inconclusive():
    # A window this short draws no death at all: no replicate has a gap to
    # test and every level's counts are constant.
    report = ex.run_poisson_deaths(seed=0, max_level=3, window=(0.0, 1e-6), reps=3)
    assert [row[2] for row in report.table("levels")["rows"]] == [0.0, 0.0]
    assert report.table("independence")["rows"][0][3] == 2
    assert report.verdict("gap_rejection_bounded").status == "inconclusive"
    assert report.verdict("counts_uncorrelated").status == "inconclusive"


def test_divergence_slope_tracks_window_length():
    # doubling the window doubles the divergence slope
    report = ex.run_divergence(
        seed=6, k_grid=(4, 16, 64, 400), window=(0.0, 2.0), reps=30
    )
    v = report.verdict("slope_matches_log_divergence")
    assert v.expected == pytest.approx(8.0)
    assert abs(v.observed - 8.0) / 8.0 < 0.35
    assert report.verdict("replicates_strictly_increasing").observed == 1.0
    _assert_verdicts_reference_cells(report)


@pytest.fixture(scope="module")
def divergence_level_sums():
    # Levels 2..5 from 10^4 replicates of K = 5, level 40 from 4000 of K = 40.
    stream = make_stream(47, 0)
    low = [ex._squared_life_sums_one_rep(stream, 5, (0.0, 1.0)) for _ in range(10_000)]
    high = [ex._squared_life_sums_one_rep(stream, 40, (0.0, 1.0))[-1] for _ in range(4000)]
    sums = {k: np.array([row[k - 2] for row in low]) for k in range(2, 6)}
    sums[40] = np.array(high)
    return sums


@pytest.mark.parametrize("k", [2, 5, 40])
def test_divergence_level_sums_match_literal_death_route(
    divergence_level_sums, k, assert_same_law
):
    # The divergence loop (Poisson death count, Gamma-tailed lives) against
    # the literal route: births on a burn-in window, lives of 2000 exact
    # stages with the tail mean added (J = k + 2000; the dropped tail
    # variance is below 1e-9), deaths in the window: the draws
    # sample_infinite_deaths makes, with the lives kept. The half in the
    # tolerance keeps ceil(2 / tol) off a float-rounding edge.
    draws = divergence_level_sums[k].size
    tol = 2.0 / (k + 1998.5)
    J = truncation_level_for(k, tol)
    assert J == k + 2000
    stream = make_stream(47, k)
    literal = np.empty(draws)
    for i in range(draws):
        births = sample_poisson_times(stream, k - 1.0, (-default_burn_in(k), 1.0))
        lives = sample_lifelengths(k, births.size, stream, J)
        deaths = births + lives
        lives = lives[(deaths > 0.0) & (deaths <= 1.0)]
        literal[i] = lives @ lives
    assert_same_law(divergence_level_sums[k], literal)


def test_divergence_reports_exact_mean_and_gamma_tail():
    report = ex.run_divergence(seed=0, reps=2)
    rows = report.table("s_k")["rows"]
    grid = np.array([row[0] for row in rows], dtype=float)
    slope, _, _ = fit_log_slope(grid, np.array([row[3] for row in rows]))
    assert round(slope, 3) == 4.034
    # E[S(16)] = sum_{k=2}^{16} (k-1)(m_k^2 + v_k) with v_k summed directly
    j = np.arange(10**6, 1, -1, dtype=float)
    terms = 4.0 / (j * (j - 1.0)) ** 2
    tails = np.cumsum(terms)[::-1]  # tails[k - 2] = v_k
    direct = sum((k - 1) * ((2.0 / (k - 1)) ** 2 + tails[k - 2]) for k in range(2, 17))
    assert rows[0][3] == pytest.approx(direct, rel=1e-9)
    assert report.verdict("mean_s_matches_expected_z").status == "info"
    gamma_level, skew, gamma_skew, gap = report.table("gamma_tail")["rows"][0]
    assert gamma_level == GAMMA_TAIL_LEVEL
    assert gap == pytest.approx(skew - gamma_skew) and 0.0 < gap < 0.06
    _assert_verdicts_reference_cells(report)


def test_divergence_zero_se_z_is_infinite_without_a_warning():
    # On a window of length 0.1 neither replicate has a death at levels 2
    # and 4, so S(2) = S(4) = 0 in both: the SE is 0 and the mean lies
    # below the exact mean.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = ex.run_divergence(seed=5, k_grid=(2, 4, 8, 200), reps=2,
                                   window=(0.0, 0.1))
    rows = report.table("s_k")["rows"]
    assert [row[4] for row in rows[:2]] == [-math.inf, -math.inf]
    assert [row[2] for row in rows[:2]] == [0.0, 0.0]
    assert report.verdict("mean_s_matches_expected_z").observed == -math.inf


def test_divergence_validation():
    with pytest.raises(ValueError):
        ex.run_divergence(seed=0, k_grid=(4, 8, 16))
    with pytest.raises(ValueError):
        ex.run_divergence(seed=0, k_grid=(4, 8, 16, 32))  # under two decades
    with pytest.raises(ValueError):
        ex.run_divergence(seed=0, k_grid=(16, 8, 400, 1600))


def test_qv_scan_small_structure():
    report = ex.run_qv_scan(
        seed=5, n_grid=(8, 16, 32), reps=4, detail_n=16,
        mesh_levels=(0, 2, 4, 6, 8, 11),
    )
    detail = report.table("qv_mesh_detail")["rows"]
    assert len(detail) == 6
    meshes = [row[0] for row in detail]
    assert meshes == sorted(meshes, reverse=True)
    by_n = report.table("qv_by_n")["rows"]
    assert [row[0] for row in by_n] == [8, 16, 32]
    # the finest-mesh agreement with the exact jump squares is a verdict
    gap = report.verdict("finest_qv_matches_jump_squares")
    assert gap.observed == report.table("detail_summary")["rows"][0][4]
    _assert_verdicts_reference_cells(report)


def _traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw during the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_qv_detail_peak_memory_per_event():
    # qv-scan's default detail path at seed 1: n = 500 on [0, 1], about
    # 1.25 * 10^5 jumps. The path shares its log's times and stores no
    # cumulative sizes (about 42 bytes per event); with a copy of the times
    # and stored cumulative sizes it peaked at about 58.
    (rows, _, jumps), peak = _traced_peak(
        ex._qv_detail, 1, 500, (0.0, 1.0), tuple(range(0, 21, 2)))
    assert len(rows) == 11 and jumps > 10**5
    assert peak <= 50 * jumps, f"{peak / jumps:.1f} bytes per event"


def test_crosscheck_exact_peak_memory_per_event():
    # The exact arm at seed 1: one log of about 5 * 10^4 events over the
    # warmup and the window. The replayed path is read at the queries and
    # dropped before the damaged log and its path are built (about 62
    # bytes per event); with both paths alive, each with a copy of its
    # times, the arm peaked at about 108.
    p = ex.DEFAULTS["crosscheck"]
    n, win, warmup = p["n_leaves"], p["window"], p["warmup"]
    stream = make_stream(1, derive_stream_id(ex.ORDINALS["crosscheck"], 0))
    events = simulate_events(n, (win[0] - warmup, win[1]), stream).n_events
    (max_rel, neg), peak = _traced_peak(
        ex._crosscheck_exact, 1, n, win, p["queries"], warmup)
    assert max_rel < 1e-9 < neg
    assert peak <= 75 * events, f"{peak / events:.1f} bytes per event"


def test_qv_scan_rejects_coarse_mesh():
    with pytest.raises(ValueError):
        ex.run_qv_scan(
            seed=0, n_grid=(8, 16), reps=2, detail_n=64,
            mesh_levels=(0, 2, 4),  # far above the inter-event scale
        )


def test_variance_scaling_small_system_is_informational():
    report = ex.run_variance_scaling(
        seed=7, n_levels=100, epsilons=(0.1,), reps=200
    )
    v = report.verdict("ratio_near_limit_eps1")
    assert v.status == "info"
    assert report.passed
    row = report.table("scaling")["rows"][0]
    assert row[0] == pytest.approx(0.1)
    assert v.observed == row[1]


def test_variance_scaling_validation():
    with pytest.raises(ValueError):
        ex.run_variance_scaling(seed=0, epsilons=())
    with pytest.raises(ValueError):
        ex.run_variance_scaling(seed=0, epsilons=(1.5,), n_levels=50, reps=10)
    # Epsilon i draws from streams numbered by its position, so a repeated
    # epsilon is a valid input whose two rows hold different draws.
    rows = ex.run_variance_scaling(seed=0, epsilons=(0.01, 0.01, 0.02), n_levels=50,
                                   reps=20).table("scaling")["rows"]
    assert rows[0][0] == rows[1][0] == 0.01
    assert rows[0][1] != rows[1][1]


def test_variance_scaling_checks_every_epsilon_before_any_job(monkeypatch):
    calls = []

    def block(*args):
        calls.append(args)
        return np.zeros(args[-1])

    monkeypatch.setattr(ex, "_variance_scaling_block", block)
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        ex.run_variance_scaling(seed=0, epsilons=(0.01, 2.0), n_levels=50, reps=10)
    assert calls == []


def test_crosscheck_default_run_passes():
    report = ex.run_crosscheck(seed=1)
    assert report.passed
    exact = report.table("exact")["rows"][0]
    assert exact[2] < 1e-9          # routes agree
    assert exact[3] > 1e-9          # the damaged log visibly disagrees
    assert report.table("distribution")["rows"][0][3] > 1e-3
    _assert_verdicts_reference_cells(report)


def test_crosscheck_negative_control_detected_at_seed_2():
    # At seed 2 the dropped event's effect is gone by the next random query
    # time (that cell alone reads about 5e-12); querying at the event's own
    # time shows the full missing jump.
    report = ex.run_crosscheck(seed=2)
    assert report.verdict("negative_control_detected").status == "pass"
    assert report.table("exact")["rows"][0][3] > 1e-6
    _assert_verdicts_reference_cells(report)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_crosscheck_negative_control_is_finite_at_two_levels(seed):
    # At n = 2 the true length at the dropped event's own time is exactly
    # 0, so that gap is read against the damaged path's value.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = ex.run_crosscheck(seed=seed, n_leaves=2)
    neg = report.table("exact")["rows"][0][3]
    assert math.isfinite(neg) and neg >= 1.0
    assert report.verdict("negative_control_detected").status == "pass"


def test_crosscheck_validation():
    with pytest.raises(ValueError):
        ex.run_crosscheck(seed=0, n_leaves=500)  # exact arm capped at 200


def test_rerun_is_byte_identical():
    a = ex.run_mean_length(seed=9, n_leaves=30, reps=600)
    b = ex.run_mean_length(seed=9, n_leaves=30, reps=600)
    assert a.to_json() == b.to_json()


def test_worker_count_does_not_change_results():
    one = ex.run_mean_length(seed=5, n_leaves=25, reps=12000, workers=1)
    two = ex.run_mean_length(seed=5, n_leaves=25, reps=12000, workers=2)
    assert one.to_json() == two.to_json()


def test_worker_count_invariance_with_streamed_blocks():
    kwargs = dict(seed=8, n_levels=60, epsilons=(0.2,), reps=600)
    one = ex.run_variance_scaling(workers=1, **kwargs)
    two = ex.run_variance_scaling(workers=2, **kwargs)
    assert one.to_json() == two.to_json()


@pytest.mark.parametrize("runner, kwargs", [
    (ex.run_poisson_deaths, dict(seed=4, max_level=5, window=(0.0, 3.0), reps=7)),
    # reps 4: one job at 1 worker, two of two replicates at 2 and at 3.
    (ex.run_divergence, dict(seed=4, k_grid=(2, 4, 8, 200), reps=4)),
    (ex.run_divergence, dict(seed=4, k_grid=(2, 4, 8, 200), reps=5)),
], ids=["poisson-deaths", "divergence-4", "divergence-5"])
def test_per_replicate_runners_are_byte_identical_at_any_worker_count(runner, kwargs):
    # These runners cut their replicates by the worker count.
    texts = {workers: runner(workers=workers, **kwargs).to_json()
             for workers in (1, 2, 3, None)}
    assert len(set(texts.values())) == 1


@pytest.fixture
def inline_pool(monkeypatch):
    """Make ProcessPoolExecutor run its jobs inline, so that no real process
    starts, and return the worker counts asked for and the job functions
    submitted."""
    record = {"asked": [], "submitted": []}

    class InlinePool:
        def __init__(self, max_workers):
            record["asked"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            record["submitted"] += [job_fn for job_fn, _ in jobs]
            return [fn(job) for job in jobs]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return record


def test_divergence_cuts_its_replicates_by_the_worker_count(inline_pool):
    ex.run_divergence(seed=1, k_grid=(2, 4, 8, 200), reps=4, workers=2)
    assert inline_pool == {"asked": [2], "submitted": [ex._divergence_block] * 2}


class _Stop(Exception):
    pass


@pytest.mark.parametrize("name, expected", [
    ("poisson-deaths", 3), ("divergence", 3), ("mean-length", 1), ("gumbel", 1),
    ("qv-scan", 1), ("variance-scaling", 1), ("crosscheck", 1),
])
def test_default_worker_count(monkeypatch, name, expected):
    # Per-replicate runners use every CPU the process may run on, the rest
    # run inline; the job list is read and the run stopped there.
    asked = []

    def first_jobs(jobs, workers):
        asked.append(workers)
        raise _Stop

    monkeypatch.setattr(ex, "_map_blocks", first_jobs)
    monkeypatch.setattr(ex.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    with pytest.raises(_Stop):
        ex.EXPERIMENTS[name](seed=0)
    assert asked[0] == expected
    if expected > 1:
        monkeypatch.delattr(ex.os, "sched_getaffinity")
        monkeypatch.setattr(ex.os, "cpu_count", lambda: 5)
        with pytest.raises(_Stop):
            ex.EXPERIMENTS[name](seed=0)
        assert asked[1] == 5


def _failing_job():
    raise ValueError("the first job fails")


def _slow_job(marks, i):
    time.sleep(0.2)
    (marks / str(i)).touch()
    return i


def test_parallel_jobs_stop_at_the_first_failure(tmp_path):
    jobs = [(pow, (2, i)) for i in range(6)]
    assert ex._map_blocks(jobs, 2) == [2**i for i in range(6)]
    jobs = [(_failing_job, ())] + [(_slow_job, (tmp_path, i)) for i in range(20)]
    with pytest.raises(ValueError, match="first job fails"):
        ex._map_blocks(jobs, 2)
    # Only the jobs already handed to a worker may still run.
    assert len(list(tmp_path.iterdir())) < 20


def test_parallel_jobs_fork_no_more_workers_than_jobs(inline_pool):
    assert ex._map_blocks([(pow, (2, i)) for i in range(3)], 1000) == [1, 2, 4]
    assert inline_pool["asked"] == [3]


def test_report_json_is_valid_and_complete():
    report = ex.run_mean_length(seed=0, reps=50)
    payload = json.loads(report.to_json())
    assert payload["experiment"] == "mean-length"
    assert payload["seed"] == 0
    assert payload["generator"] == report.generator
    assert {t["name"] for t in payload["tables"]} == {"defaults", "summary"}
    assert payload["verdicts"][0].keys() == {
        "name", "observed", "expected", "tolerance", "status", "pass",
    }


def test_ordinals_are_distinct():
    values = list(ex.ORDINALS.values())
    assert len(values) == len(set(values))
    assert set(ex.EXPERIMENTS) == set(ex.ORDINALS) - {"simulate-path"}


# Verdicts whose fields do not state the rule they are judged by, with the
# rule they are: gap_rejection_bounded's expected is alpha, but it passes on
# observed <= tolerance; counts_uncorrelated and negative_control_detected
# compare strictly.
_OWN_RULES = {
    "gap_rejection_bounded": lambda v: v.observed <= v.tolerance,
    "counts_uncorrelated": lambda v: v.observed < v.tolerance,
    "negative_control_detected": lambda v: v.observed > v.tolerance,
}


def test_verdicts_can_be_rejudged_from_their_fields():
    # Sizes from the tests above; several verdicts fail at them.
    reports = [
        ex.run_mean_length(seed=2, n_leaves=20, reps=25000),
        ex.run_gumbel(seed=1, n_leaves=10, reps=100),
        ex.run_poisson_deaths(seed=3, max_level=8, window=(0.0, 4.0), reps=40),
        ex.run_divergence(seed=6, k_grid=(4, 16, 64, 400), window=(0.0, 2.0), reps=30),
        ex.run_qv_scan(seed=5, n_grid=(8, 16, 32), reps=4, detail_n=16,
                       mesh_levels=(0, 2, 4, 6, 8, 11)),
        ex.run_variance_scaling(seed=7, n_levels=1000, epsilons=(0.1,), reps=50),
        ex.run_crosscheck(seed=2, n_leaves=2),
    ]
    judged = [v for r in reports for v in r.verdicts if v.status in ("pass", "fail")]
    assert {v.status for v in judged} == {"pass", "fail"}
    assert set(_OWN_RULES) <= {v.name for v in judged}
    for v in judged:
        if v.name in _OWN_RULES:
            passed = _OWN_RULES[v.name](v)
        elif v.expected is None:
            passed = v.observed >= v.tolerance
        else:
            passed = abs(v.observed - v.expected) <= v.tolerance
        assert (v.status == "pass") == passed, v
