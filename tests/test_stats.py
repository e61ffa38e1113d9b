"""Statistics tests; scipy appears here only as an independent oracle."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special
from scipy import stats as scipy_stats

from kingman.experiments import _stream
from kingman.lookdown import PointProcessSample
from kingman.rng import make_stream, sample_poisson_times
from kingman.stats import (
    fit_log_slope,
    gumbel_cdf,
    independence_check,
    kolmogorov_sf,
    ks_test,
    ks_test_two_sample,
    poisson_suite,
    quadratic_variation,
    qv_mesh_scan,
    variance_scaling,
)
from kingman.treelength import TreeLengthPath, stationary_path

EXP_CDF = lambda v: 1.0 - np.exp(-np.asarray(v))  # noqa: E731


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------

def test_kolmogorov_sf_against_scipy():
    for lam in (0.3, 0.5, 0.8, 1.0, 1.36, 2.0):
        assert kolmogorov_sf(lam) == pytest.approx(special.kolmogorov(lam), abs=1e-9)
    assert kolmogorov_sf(0.01) == 1.0
    assert kolmogorov_sf(-1.0) == 1.0
    assert kolmogorov_sf(10.0) == 0.0


def test_ks_one_sample_against_scipy():
    x = make_stream(61, 0).exponentials(1.0, 500)
    mine = ks_test(x, EXP_CDF)
    ref = scipy_stats.ks_1samp(x, scipy_stats.expon.cdf, method="asymp")
    assert mine.statistic == pytest.approx(ref.statistic, abs=1e-13)
    assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-9)


def test_ks_detects_wrong_distribution():
    x = make_stream(61, 1).exponentials(2.0, 400)
    assert ks_test(x, EXP_CDF).p_value < 1e-6
    good = make_stream(61, 2).exponentials(1.0, 400)
    assert ks_test(good, EXP_CDF).p_value > 1e-3


def test_ks_input_validation():
    with pytest.raises(ValueError):
        ks_test(np.arange(5), EXP_CDF)
    with pytest.raises(ValueError):
        ks_test(np.linspace(0, 1, 20), lambda v: np.asarray(v) * 2.0)
    with pytest.raises(ValueError):
        ks_test(np.linspace(0, 1, 20), lambda v: np.array([0.5]))


def test_ks_two_sample_against_scipy():
    a = make_stream(61, 3).exponentials(1.0, 400)
    b = make_stream(61, 4).exponentials(1.0, 600)
    mine = ks_test_two_sample(a, b)
    ref = scipy_stats.ks_2samp(a, b, method="asymp")
    assert mine.statistic == pytest.approx(ref.statistic, abs=1e-13)
    # scipy's asymptotic variant adds a finite-sample continuity correction;
    # the plain limit law should still land close.
    assert mine.p_value == pytest.approx(ref.pvalue, abs=0.05)
    c = make_stream(61, 5).exponentials(3.0, 600)
    assert ks_test_two_sample(a, c).p_value < 1e-6
    with pytest.raises(ValueError):
        ks_test_two_sample(a[:4], b)


def test_gumbel_cdf_values():
    assert gumbel_cdf(0.0) == pytest.approx(0.36787944117144233, abs=1e-15)
    assert gumbel_cdf(-math.log(math.log(2.0))) == pytest.approx(0.5, abs=1e-12)
    arr = gumbel_cdf(np.array([-1.0, 0.0, 1.0, 4.0]))
    assert arr.shape == (4,)
    assert np.all(np.diff(arr) > 0.0)


# ---------------------------------------------------------------------------
# quadratic variation
# ---------------------------------------------------------------------------

def _linear_path(slope, t0=0.0, t1=4.0):
    """A jump-free path with value slope * t on [t0, t1]."""
    none = np.empty(0)
    return TreeLengthPath(
        t0=t0, t1=t1, v0=slope * t0, slope=slope, jump_times=none,
        jump_sizes=none, root_flags=np.empty(0, dtype=bool),
    )


def _path_with_jumps(times, sizes):
    """A path of slope 3 on [0, 1] with the given jumps."""
    return TreeLengthPath(
        t0=0.0, t1=1.0, v0=4.0, slope=3.0, jump_times=np.array(times),
        jump_sizes=np.array(sizes), root_flags=np.zeros(len(times), dtype=bool),
    )


def _qv_by_eval(path, points):
    """Reference route: evaluate the path at every point and difference."""
    return float(np.sum(np.diff(path.eval(points)) ** 2))


@functools.lru_cache(maxsize=None)
def _replayed_path(n):
    """qv-scan's compensated path on [0, 1] at n levels (its detail stream)."""
    return stationary_path(n, (0.0, 1.0), _stream(1, "qv-scan", 0))


def test_quadratic_variation_of_linear_path_vanishes_dyadically():
    path = _linear_path(2.0, t0=2.0, t1=4.0)
    for level in (0, 1, 3, 20, 52):
        assert quadratic_variation(path, level) == pytest.approx(
            (2.0 * 2.0) ** 2 / 2**level, rel=1e-15)
    rows = qv_mesh_scan(path, [0, 1, 2, 5])
    assert [mesh for mesh, _ in rows] == [2.0, 1.0, 0.5, 2.0**-4]
    for mesh, qv in rows:
        assert qv == pytest.approx(8.0 * mesh)
    with pytest.raises(ValueError, match="nonnegative"):
        quadratic_variation(path, -1)
    with pytest.raises(ValueError, match="at most 52"):
        quadratic_variation(path, 53)
    with pytest.raises(ValueError, match="nonnegative"):
        qv_mesh_scan(path, [2, -1])


@pytest.mark.parametrize("n", [5, 50, 500])
def test_quadratic_variation_matches_evaluating_the_path(n):
    path = _replayed_path(n)
    assert path.n_jumps > 0
    for level in range(21):
        want = _qv_by_eval(path, np.linspace(path.t0, path.t1, 2**level + 1))
        assert quadratic_variation(path, level) == pytest.approx(want, rel=1e-10)


def test_quadratic_variation_puts_a_jump_on_a_point_in_the_cell_it_ends():
    sizes = [0.5, 0.25, 1.0, 2.0]
    path = _path_with_jumps([0.25, 0.5, 0.6, 1.0], sizes)
    # Cells (0, 1/4], (1/4, 1/2], (1/2, 3/4], (3/4, 1] hold one jump each.
    assert sum((0.75 - j) ** 2 for j in sizes) == 1.9375
    assert quadratic_variation(path, 2) == pytest.approx(1.9375, rel=1e-15)
    # At level 17, 1/2 ends cell 2^16 - 1 and the next jump lies in cell
    # 2^16; the jump at t1 ends the last cell.
    h = 2.0**-17
    sizes = [0.5, 0.25, 2.0]
    path = _path_with_jumps([0.5, 0.5 + h / 2, 1.0], sizes)
    drift = 3.0 * h
    hand = (2**17 - 3) * drift**2 + sum((drift - j) ** 2 for j in sizes)
    assert quadratic_variation(path, 17) == pytest.approx(hand, rel=1e-12)
    assert quadratic_variation(path, 17) == pytest.approx(
        _qv_by_eval(path, np.linspace(0.0, 1.0, 2**17 + 1)), rel=1e-10)


def test_quadratic_variation_memory_does_not_grow_with_the_mesh():
    path = _replayed_path(500)
    for level in (22, 52):
        tracemalloc.start()
        try:
            quadratic_variation(path, level)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The 2^22 + 1 points of a level-22 mesh alone would take 32 MB.
        assert peak <= 5 * path.jump_times.nbytes, f"level {level}: peak {peak} bytes"


# ---------------------------------------------------------------------------
# Poissonity and independence
# ---------------------------------------------------------------------------

def _poisson_replicates(level, window, reps, stream):
    out = []
    rate = float(level - 1)
    for _ in range(reps):
        times = sample_poisson_times(stream, rate, window)
        out.append(PointProcessSample(level=level, window=window, death_times=times))
    return out


def test_poisson_suite_accepts_true_poisson():
    samples = _poisson_replicates(3, (0.0, 6.0), 200, make_stream(71, 0))
    res = poisson_suite(samples)
    assert res.expected_count == pytest.approx(12.0)
    assert abs(res.count_z) < 3.5
    assert abs(res.dispersion_z) < 3.5
    assert res.n_valid_gap_reps > 150
    assert res.gap_rejection_fraction <= 0.12
    assert res.pooled_gap_ks is not None and res.pooled_gap_ks.p_value > 1e-3


def test_poisson_suite_rejects_regular_process():
    window = (0.0, 6.0)
    samples = []
    for r in range(100):
        times = np.linspace(0.25, 5.75, 12) + 1e-4 * r
        samples.append(PointProcessSample(level=3, window=window, death_times=times))
    res = poisson_suite(samples)
    assert res.gap_rejection_fraction > 0.9
    assert res.dispersion_z < -5.0


def test_poisson_suite_validation():
    with pytest.raises(ValueError):
        poisson_suite([])
    a = _poisson_replicates(2, (0.0, 6.0), 1, make_stream(71, 1))
    b = _poisson_replicates(3, (0.0, 6.0), 1, make_stream(71, 2))
    with pytest.raises(ValueError):
        poisson_suite(a + b)


def test_independence_check_iid_counts():
    gen = make_stream(71, 3).generator
    counts = gen.poisson(8.0, size=(500, 4))
    res = independence_check(counts, [2, 3, 4, 5])
    assert res.max_abs_correlation < 0.2
    assert res.degenerate_levels == ()


def test_independence_check_flags_structure():
    gen = make_stream(71, 4).generator
    base = gen.poisson(8.0, size=(300, 1)).astype(float)
    noise = gen.poisson(8.0, size=(300, 1)).astype(float)
    constant = np.full((300, 1), 5.0)
    m = np.hstack([base, base, noise, constant])
    res = independence_check(m, [2, 3, 4, 5])
    assert res.max_abs_correlation == pytest.approx(1.0)
    assert res.argmax_pair == (2, 3)
    assert res.degenerate_levels == (5,)
    with pytest.raises(ValueError):
        independence_check(m[:2], [2, 3, 4, 5])
    with pytest.raises(ValueError):
        independence_check(m, [2, 3])


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------

def test_fit_log_slope_exact_recovery():
    xs = np.exp(np.array([0.0, 1.0, 2.0, 3.0]))
    ys = 3.0 * np.log(xs) + 1.0
    slope, intercept, r2 = fit_log_slope(xs, ys)
    assert slope == pytest.approx(3.0, abs=1e-12)
    assert intercept == pytest.approx(1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_log_slope(np.array([2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        fit_log_slope(np.array([2.0, 2.0]), np.array([1.0, 2.0]))


def test_variance_scaling_with_pure_drift():
    n = 7
    epsilons = [0.1, 0.01]
    rows = variance_scaling(epsilons, [np.full(5, n * eps) for eps in epsilons])
    for eps, ratio, mean_sq, se in rows:
        assert mean_sq == pytest.approx((n * eps) ** 2, rel=1e-12)
        assert ratio == pytest.approx(n**2 * eps / abs(math.log(eps)), rel=1e-12)
        assert se == 0.0
    with pytest.raises(ValueError, match="one increment array per epsilon"):
        variance_scaling([0.1, 0.01], [np.zeros(5)])
    with pytest.raises(ValueError, match="at least two"):
        variance_scaling([0.1], [np.zeros(1)])
