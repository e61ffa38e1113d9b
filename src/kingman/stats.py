"""Statistics for the simulator's verification suite.

Pure functions over immutable inputs: Kolmogorov-Smirnov machinery with the
asymptotic p-value series, Poissonity and independence checks for death
processes, quadratic variation on dyadic meshes of a path's window, the
variance-scaling ratio, and log-slope fits.

The quadratic variation never evaluates the path on the mesh: each
cell's increment is the path's drift over the cell minus the jumps that
fall in it, and only cells that hold a jump are visited, so its time and
memory are O(jumps) whatever the level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "KSResult",
    "MAX_DYADIC_LEVEL",
    "fit_log_slope",
    "gumbel_cdf",
    "independence_check",
    "kolmogorov_sf",
    "ks_test",
    "ks_test_two_sample",
    "poisson_suite",
    "quadratic_variation",
    "qv_mesh_scan",
    "variance_scaling",
]

_KS_MIN_N = 8
_KS_TERM_FLOOR = 1e-10


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float
    n: int


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival function Q(lam).

    Q(lam) = 2 * sum_{r>=1} (-1)^(r-1) exp(-2 r^2 lam^2), truncated once a
    term falls below 1e-10. For tiny lam the series is numerically useless
    and the survival probability is 1 to double precision.
    """
    if lam <= 0.05:
        return 1.0
    total = 0.0
    sign = 1.0
    for r in range(1, 10_000):
        term = math.exp(-2.0 * (r * lam) ** 2)
        if term < _KS_TERM_FLOOR:
            break
        total += sign * term
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_test(sample: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> KSResult:
    """One-sample KS test of `sample` against the continuous CDF `cdf`.

    D = sup_x |F_n(x) - F(x)| computed at the order statistics; the p-value
    uses the asymptotic Kolmogorov distribution of sqrt(n) D (no
    small-sample correction), so n >= 8 is required.
    """
    x = np.sort(np.asarray(sample, dtype=np.float64))
    n = x.size
    if n < _KS_MIN_N:
        raise ValueError(f"KS test needs at least {_KS_MIN_N} observations, got {n}")
    f = np.asarray(cdf(x), dtype=np.float64)
    if f.shape != x.shape:
        raise ValueError("cdf must evaluate elementwise on the sample")
    if np.any(f < -1e-12) or np.any(f > 1.0 + 1e-12):
        raise ValueError("cdf values fall outside [0, 1]")
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    d_plus = float(np.max(grid - f))
    d_minus = float(np.max(f - (grid - 1.0 / n)))
    d = max(d_plus, d_minus)
    return KSResult(statistic=d, p_value=kolmogorov_sf(math.sqrt(n) * d), n=n)


def ks_test_two_sample(a: np.ndarray, b: np.ndarray) -> KSResult:
    """Two-sample KS test with the asymptotic p-value.

    D is the sup distance between the two empirical CDFs and the effective
    sample size is n_a n_b / (n_a + n_b).
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size < _KS_MIN_N or b.size < _KS_MIN_N:
        raise ValueError(f"two-sample KS needs {_KS_MIN_N} observations per sample")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = a.size * b.size / (a.size + b.size)
    return KSResult(statistic=d, p_value=kolmogorov_sf(math.sqrt(n_eff) * d), n=int(n_eff))


def gumbel_cdf(x: np.ndarray | float) -> np.ndarray | float:
    """Standard Gumbel CDF exp(-exp(-x))."""
    return np.exp(-np.exp(-np.asarray(x, dtype=np.float64)))


# ---------------------------------------------------------------------------
# Quadratic variation
# ---------------------------------------------------------------------------

# Cell indices of finer meshes pass 2^53, past which doubles skip integers.
MAX_DYADIC_LEVEL = 52


def quadratic_variation(path, level: int) -> float:
    """Sum of squared path increments over the 2^level equal cells of the
    path's window [t0, t1].

    `path` is piecewise linear with downward jumps (a
    :class:`~kingman.treelength.TreeLengthPath`), so the increment over a
    cell of length h is slope * h minus the sizes of the jumps inside it;
    the path is never evaluated. A jump at t lies in the cell that ends at
    t0 + ceil((t - t0)/h) h: a jump on a cell end belongs to the cell it
    ends (the path is cadlag), and one at t1 to the last cell. Only the
    cells that hold a jump are visited, each empty cell adding
    (slope * h)^2, so time and memory are O(jumps) at every level.
    """
    if level < 0:
        raise ValueError("dyadic level must be nonnegative")
    if level > MAX_DYADIC_LEVEL:
        raise ValueError(f"dyadic level must be at most {MAX_DYADIC_LEVEL}")
    n_cells = 2**level
    h = (path.t1 - path.t0) / n_cells
    drift = path.slope * h
    # Each jump's cell end in units of h, in place: sorted and at least 1,
    # so the jumps of each occupied cell start where it changes from the last.
    ends = path.jump_times - path.t0
    ends /= h
    np.ceil(ends, out=ends)
    first = np.empty(ends.size, dtype=bool)
    first[:1] = True
    np.not_equal(ends[1:], ends[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del ends, first  # freed before the per-cell sums are made
    incr = np.add.reduceat(path.jump_sizes, starts)
    np.subtract(drift, incr, out=incr)
    return float(incr @ incr) + (n_cells - starts.size) * drift**2


def qv_mesh_scan(path, levels: Sequence[int]):
    """Quadratic variation along dyadic refinements of the path's window.

    Returns a list of (mesh, qv) rows, one per dyadic level, in the order
    given. Meshes are (t1 - t0) * 2^-m.
    """
    span = path.t1 - path.t0
    return [(span * 2.0 ** (-m), quadratic_variation(path, m)) for m in levels]


# ---------------------------------------------------------------------------
# Poissonity, independence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoissonSuiteResult:
    counts: np.ndarray
    expected_count: float
    mean_count: float
    count_z: float
    dispersion_index: float
    dispersion_z: float
    gap_rejection_fraction: float
    n_valid_gap_reps: int
    pooled_gap_ks: KSResult | None


def poisson_suite(samples, alpha: float = 0.05) -> PoissonSuiteResult:
    """Poissonity checks for replicate death-process samples of one level.

    Checks, against a homogeneous Poisson process of rate (level - 1):
    (a) per-replicate KS of inter-death gaps vs Exp(level - 1), counting the
        rejection fraction at `alpha` over replicates with at least 8 gaps;
    (b) mean death count vs (level - 1) * window length (z score);
    (c) dispersion index (variance/mean of counts) vs 1 (z score, the
        3-sigma band being +- 3 sqrt(2/(reps-1))).
    A pooled-gap KS over all replicates is included for reference.
    """
    if not samples:
        raise ValueError("need at least one replicate sample")
    level = samples[0].level
    window = (float(samples[0].window[0]), float(samples[0].window[1]))
    for s in samples:
        if s.level != level or (float(s.window[0]), float(s.window[1])) != window:
            raise ValueError("samples must share level and window")
    rate = float(level - 1)
    span = window[1] - window[0]
    cdf = lambda x: 1.0 - np.exp(-rate * np.asarray(x))  # noqa: E731

    counts = np.array([s.death_times.size for s in samples], dtype=np.float64)
    n_reps = counts.size
    expected = rate * span
    mean_count = float(counts.mean())
    count_z = (mean_count - expected) / math.sqrt(expected / n_reps)
    dispersion = float(counts.var(ddof=1) / mean_count) if mean_count > 0 else math.nan
    dispersion_z = (
        (dispersion - 1.0) / math.sqrt(2.0 / (n_reps - 1)) if n_reps > 1 else math.nan
    )

    rejections = 0
    valid = 0
    all_gaps = []
    for s in samples:
        gaps = np.diff(s.death_times)
        if gaps.size:
            all_gaps.append(gaps)
        if gaps.size >= _KS_MIN_N:
            valid += 1
            if ks_test(gaps, cdf).p_value < alpha:
                rejections += 1
    pooled = None
    if all_gaps:
        pooled_gaps = np.concatenate(all_gaps)
        if pooled_gaps.size >= _KS_MIN_N:
            pooled = ks_test(pooled_gaps, cdf)
    return PoissonSuiteResult(
        counts=counts,
        expected_count=expected,
        mean_count=mean_count,
        count_z=float(count_z),
        dispersion_index=dispersion,
        dispersion_z=float(dispersion_z),
        gap_rejection_fraction=(rejections / valid) if valid else 0.0,
        n_valid_gap_reps=valid,
        pooled_gap_ks=pooled,
    )


@dataclass(frozen=True)
class IndependenceResult:
    max_abs_correlation: float
    argmax_pair: tuple[int, int]
    degenerate_levels: tuple[int, ...]


def independence_check(count_matrix: np.ndarray, levels: Sequence[int]) -> IndependenceResult:
    """Max absolute pairwise Pearson correlation between per-level counts.

    `count_matrix` has one row per replicate and one column per level.
    Degenerate (constant) columns cannot be correlated; they are flagged and
    excluded rather than propagating NaNs.
    """
    m = np.asarray(count_matrix, dtype=np.float64)
    levels = np.asarray(levels, dtype=np.int64)
    if m.ndim != 2 or m.shape[1] != levels.size:
        raise ValueError("count matrix columns must match levels")
    if m.shape[0] < 3:
        raise ValueError("need at least 3 replicates")
    stds = m.std(axis=0)
    degenerate = levels[stds == 0.0]
    keep = stds > 0.0
    kept_levels = levels[keep]
    if kept_levels.size < 2:
        return IndependenceResult(0.0, (0, 0), tuple(int(v) for v in degenerate))
    corr = np.corrcoef(m[:, keep], rowvar=False)
    off = np.abs(corr - np.eye(corr.shape[0]))
    flat = int(np.argmax(off))
    i, j = divmod(flat, corr.shape[0])
    return IndependenceResult(
        max_abs_correlation=float(off[i, j]),
        argmax_pair=(int(kept_levels[i]), int(kept_levels[j])),
        degenerate_levels=tuple(int(v) for v in degenerate),
    )


# ---------------------------------------------------------------------------
# Scaling fits
# ---------------------------------------------------------------------------

def fit_log_slope(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """OLS fit of ys against ln(xs): returns (slope, intercept, r_squared)."""
    x = np.log(np.asarray(xs, dtype=np.float64))
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two or more points")
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("x values are all equal")
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    intercept = ym - slope * xm
    ss_res = float(np.sum((y - (intercept + slope * x)) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def variance_scaling(
    epsilons: Sequence[float], increments: Sequence[np.ndarray]
) -> list[tuple[float, float, float, float]]:
    """Mean-square increment ratio E[(path(t0+eps) - path(t0))^2] / (eps |ln eps|).

    `increments[i]` holds at least two independent stationary increments of
    the compensated tree-length path over a window of length epsilons[i],
    which must lie in (0, 1). Returns rows (eps, ratio, mean_square,
    se_mean_square).
    """
    if len(increments) != len(epsilons):
        raise ValueError("need one increment array per epsilon")
    rows = []
    for eps, inc in zip(epsilons, increments):
        sq = np.asarray(inc, dtype=np.float64) ** 2
        if sq.size < 2:
            raise ValueError("each epsilon needs at least two increments")
        mean_sq = float(sq.mean())
        se = float(sq.std(ddof=1) / math.sqrt(sq.size))
        rows.append((eps, mean_sq / (eps * abs(math.log(eps))), mean_sq, se))
    return rows
