"""Exact evolution of the total tree length of the N-level system.

At time t the population's genealogy is a coalescent tree whose total
length is l(t) = (t - min birth) + sum over levels 2..N of (t - birth),
computed from a birth list by :func:`tree_length`.
Between events every term grows at unit rate, so l drifts upward at slope
exactly N; an event removes the exiting line's age and, when the exiting
line was the oldest, also shortens the root stem to the next-oldest birth.
The path is therefore piecewise linear with negative jumps, and
:func:`build_path` materializes it exactly by replaying an event log on the
list of birth times.

:func:`reconstruct_length_backward` recomputes l(t) from the log alone by
genealogy counting, sharing no state machinery with the forward replay; it
exists to cross-check the incremental engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lookdown import EventLog, LookdownState, _block_shrinking_events, pair_count
from .rng import RngStream

__all__ = [
    "InsufficientHistoryError",
    "TreeLengthPath",
    "build_path",
    "reconstruct_length_backward",
    "sample_static_kingman_length",
    "sample_stationary_length_increments",
    "tree_length",
]


class InsufficientHistoryError(ValueError):
    """The event log does not reach back to the genealogy's root."""


def tree_length(births, t: float) -> float:
    """Total tree length at time t of the lines at levels 2..N born at `births`:
    their ages, summed as (N - 1) t minus an fsum, plus the root stem."""
    return len(births) * t - math.fsum(births) + (t - min(births))


@dataclass(frozen=True)
class TreeLengthPath:
    """Piecewise-linear cadlag path: slope N between sorted downward jumps.

    Values are defined on [t0, t1]; eval raises outside. With
    compensated=True the whole path is shifted down by 2 ln N, the leading
    term of the stationary mean, which leaves every increment unchanged.
    """

    N: int
    t0: float
    t1: float
    v0: float
    slope: float
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    exit_ages: np.ndarray
    root_flags: np.ndarray
    compensated: bool = False
    _cum_sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t = np.asarray(self.jump_times, dtype=np.float64)
        s = np.asarray(self.jump_sizes, dtype=np.float64)
        a = np.asarray(self.exit_ages, dtype=np.float64)
        r = np.asarray(self.root_flags, dtype=bool)
        if not (t.shape == s.shape == a.shape == r.shape):
            raise ValueError("jump arrays must align")
        if self.t0 > self.t1:
            raise ValueError("t0 exceeds t1")
        if t.size:
            if not (np.all(t > self.t0) and np.all(t <= self.t1)):
                raise ValueError("jump times must lie in (t0, t1]")
            if not np.all(np.diff(t) > 0.0):
                raise ValueError("jump times must be strictly increasing")
        object.__setattr__(self, "jump_times", t)
        object.__setattr__(self, "jump_sizes", s)
        object.__setattr__(self, "exit_ages", a)
        object.__setattr__(self, "root_flags", r)
        cum = np.concatenate([[0.0], np.cumsum(s)])
        object.__setattr__(self, "_cum_sizes", cum)

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.size)

    def eval(self, t):
        """Path value at scalar or array t inside [t0, t1] (cadlag)."""
        arr = np.asarray(t, dtype=np.float64)
        if arr.size and (arr.min() < self.t0 or arr.max() > self.t1):
            raise ValueError(f"times outside [{self.t0}, {self.t1}]")
        idx = np.searchsorted(self.jump_times, arr, side="right")
        out = self.v0 + self.slope * (arr - self.t0) - self._cum_sizes[idx]
        if np.isscalar(t) or arr.ndim == 0:
            return float(out)
        return out

    @property
    def final_value(self) -> float:
        return self.eval(self.t1)


def build_path(
    initial_state: LookdownState, log: EventLog, compensated: bool = False
) -> TreeLengthPath:
    """Replay a log from a state and record the exact length path.

    The initial state must sit at the log's window start and share its N.
    Each event pops the birth at level N (the exiting line), inserts the
    event time at the target level, and drops the length by the exiting
    line's age; when that line was the oldest, the root stem also shortens
    to the next-oldest birth, found by a rescan of the list.
    """
    if initial_state.N != log.N:
        raise ValueError("state and log disagree on N")
    if initial_state.now != log.t_start:
        raise ValueError(
            f"state at {initial_state.now} does not start the window {log.t_start}"
        )
    v0 = tree_length(initial_state.births, initial_state.now)
    if compensated:
        v0 -= 2.0 * math.log(log.N)
    n = log.n_events
    exited = np.empty(n)
    sizes = np.zeros(n)  # root-stem corrections until the ages are added
    flags = np.zeros(n, dtype=bool)
    births = list(initial_state.births)
    oldest = min(births)
    for idx, (t, k) in enumerate(zip(log.times.tolist(), log.targets.tolist())):
        birth = births.pop()
        births.insert(k - 2, t)
        exited[idx] = birth
        if birth <= oldest:
            # The inserted time never lowers the minimum: it is later than
            # every birth in the list.
            new_oldest = min(births)
            sizes[idx] = new_oldest - oldest
            flags[idx] = True
            oldest = new_oldest
    ages = np.subtract(log.times, exited, out=exited)
    sizes += ages
    return TreeLengthPath(
        N=log.N,
        t0=log.t_start,
        t1=log.t_end,
        v0=v0,
        slope=float(log.N),
        jump_times=log.times.copy(),
        jump_sizes=sizes,
        exit_ages=ages,
        root_flags=flags,
        compensated=compensated,
    )


def reconstruct_length_backward(log: EventLog, t: float) -> float:
    """Length at t by counting ancestral lineages backward through the log.

    Walks events at times <= t in reverse, integrating the lineage count
    until it reaches one. A backward event crossing with target k merges two
    lineages exactly when k is at most the current count, because the
    ancestral trajectories always occupy the bottom block of levels. Raises
    InsufficientHistoryError when the log ends before the root is reached.

    Cost: the merging events come from
    :func:`~kingman.lookdown._block_shrinking_events` (O(N) Python steps and
    O(log N) numpy passes over the log). The per-event terms
    lineages * (clock - event time) are then built as arrays and added by
    a sequential cumsum in the order of an event-by-event walk, so the
    result is the same double that walk gives.
    """
    if not (log.t_start <= t <= log.t_end):
        raise ValueError(f"t={t} outside the log window")
    stop = int(np.searchsorted(log.times, t, side="right"))
    merges = _block_shrinking_events(log.targets, stop, log.N)
    if len(merges) < log.N - 1:
        raise InsufficientHistoryError(
            f"log reaches {log.t_start} with {log.N - len(merges)} lineages unmerged"
        )
    # Events from the query back to the root merger, last to first.
    times = log.times[merges[-1]:stop][::-1]
    clocks = np.concatenate(([t], times[:-1]))
    merged = np.zeros(times.size, dtype=np.int64)
    merged[stop - 1 - merges] = 1
    lineages = log.N - (np.cumsum(merged) - merged)  # count before each event
    return float(np.cumsum(lineages * (clocks - times))[-1])


def sample_static_kingman_length(
    N: int, stream: RngStream, size: int | None = None
) -> float | np.ndarray:
    """Draw the total length of a static N-leaf coalescent tree.

    The tree spends Exp(C(k,2)) with k lineages, contributing k times that,
    for k = 2..N, so L_N = 2 sum_{j=1}^{N-1} E_j / j for i.i.d. Exp(1) E_j.
    By Renyi's representation that is twice the maximum of N-1 i.i.d.
    Exp(1), whose CDF is (1 - e^-x)^(N-1); each draw inverts it at one
    uniform U in [0, 1): L_N = -2 ln(1 - U^(1/(N-1))), computed through
    expm1 so U^(1/(N-1)) near 1 (large N) keeps its digits. U = 0 gives
    exactly 0.
    Returns a scalar when size is None, else an array of `size` draws.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    u = stream.generator.random(1 if size is None else int(size))
    with np.errstate(divide="ignore"):  # log(0) = -inf maps to length 0
        out = -2.0 * np.log(-np.expm1(np.log(u) / (N - 1)))
    if size is None:
        return float(out[0])
    return out


def _lower_merger_steps(
    n_levels: int, k: np.ndarray, gen: np.random.Generator
) -> np.ndarray:
    """Steps of the backward stationary construction that resolve levels 2..K.

    Step s (0-based) of :func:`~kingman.lookdown.stationary_births` merges
    inside a block of m = n_levels - s levels. The j still unresolved
    levels among 2..K are the j lowest unresolved levels, so the step
    resolves one of them with probability C(j+1,2)/C(m,2), independently
    of the merger depths. With j fixed, the steps of block sizes
    m0, m0-1, ..., m all miss with probability

        S(m) = prod_{i=m}^{m0} (i-j-1)(i+j) / (i(i-1)),

    which telescopes into log-factorials. The next lower step is the
    largest block size m with S(m) < v for one uniform v in (0, 1]; the
    bisection for it runs on all replicates at once. `k` holds K per
    replicate (K >= 1); the K-1 step indices of each replicate come back
    increasing, concatenated in replicate order.
    """
    n = n_levels
    # lf[i] = ln i! for i = 0..2n-1. In x = m - 2, ln S(m) = A - B(x) with
    # B(x) = lf[x-j] + lf[x+j+1] - lf[x] - lf[x+1], and A = B(m0 - 1).
    lf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, 2 * n)))))
    lf_up = lf[1:]
    lf_pair = lf[:-1] + lf[1:]
    j = np.asarray(k, dtype=np.int64) - 1
    ends = np.cumsum(j)  # replicate r's steps fill out[ends[r] - j[r]:ends[r]]
    out = np.empty(int(j.sum()), dtype=np.int64)
    ceiling = np.full(j.size, n - 1)  # x = m0 - 1, m0 = next step's block size
    live = np.flatnonzero(j > 0)
    while live.size:
        jj, hi = j[live], ceiling[live]
        # ln S(mid) < ln v  <=>  B(mid) > A - ln v; B(hi) == A exactly, so
        # hi starts on the "not below" side.
        bound = (lf[hi - jj] + lf_up[hi + jj] - lf_pair[hi]
                 - np.log1p(-gen.random(live.size)))
        lo = jj - 1  # m = j + 1, where S = 0
        for _ in range(int((hi - lo).max()).bit_length()):
            # Rounding up keeps mid >= j (S(j+1) = 0 has no finite log);
            # a closed bracket re-tests hi and stays put.
            mid = (lo + hi + 1) >> 1
            below = lf[mid - jj] + lf_up[mid + jj] - lf_pair[mid] > bound
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out[ends[live] - jj] = n - 2 - lo
        j[live] = jj - 1
        ceiling[live] = lo
        live = live[jj > 1]
    return out


def sample_stationary_length_increments(
    n_levels: int, epsilon: float, reps: int, stream: RngStream
) -> np.ndarray:
    """Draw iid copies of l(epsilon) - l(0), started from stationarity.

    Distributionally exact rewrite of "sample a stationary state, evolve it
    for epsilon, subtract" that never materializes the event log or assigns
    birth times to levels. One draw costs O(n_levels + K log n_levels)
    work, where K is the number of final lines that reach back past time 0,
    no matter how many events the window holds.

    Three independent ingredients determine the increment:

    * which events, scanned backward from epsilon, are births of final
      lines. With K final lines still unresolved an event qualifies iff its
      pair code lands in the bottom C(K,2) of the C(n,2) codes, and then K
      drops by one; the codes are iid, so the number of inert events before
      each qualifying one is geometric with the success probability walking
      K = n, n-1, ... downward. Final levels never resolved by the scan
      occupied the bottom block at time 0 and inherit the initial births of
      levels 2..K in order;
    * where the qualifying events sit in time. Given the window's total
      event count E (Poisson), the event times are E iid uniforms, whose
      E+1 spacings are normalized iid Exp(1) draws. Counting from the top,
      the qualifying positions split the spacings into runs, so the lag
      epsilon - t of each resolved birth is epsilon times a partial sum of
      Gamma(run length) draws over the Gamma(E+1) total;
    * the stationary state at time 0, built backward from its n-1
      coalescent merger depths (cumulative Exp/C(m,2)). Their sum and
      maximum give l(0). Levels 2..K take the depths of the K-1 "lower"
      mergers, whose steps form a death chain independent of the depths
      (see :func:`_lower_merger_steps`); the last of them is the oldest
      final line.

    The increment depends only on the multiset of final births, so the
    final length follows from the resolved lags and the lower depths.
    """
    if n_levels < 2:
        raise ValueError("n_levels must be at least 2")
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    n = n_levels
    gen = stream.generator
    total_pairs = float(pair_count(n))
    m = np.arange(n, 1, -1, dtype=np.float64)
    rates = m * (m - 1.0) / 2.0
    with np.errstate(divide="ignore"):
        # p = 1 for the first step gives log1p(-1) = -inf; the gap formula
        # below still returns exactly 1 there.
        log_miss = np.log1p(-rates / total_pairs)
    out = np.full(reps, n * epsilon)  # no final line resolved: pure drift
    resolved = np.zeros(reps, dtype=np.int64)
    lag_sum = np.zeros(reps)
    lag_max = np.zeros(reps)
    for r, n_events in enumerate(gen.poisson(total_pairs * epsilon, reps).tolist()):
        if n_events == 0:
            continue
        u = 1.0 - gen.random(n - 1)
        gaps = np.floor(np.log(u) / log_miss).astype(np.int64) + 1
        positions = np.cumsum(gaps)
        count = int(np.searchsorted(positions, n_events, side="right"))
        if count == 0:
            continue
        partial = np.cumsum(gen.standard_gamma(gaps[:count].astype(np.float64)))
        total = partial[-1] + gen.standard_gamma(n_events - positions[count - 1] + 1)
        lags = (epsilon / total) * partial
        resolved[r] = count
        lag_sum[r] = lags.sum()
        lag_max[r] = lags[-1]
    # K final lines reach back past 0; pure-drift replicates need no steps.
    k = np.where(resolved > 0, n - resolved, 1)
    lower_steps = _lower_merger_steps(n, k, gen)
    ends = np.cumsum(k - 1)
    for r in np.flatnonzero(resolved).tolist():
        depths = np.cumsum(gen.standard_exponential(n - 1) / rates)
        lower = depths[lower_steps[ends[r] - k[r] + 1:ends[r]]]
        if lower.size:
            # root stem epsilon + (oldest lower depth), plus K-1 lower lines
            final = k[r] * epsilon + lower[-1] + lower.sum()
        else:
            final = lag_max[r]  # the oldest final line is the last resolved
        out[r] = final + lag_sum[r] - (depths[-1] + depths.sum())
    return out
