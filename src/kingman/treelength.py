"""Exact evolution of the total tree length of the N-level system.

At time t the population's genealogy is a coalescent tree whose total
length is l(t) = (t - min birth) + sum over levels 2..N of (t - birth).
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

from .lookdown import EventLog, LookdownState, pair_count, stationary_births
from .rng import RngStream

__all__ = [
    "InsufficientHistoryError",
    "TreeLengthPath",
    "build_path",
    "reconstruct_length_backward",
    "sample_static_kingman_length",
    "sample_stationary_length_increments",
    "tree_length_of_state",
]


class InsufficientHistoryError(ValueError):
    """The event log does not reach back to the genealogy's root."""


def tree_length_of_state(state: LookdownState) -> float:
    """Total tree length of the population held in `state`, at state.now."""
    return (
        (state.N - 1) * state.now
        - state.sum_births
        + (state.now - state.min_birth)
    )


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
    v0 = tree_length_of_state(initial_state)
    if compensated:
        v0 -= 2.0 * math.log(log.N)
    n = log.n_events
    exited = np.empty(n)
    sizes = np.zeros(n)  # root-stem corrections until the ages are added
    flags = np.zeros(n, dtype=bool)
    births = list(initial_state.births)
    oldest = initial_state.min_birth
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
    """
    if not (log.t_start <= t <= log.t_end):
        raise ValueError(f"t={t} outside the log window")
    lineages = log.N
    total = 0.0
    clock = t
    start = int(np.searchsorted(log.times, t, side="right")) - 1
    for idx in range(start, -1, -1):
        total += lineages * (clock - float(log.times[idx]))
        clock = float(log.times[idx])
        if int(log.targets[idx]) <= lineages:
            lineages -= 1
            if lineages == 1:
                return total
    raise InsufficientHistoryError(
        f"log reaches {log.t_start} with {lineages} lineages unmerged"
    )


def sample_static_kingman_length(
    N: int, stream: RngStream, size: int | None = None
) -> float | np.ndarray:
    """Draw the total length of a static N-leaf coalescent tree.

    The tree spends Exp(C(k,2)) with k lineages, contributing k times that,
    for k = 2..N; the draws sum those contributions directly. Returns a
    scalar when size is None, else an array of `size` independent draws.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    k = np.arange(2, N + 1, dtype=np.float64)
    inv_rates = 2.0 / (k * (k - 1.0))
    weights = k * inv_rates
    reps = 1 if size is None else int(size)
    out = np.empty(reps)
    block = max(1, 40_000_000 // (N - 1))
    for lo in range(0, reps, block):
        hi = min(reps, lo + block)
        draws = stream.generator.standard_exponential((hi - lo, N - 1))
        out[lo:hi] = draws @ weights
    if size is None:
        return float(out[0])
    return out


def sample_stationary_length_increments(
    n_levels: int, epsilon: float, reps: int, stream: RngStream
) -> np.ndarray:
    """Draw iid copies of l(epsilon) - l(0), started from stationarity.

    Distributionally exact rewrite of "sample a stationary state, evolve it
    for epsilon, subtract" that never materializes the event log, so one
    draw costs O(n_levels) work no matter how many events the window holds.

    Three independent ingredients determine the increment:

    * the stationary births at time 0 (only prefix sums and prefix minima
      of the level-ordered births enter);
    * which events, scanned backward from epsilon, are births of final
      lines. With K final lines still unresolved an event qualifies iff its
      pair code lands in the bottom C(K,2) of the C(n,2) codes, and then K
      drops by one; the codes are iid, so the number of inert events before
      each qualifying one is geometric with the success probability walking
      K = n, n-1, ... downward;
    * where the qualifying events sit in time. Given the window's total
      event count E (Poisson), the event times are E iid uniforms, and
      walking their order statistics down from the top turns each qualifying
      position into a Beta-distributed shrink factor, so the j-th resolved
      birth time is epsilon times a product of independent Betas.

    Final levels never resolved by the scan occupied the bottom block at
    time 0 and inherit the initial births of levels 2..K_end in order. The
    increment depends only on the multiset of final births, so no level
    assignment is needed: the final sum and minimum come from the resolved
    times plus an initial-birth prefix sum and prefix minimum.
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
    with np.errstate(divide="ignore"):
        # p = 1 for the first step gives log1p(-1) = -inf; the gap formula
        # below still returns exactly 1 there.
        log_miss = np.log1p(-(m * (m - 1.0) / 2.0) / total_pairs)
    out = np.empty(reps)
    for r in range(reps):
        births = stationary_births(n, 0.0, stream)
        prefix_sum = np.cumsum(births)
        prefix_min = np.minimum.accumulate(births)
        length0 = -prefix_min[-1] - prefix_sum[-1]
        n_events = int(gen.poisson(total_pairs * epsilon))
        if n_events == 0:
            out[r] = n * epsilon
            continue
        u = 1.0 - gen.random(n - 1)
        gaps = np.floor(np.log(u) / log_miss).astype(np.int64) + 1
        positions = np.cumsum(gaps)
        resolved = int(np.searchsorted(positions, n_events, side="right"))
        if resolved == 0:
            out[r] = n * epsilon
            continue
        shrink = gen.beta(
            gaps[:resolved].astype(np.float64),
            (n_events - positions[:resolved] + 1).astype(np.float64),
        )
        times = epsilon * np.cumprod(1.0 - shrink)
        k_end = n - resolved
        if k_end >= 2:
            base_sum = float(prefix_sum[k_end - 2])
            base_min = float(prefix_min[k_end - 2])
        else:
            base_sum = 0.0
            base_min = math.inf
        final_sum = float(times.sum()) + base_sum
        final_min = min(base_min, float(times[-1]))
        out[r] = (n * epsilon - final_min - final_sum) - length0
    return out
