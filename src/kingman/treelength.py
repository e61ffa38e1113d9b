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

:func:`sample_stationary_length_increments` draws l(epsilon) - l(0) from
stationarity without a log: two n-coalescents per increment (the window's
and the time-0 tree's), and a uniform planar embedding of the second that
reads off the mergers of its K-subsample, all as O(n) numpy work per
increment in fixed-size row chunks. Both coalescents' merger depths come
from :func:`~kingman.lookdown._merger_depths`, the one coalescent-depth
draw, which :func:`~kingman.lookdown.stationary_births` also uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lookdown import (
    EventLog,
    LookdownState,
    _block_shrinking_events,
    _check_times,
    _merger_depths,
    sample_stationary_state,
    simulate_events,
)
from .rng import RngStream

__all__ = [
    "InsufficientHistoryError",
    "TreeLengthPath",
    "build_path",
    "reconstruct_length_backward",
    "sample_static_kingman_length",
    "sample_stationary_length_increments",
    "stationary_path",
    "tree_length",
]


class InsufficientHistoryError(ValueError):
    """The event log does not reach back to the genealogy's root."""


def tree_length(births, t: float) -> float:
    """Total tree length at time t of the lines at levels 2..N born at `births`:
    their ages, summed as (N - 1) t minus an fsum, plus the root stem.

    An array of births is read once as Python floats, so fsum and min run
    on floats, not numpy scalars: the same doubles (fsum is correctly
    rounded, min exact), at less than half the cost at N = 100."""
    if isinstance(births, np.ndarray):
        births = births.tolist()
    return len(births) * t - math.fsum(births) + (t - min(births))


@dataclass(frozen=True)
class TreeLengthPath:
    """Piecewise-linear cadlag path: slope N between sorted downward jumps.

    Values are defined on [t0, t1]; eval raises outside. A path replayed
    by :func:`build_path` holds its log's read-only times as jump_times;
    root_flags marks the jumps whose exiting line was the oldest.
    """

    t0: float
    t1: float
    v0: float
    slope: float
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    root_flags: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.jump_times, dtype=np.float64)
        s = np.asarray(self.jump_sizes, dtype=np.float64)
        r = np.asarray(self.root_flags, dtype=bool)
        if not (t.shape == s.shape == r.shape):
            raise ValueError("jump arrays must align")
        if self.t0 > self.t1:
            raise ValueError("t0 exceeds t1")
        _check_times(t, self.t0, self.t1, "jump", "(t0, t1]")
        object.__setattr__(self, "jump_times", t)
        object.__setattr__(self, "jump_sizes", s)
        object.__setattr__(self, "root_flags", r)

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.size)

    def eval(self, t):
        """Path value at scalar or array t inside [t0, t1] (cadlag).

        The running jump totals are summed for the call and freed after it:
        the same doubles as concatenate([[0.0], cumsum(jump_sizes)]).
        """
        arr = np.asarray(t, dtype=np.float64)
        if arr.size and (arr.min() < self.t0 or arr.max() > self.t1):
            raise ValueError(f"times outside [{self.t0}, {self.t1}]")
        idx = np.searchsorted(self.jump_times, arr, side="right")
        cum = np.empty(self.jump_sizes.size + 1)
        cum[0] = 0.0
        np.cumsum(self.jump_sizes, out=cum[1:])
        out = self.v0 + self.slope * (arr - self.t0) - cum[idx]
        if np.isscalar(t) or arr.ndim == 0:
            return float(out)
        return out

    @property
    def final_value(self) -> float:
        return self.eval(self.t1)


# Events per slice of the log that build_path turns into Python lists.
_REPLAY_SLICE = 8192


def build_path(
    initial_state: LookdownState, log: EventLog, compensated: bool = False
) -> TreeLengthPath:
    """Replay a log from a state and record the exact length path.

    The initial state must sit at the log's window start and share its N.
    Each event pops the birth at level N (the exiting line), inserts the
    event time at the target level, and drops the length by the exiting
    line's age; when that line was the oldest, the root stem also shortens
    to the next-oldest birth, found by a rescan of the list. With
    compensated=True the whole path is shifted down by 2 ln N, the leading
    term of the stationary mean, which leaves every increment unchanged.
    The path's jump_times is the log's times array itself, not a copy.
    Each jump size is the exiting line's age plus its root-stem correction;
    the ages are formed in the buffer that held the exiting births.
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
    exited = np.empty(n)  # exiting births, then the jump sizes
    fixes = np.zeros(n)  # root-stem corrections
    flags = np.zeros(n, dtype=bool)
    births = list(initial_state.births)
    oldest = min(births)
    # The log is read as Python floats and ints one slice at a time, so
    # its list copies stay a fixed size however long the log is.
    for lo in range(0, n, _REPLAY_SLICE):
        times = log.times[lo:lo + _REPLAY_SLICE].tolist()
        targets = log.targets[lo:lo + _REPLAY_SLICE].tolist()
        for idx, t, k in zip(range(lo, n), times, targets):
            birth = births.pop()
            births.insert(k - 2, t)
            exited[idx] = birth
            if birth <= oldest:
                # The inserted time never lowers the minimum: it is later
                # than every birth in the list.
                new_oldest = min(births)
                fixes[idx] = new_oldest - oldest
                flags[idx] = True
                oldest = new_oldest
    sizes = np.subtract(log.times, exited, out=exited)
    sizes += fixes
    del fixes
    return TreeLengthPath(
        t0=log.t_start,
        t1=log.t_end,
        v0=v0,
        slope=float(log.N),
        jump_times=log.times,
        jump_sizes=sizes,
        root_flags=flags,
    )


def stationary_path(n: int, window: tuple[float, float], stream: RngStream) -> TreeLengthPath:
    """The compensated length path of n levels on `window`, started from
    stationarity. The one draw order: the stationary state at the window's
    start, then the window's events."""
    state = sample_stationary_state(n, window[0], stream)
    return build_path(state, simulate_events(n, window, stream), compensated=True)


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


def sample_static_kingman_length(N: int, stream: RngStream, size: int) -> np.ndarray:
    """Draw the total length of a static N-leaf coalescent tree.

    The tree spends Exp(C(k,2)) with k lineages, contributing k times that,
    for k = 2..N, so L_N = 2 sum_{j=1}^{N-1} E_j / j for i.i.d. Exp(1) E_j.
    By Renyi's representation that is twice the maximum of N-1 i.i.d.
    Exp(1), whose CDF is (1 - e^-x)^(N-1); each draw inverts it at one
    uniform U in [0, 1): L_N = -2 ln(1 - U^(1/(N-1))), computed through
    expm1 so U^(1/(N-1)) near 1 (large N) keeps its digits. U = 0 gives
    exactly 0. Returns an array of `size` draws.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    u = stream.generator.random(int(size))
    with np.errstate(divide="ignore"):  # log(0) = -inf maps to length 0
        return -2.0 * np.log(-np.expm1(np.log(u) / (N - 1)))


# Doubles per matrix in one row chunk of the stationary-increment sampler.
_CHUNK_DOUBLES = 1 << 16


def _subsample_merger_depths(
    buf: np.ndarray, k: np.ndarray, gen: np.random.Generator
) -> np.ndarray:
    """Merger depths of a uniform k[r]-leaf subsample of each row's tree.

    `buf` holds rows = k.size rows of n-1 doubles back to back, then one
    spare slot; row r holds the n-1 merger depths of an n-leaf Kingman
    tree, and 1 <= k[r] <= n. The rows are permuted in place and the
    spare slot is overwritten, so the caller reads nothing in `buf` after.

    The tree is drawn in a uniform planar embedding: its depths lie on the
    n-1 gaps between adjacent leaves in uniform random order. A uniform
    leaf order combined with a uniform order of the cuts maps
    2^(n-1)-to-one onto Kingman's ranked labelled histories, so this
    embedding is exact. The subsample is k[r] uniform leaf positions; two
    adjacent marked leaves meet at the largest depth between them, and
    those k[r]-1 meetings are the subsample's mergers.

    The marks are drawn by adding iid uniform leaves until the row holds
    k[r] distinct ones. That rule treats all leaves alike, so the set is a
    uniform k[r]-subset. Past n/2 the unmarked leaves are drawn instead,
    which keeps each round's repeats below half; a chunk takes a few
    rounds of O(n) numpy work per row, not a shuffle of every row.

    Returns the k[r]-1 depths of each row, concatenated in row order and
    each row's in leaf order (not sorted).
    """
    rows = k.size
    gaps = (buf.size - 1) // rows
    n = gaps + 1
    # Leaf j of row r sits before gap r * gaps + j; the spare last slot
    # closes the segment that opens at the last leaf of the last row.
    buf[-1] = 0.0
    depths = buf[:-1].reshape(rows, gaps)
    gen.permuted(depths, axis=1, out=depths)
    flip = 2 * k > n
    want = np.where(flip, n - k, k)
    marks = np.zeros((rows, n), dtype=bool)
    short = want
    while short.any():
        picks = np.repeat(np.arange(0, rows * n, n), short)
        picks += gen.integers(0, n, picks.size)
        marks.reshape(-1)[picks] = True
        short = want - marks.sum(axis=1, dtype=np.int32)
    marks[flip] = ~marks[flip]
    leaves = np.flatnonzero(marks)  # leaf j of row r is r * n + j
    meets = np.maximum.reduceat(buf, leaves - leaves // n)
    # The segment opened at each row's last mark runs into the next row.
    return np.delete(meets, np.cumsum(k) - 1)


def _increment_chunk(
    gen: np.random.Generator, rows: int, n: int, epsilon: float
) -> np.ndarray:
    """`rows` draws of l(epsilon) - l(0) at n levels; see the caller.

    Each (rows, n-1) matrix of depths is reduced to per-row values and let
    go before the next is drawn, so no two of them are alive at once.
    """
    lags = _merger_depths(gen, rows, n)
    kept = lags <= epsilon
    resolved = np.count_nonzero(kept, axis=1)
    lag_sum = np.sum(lags, axis=1, where=kept)
    oldest_lag = lags[np.arange(rows), resolved - 1]
    del lags, kept
    # The time-0 tree, with the spare slot _subsample_merger_depths needs.
    buf = np.empty(rows * (n - 1) + 1)
    depths = _merger_depths(gen, rows, n, out=buf[:-1].reshape(rows, n - 1))
    initial = depths.sum(axis=1) + depths[:, -1]
    k = n - resolved
    lower = _subsample_merger_depths(buf, k, gen)
    del buf, depths
    # Per-row sum and maximum of the lower depths; the spare 0 closes
    # the last row, and rows with K = 1 have none.
    starts = np.cumsum(k) - k - np.arange(rows)
    lower = np.append(lower, 0.0)
    has_lower = k > 1
    lower_sum = np.where(has_lower, np.add.reduceat(lower, starts), 0.0)
    root = np.where(
        has_lower, epsilon + np.maximum.reduceat(lower, starts), oldest_lag
    )
    final = (k - 1) * epsilon + lower_sum + root + lag_sum
    return np.where(resolved > 0, final - initial, n * epsilon)


def sample_stationary_length_increments(
    n_levels: int, epsilon: float, reps: int, stream: RngStream
) -> np.ndarray:
    """Draw iid copies of l(epsilon) - l(0), started from stationarity.

    Distributionally exact rewrite of "sample a stationary state, evolve it
    for epsilon, subtract" that never materializes the event log or assigns
    birth times to levels. The increment depends only on the multiset of
    final births, which two n-coalescents determine:

    * the window. Scanned backward from epsilon, the K unresolved final
      lines occupy the bottom block of levels, and an event shrinks the
      block exactly when its target is at most K, at rate C(K,2). So the
      lags epsilon - t of the resolved births are the first merger depths
      of an n-coalescent (from :func:`~kingman.lookdown._merger_depths`),
      kept while at most epsilon; K is n minus their count. When
      none is kept the increment is exactly n * epsilon;
    * time 0. The stationary tree's n-1 merger depths are drawn the same
      way, and l(0) is their sum plus their maximum. The final levels
      2..K, unresolved by the scan, inherit the births of levels 2..K at
      time 0, whose ancestry is a uniform K-subsample of that tree; its
      K-1 merger depths come from :func:`_subsample_merger_depths`. The
      oldest of them roots the final tree (when K = 1, the oldest lag
      does).

    Cost: O(n_levels) numpy work per replicate and no per-replicate
    Python. Replicates go through :func:`_increment_chunk` in row chunks
    of about 2^16 doubles per matrix, so memory is O(reps) plus a fixed
    chunk.
    """
    if n_levels < 2:
        raise ValueError("n_levels must be at least 2")
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    n = n_levels
    out = np.empty(reps)
    chunk = max(1, _CHUNK_DOUBLES // n)
    for lo in range(0, reps, chunk):
        rows = min(chunk, reps - lo)
        out[lo:lo + rows] = _increment_chunk(stream.generator, rows, n, epsilon)
    return out
