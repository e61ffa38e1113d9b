"""The look-down particle system: event logs, replay starts, line sampling.

Levels 1..N each carry one line. Ordered pairs i < k ring at unit rate; at a
ring the line at level i begets a new line at level k, lines at levels >= k
are pushed up one, and the line formerly at level N exits. Level 1 is
immortal and holds no birth time, so the finite-N state is the list of
birth times of the lines at levels 2..N, and an :class:`EventLog` keeps
each event's time and target only (the source never moves a birth time).
A replay start is that list, as an array, at the log's window start:
:func:`~kingman.treelength.build_path` replays a log forward from it, and
:func:`resolve_final_state` computes the final list backward from the log
alone, by the level assignment :func:`stationary_births` also uses. Both
routes check the start through :func:`_check_start`.
Coalescent merger depths (cumulative sums of Exp(1)/C(m,2)) have one draw,
:func:`_merger_depths`, shared by :func:`stationary_births` and the
stationary-increment sampler in :mod:`kingman.treelength`.

The infinite-level system has one map from exponential stages to lives,
:func:`sample_lifelengths`: the total life of a line born at a given level
is a sum of exponential sojourn times with rates C(j,2), truncated at a
caller-chosen level J with the deterministic tail mean added back.
:func:`sample_infinite_deaths` draws through it to build the death point
process of one level over a window via Poisson births on a
burn-in-extended window (J from :func:`truncation_level_for`).
:func:`sample_lifelengths_gamma_tail` replaces that deterministic tail by
one Gamma draw with the tail's exact mean and variance
(:func:`life_moments`); the divergence experiment sums squared lives from
it level by level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream, sample_poisson_times

__all__ = [
    "EventLog",
    "GAMMA_TAIL_LEVEL",
    "PointProcessSample",
    "SequencingError",
    "decode_target",
    "default_burn_in",
    "life_moments",
    "life_skewness",
    "pair_count",
    "resolve_final_state",
    "sample_infinite_deaths",
    "sample_lifelengths",
    "sample_lifelengths_gamma_tail",
    "simulate_events",
    "stationary_births",
    "truncation_level_for",
]


class SequencingError(ValueError):
    """Event or jump times out of order, or outside their window."""


def _check_times(times, start: float, end: float, what: str, window: str) -> None:
    """Raise SequencingError unless `times` strictly increase inside (start, end].

    No copies: a NaN fails the slice comparison, and times that increase lie
    in the window if both ends do. The message names `what` and `window`.
    """
    if times.size:
        if not np.all(times[1:] > times[:-1]):
            raise SequencingError(f"{what} times must be strictly increasing")
        if not (times[0] > start and times[-1] <= end):
            raise SequencingError(f"{what} times must lie in {window}")


def _check_start(births, log: EventLog) -> np.ndarray:
    """The births of levels 2..N at log.t_start as a float64 array, checked.

    The one check of a replay start, for the forward and backward routes:
    N - 1 births, none after the window start (a NaN fails the comparison).
    """
    start = np.asarray(births, dtype=np.float64)
    if start.shape != (log.N - 1,):
        raise ValueError(f"need {log.N - 1} birth times for levels 2..{log.N}")
    if not np.all(start <= log.t_start):
        raise ValueError(
            f"birth times must not exceed the window start {log.t_start}"
        )
    return start


def pair_count(n: int) -> int:
    """Number of ordered pairs i < k with k <= n, i.e. C(n, 2)."""
    return n * (n - 1) // 2


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

def decode_target(codes: np.ndarray) -> np.ndarray:
    """Map uniform integers in [0, C(N,2)) to the target levels of their pairs.

    Codes enumerate the ordered pairs by target ascending: code m falls on
    target k when C(k-1,2) <= m < C(k,2). The float sqrt inversion is
    corrected by an exact integer step, so the decode is exact for any N
    whose pair count fits in a double's integer range (N well beyond 10^7).
    """
    m = np.asarray(codes, dtype=np.int64)
    k = m.astype(np.float64)
    k *= 8.0
    k += 1.0
    np.sqrt(k, out=k)
    k += 3.0
    k /= 2.0
    k = k.astype(np.int64)
    # Correct rare off-by-one from float rounding, in place: k drops by one
    # where C(k-1,2) = C(k,2) - k + 1 exceeds m, then rises by one where m
    # reaches C(k,2).
    pairs = k - 1
    pairs *= k
    pairs >>= 1
    pairs -= k
    k -= pairs >= m
    np.subtract(k, 1, out=pairs)
    pairs *= k
    pairs >>= 1
    k += m >= pairs
    return k


@dataclass
class EventLog:
    """Time-ordered birth events of the N-level system on a window.

    Storage is struct-of-arrays (times, targets); the event at times[i] is
    a birth into level targets[i]. Its source level is not kept: no jump
    of the tree length depends on it. times is a read-only view, so the
    paths replayed from the log can share it.
    """

    N: int
    t_start: float
    t_end: float
    times: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if self.t_start > self.t_end:
            raise ValueError("window start exceeds end")
        t = np.asarray(self.times, dtype=np.float64)
        _check_times(t, self.t_start, self.t_end, "event", "(t_start, t_end]")
        k = np.asarray(self.targets, dtype=np.int64)
        if t.size != k.size:
            raise ValueError("times/targets lengths differ")
        if t.size and not np.all((2 <= k) & (k <= self.N)):
            raise ValueError("targets must satisfy 2 <= target <= N")
        t = t.view()
        t.flags.writeable = False
        self.times, self.targets = t, k

    @property
    def n_events(self) -> int:
        return int(self.times.size)


def simulate_events(
    N: int, window: tuple[float, float], stream: RngStream
) -> EventLog:
    """Simulate the full event stream of the N-level system on (a, b].

    Total rate is C(N,2); each event's target is decoded from a single
    uniform pair code in [0, C(N,2)) (see :func:`decode_target`).
    An empty window (a == b) yields an empty log; a > b is a parameter error.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    a, b = float(window[0]), float(window[1])
    times = sample_poisson_times(stream, float(pair_count(N)), (a, b))
    codes = stream.generator.integers(0, pair_count(N), size=times.size)
    return EventLog(N=N, t_start=a, t_end=b, times=times, targets=decode_target(codes))


# ---------------------------------------------------------------------------
# Finite-N state
# ---------------------------------------------------------------------------

def _assign_levels(N: int, targets, times, rest=()) -> np.ndarray:
    """Births of levels 2..N from (target, time) pairs, walked last to first.

    The backward level assignment shared by both backward constructions:
    each pair's time goes to the (target-1)-th smallest level among 2..N
    that no later pair has filled. The levels left unfilled take the
    values of `rest`, in level order.
    """
    births = [0.0] * (N - 1)
    unresolved = list(range(N - 1))  # levels 2..N, 0-based
    for k, t in zip(targets[::-1].tolist(), times[::-1].tolist()):
        births[unresolved.pop(k - 2)] = t
    for level, birth in zip(unresolved, rest):
        births[level] = birth
    return np.array(births)


def _merger_depths(
    gen: np.random.Generator, rows: int, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Merger depths of `rows` independent n-coalescents, one per row.

    The package's one coalescent-depth draw: row r holds the cumulative
    sums of Exp(1) / C(m,2) for m = n, n-1, ..., 2. Each Exp(1) is -ln(U)
    for U = 1 - random() in (0, 1], computed in place and divided by
    -C(m,2) = m (1 - m) / 2, formed in doubles; every step is exact while
    m (m - 1) < 2^53, so the divisor is the exact integer -C(m,2). `out`,
    a C-contiguous (rows, n - 1) float64 array, receives the depths in
    place of a new array; the draws are the same either way.
    """
    depths = gen.random((rows, n - 1), out=out)
    np.subtract(1.0, depths, out=depths)
    np.log(depths, out=depths)
    m = np.arange(n, 1, -1.0)
    np.divide(depths, m * (1.0 - m) * 0.5, out=depths)
    return np.cumsum(depths, axis=1, out=depths)


def stationary_births(N: int, t0: float, stream: RngStream) -> np.ndarray:
    """Stationary per-level birth times at t0, as an array for levels 2..N.

    Built backward from t0. Tracing the current lines backward, their
    ancestral trajectories always occupy the bottom block of levels
    {1, ..., m}; with m of them left the next merger lies Exp(C(m,2)) deeper
    (the depths come from :func:`_merger_depths`) and its ordered pair is
    uniform over the C(m,2) pairs inside the block.
    The trajectory at block level `target` is the one born there, so the
    merger resolves the birth time of the (target-1)-th smallest unresolved
    current level. The resulting tree length reproduces the static length
    law sum_k k Exp(C(k,2)) exactly.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    depths = _merger_depths(stream.generator, 1, N)[0]
    pairs = pair_count(np.arange(N, 1, -1))
    targets = decode_target(stream.generator.integers(0, pairs))
    # The deepest merger comes first in time.
    return _assign_levels(N, targets[::-1], (t0 - depths)[::-1])


def sample_stationary_state(N: int, t0: float, stream: RngStream) -> np.ndarray:
    """Stub kept for the benchmark's tracer, which looks this name up; no
    program path calls it. Returns :func:`stationary_births`."""
    return stationary_births(N, t0, stream)


def _block_shrinking_events(targets: np.ndarray, stop: int, N: int) -> np.ndarray:
    """Indices, last to first, of the events before `stop` that shrink the block.

    Scanning backward from index stop - 1, starting with the bottom block
    of levels {1, ..., N}, an event with target k at most the block size
    shrinks the block by one; the others are inert. The scan ends when the
    block reaches 1 or the log runs out.

    Cost: an inert event stays inert as the block shrinks, so each pass
    keeps, with one numpy filter, the events before `stop` whose target is
    at most the block, and Python walks the last 4 * block + 64 of them
    until the block has shrunk to a quarter (or to 1); if they run out
    first, the next pass filters again from there. The first pass needs no
    filter: every target is at most N. Under the pair law about 3B
    candidates are walked while the block shrinks from B to B/4, so a
    scan costs O(N) Python steps and O(log N) numpy passes over the log,
    not one Python step per event.
    """
    hits: list[int] = []
    block = N
    while block > 1 and stop > 0:
        floor = max(block // 4, 1)
        width = 4 * block + 64
        if block == N:
            tail = np.arange(stop - 1, max(stop - width, 0) - 1, -1)
        else:
            candidates = (targets[:stop] <= block).nonzero()[0]
            tail = candidates[-width:][::-1]
        stop = int(tail[-1]) if tail.size else 0
        for idx, k in zip(tail.tolist(), targets[tail].tolist()):
            if k <= block:
                hits.append(idx)
                block -= 1
                if block == floor:
                    stop = idx
                    break
    return np.array(hits, dtype=np.int64)


def resolve_final_state(log: EventLog, initial_births) -> np.ndarray:
    """Births of levels 2..N at log.t_end, computed backward from the log.

    Dual route to the forward replay in :func:`~kingman.treelength.build_path`.
    Scanning events last-to-first, the final lines' ancestral trajectories
    occupy the bottom block of levels {1, ..., K}; an event with target
    k <= K is the birth of the final line whose trajectory sits at block
    level k (the (k-1)-th smallest unresolved final level), and shrinks the
    block. Final levels still unresolved at the window start sat at their
    block levels then, so they inherit the initial births of levels 2..K in
    order. Matches forward replay exactly, float for float: it only copies
    times.

    Cost: the inert events are skipped by :func:`_block_shrinking_events`
    (O(N) Python steps and O(log N) numpy passes over the log); each of
    the at most N - 1 shrinking events then fills one level through
    :func:`_assign_levels`, the assignment :func:`stationary_births` uses.
    """
    initial = _check_start(initial_births, log)
    hits = _block_shrinking_events(log.targets, log.n_events, log.N)[::-1]
    return _assign_levels(log.N, log.targets[hits], log.times[hits], initial.tolist())


# ---------------------------------------------------------------------------
# Infinite-level line sampling
# ---------------------------------------------------------------------------

def truncation_level_for(birth_level: int, tol: float) -> int:
    """Smallest level J >= birth_level with tail mean 2/(J-1) <= tol."""
    if birth_level < 2:
        raise ValueError("birth_level must be at least 2")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    return max(birth_level, 1 + math.ceil(2.0 / tol))


# Doubles per chunk of life-length stage draws or cumulant terms.
_LIFE_CHUNK = 2**16


def sample_lifelengths(
    level: int, count: int, stream: RngStream, truncation_level: int
) -> np.ndarray:
    """`count` i.i.d. total life lengths of lines born at `level`.

    The one sampler of the infinite-level life law. A line sojourns
    Exp(C(j,2)) at each level j >= level; the sum is truncated at level
    J = `truncation_level` and the deterministic tail mean 2/(J-1) is added
    back, so E[T] = 2/(level - 1) exactly for every J while the discarded
    tail variance is below (4/3) J^-3. J == level gives the exact mean.
    Draws in row chunks of about 2^16 doubles whatever the truncation. The
    rows per chunk are a multiple of 4 and a 1-row tail joins the chunk
    before it, so each chunk's matrix-vector product rounds every row as
    one product over all rows would (a lone row would go to a dot product
    instead).
    """
    if level < 2:
        raise ValueError("level must be at least 2")
    if truncation_level < level:
        raise ValueError("truncation_level must be at least level")
    J = truncation_level
    tail = 2.0 / (J - 1)
    if count == 0:
        return np.empty(0)
    if J == level:
        return np.full(count, tail)
    width = J - level
    j = np.arange(level, J, dtype=np.float64)
    inv_rates = 2.0 / (j * (j - 1.0))
    out = np.empty(count)
    rows = max(4, _LIFE_CHUNK // width // 4 * 4)
    # One buffer refilled per chunk. A fresh array per chunk is paged in
    # anew each time: 50 poisson-deaths replicates took 257k minor page
    # faults that way, against 540 with the buffer.
    buffer = np.empty((min(count, rows + 1), width))
    lo = 0
    while lo < count:
        hi = min(count, lo + rows)
        hi += count - hi == 1  # a 1-row tail joins this chunk
        draws = stream.generator.standard_exponential(out=buffer[:hi - lo])
        np.matmul(draws, inv_rates, out=out[lo:hi])
        lo = hi
    out += tail
    return out


# Levels from which the divergence experiment draws each life as one Gamma
# matched to the life's mean and variance. The Gamma's skewness undershoots
# the exact one by about 0.93/sqrt(level); at 256 the gap is 0.058 (0.072
# against 0.130), under the bound 0.06 this level is chosen by. There,
# two-sample KS/AD of 10^5 lives per side against exact stages read
# p = 0.04-0.43; at level 32 (gap 0.166) they read p < 1e-5, and at 10^4
# per side KS fell below 0.01 for 2 of 8 seeds. Levels below 256 draw
# their stages up to 256 exactly.
GAMMA_TAIL_LEVEL = 256

# psi'(k) - psi'(64) = sum_{j=k}^{63} 1/j^2 for k = 1..64, summed small end first.
_TRIGAMMA_ANCHOR = 64
_INV_SQUARES_BELOW_ANCHOR = np.append(
    np.cumsum(1.0 / np.arange(_TRIGAMMA_ANCHOR - 1.0, 0.0, -1.0) ** 2)[::-1], 0.0
)


def _trigamma(k):
    """psi'(k) = sum_{j>=k} 1/j^2 at integers k >= 1 (scalar or array).

    From k = 64 up, the asymptotic series 1/x + 1/(2x^2) + 1/(6x^3)
    - 1/(30x^5) + 1/(42x^7) - 1/(30x^9) is exact in double precision (the
    first dropped term is below 1e-19 relative). Below 64 the recurrence
    psi'(k) = psi'(k+1) + 1/k^2 runs down a cumulative table from that
    anchor and lands on psi'(1) = pi^2/6. Running it upward from pi^2/6
    instead leaves an absolute error near 1e-16, which the cancellation in
    :func:`life_moments`' variance amplifies: v_4096 came out 0.4% off.
    """
    k = np.asarray(k, dtype=np.int64)
    if np.any(k < 1):
        raise ValueError("trigamma needs integers k >= 1")
    x = np.maximum(k, _TRIGAMMA_ANCHOR).astype(np.float64)
    y = 1.0 / (x * x)
    series = 1.0 / x + 0.5 * y + (y / x) * (
        1.0 / 6.0 - y * (1.0 / 30.0 - y * (1.0 / 42.0 - y / 30.0))
    )
    return series + _INV_SQUARES_BELOW_ANCHOR[np.minimum(k, _TRIGAMMA_ANCHOR) - 1]


def life_moments(level):
    """Mean and variance of T_k, the total life of a line born at level k.

    T_k sums independent Exp(C(j,2)) sojourns over j >= k, so its mean is
    m_k = 2/(k-1) and, by partial fractions, its variance is
    v_k = sum_{j>=k} 4/(j(j-1))^2 = 4[psi'(k-1) + psi'(k)] - 8/(k-1).
    `level` is one level or an array of levels.
    """
    k = np.asarray(level, dtype=np.int64)
    if np.any(k < 2):
        raise ValueError("level must be at least 2")
    inv = 1.0 / (k - 1.0)
    return 2.0 * inv, 4.0 * (_trigamma(k - 1) + _trigamma(k)) - 8.0 * inv


def life_skewness(level: int) -> float:
    """Skewness of T_level from its exact cumulants.

    The sojourn Exp(C(j,2)) has third cumulant 2 r^3 with r = 2/(j(j-1));
    the sum runs to level 1000 * level, past which its tail is below
    1e-15 relative, in chunks of 2^16 terms. The variance comes from
    :func:`life_moments`.
    """
    cubes = 0.0
    end = 1000 * level
    for lo in range(level, end, _LIFE_CHUNK):
        r = np.arange(lo, min(end, lo + _LIFE_CHUNK), dtype=np.float64)
        r *= r - 1.0
        np.divide(2.0, r, out=r)
        cubes += float(np.sum(r**3))
    _, var = life_moments(level)
    return 2.0 * cubes / var**1.5


@functools.lru_cache(maxsize=None)
def _gamma_table(top: int) -> tuple[list[float], list[float]]:
    """Shapes m^2/v and scales m/shape of the Gamma laws with T_k's mean and
    variance, k = 2..top, as lists indexed by k - 2.

    One :func:`life_moments` call on the array of levels gives the same
    doubles as one call per level. Cached: every divergence replicate asks
    for the same levels again, and callers key it on a power of two.
    """
    mean, var = life_moments(np.arange(2, top + 1))
    shape = mean * mean / var
    return shape.tolist(), (mean / shape).tolist()


def sample_lifelengths_gamma_tail(
    level: int, count: int, stream: RngStream, gamma_level: int
) -> np.ndarray:
    """`count` lives of lines born at `level`, the deep stages as one Gamma.

    With J = max(level, gamma_level), the life is the exact stages
    level..J-1 from :func:`sample_lifelengths` plus T_J drawn as one Gamma
    with T_J's mean and variance (the Gamma draws come first). Mean and
    variance are exact at every level, hence so is E[T^2]; only the third
    and higher cumulants of T_J are approximated (see
    :data:`GAMMA_TAIL_LEVEL`).
    """
    J = max(level, gamma_level)
    if J < 2:
        raise ValueError("level must be at least 2")
    shapes, scales = _gamma_table(1 << (J - 1).bit_length())
    tail = stream.generator.standard_gamma(shapes[J - 2], count) * scales[J - 2]
    if J == level:
        return tail
    return sample_lifelengths(level, count, stream, J) - 2.0 / (J - 1) + tail


def default_burn_in(level: int) -> float:
    """Burn-in long enough that a line born before it is dead at the window.

    From the Chernoff bound P(T_level > B) <= exp(level - C(level,2) B / 2),
    taking B = 2 (level + 40) / C(level,2) gives miss probability <= e^-40.
    The result is capped at 50, which binds only at level 2 (uncapped 84):
    there the miss bound is exp(2 - 50/2) = e^-23, not e^-40.
    """
    if level < 2:
        raise ValueError("level must be at least 2")
    bound = 2.0 * (level + 40.0) / (level * (level - 1.0) / 2.0)
    return min(50.0, bound)


@dataclass(frozen=True)
class PointProcessSample:
    """Deaths of one level's lines inside a window.

    death_times is sorted and lies in (window[0], window[1]]. Lines are
    born on (window[0] - burn_in, window[1]] at Poisson rate (level - 1),
    with burn_in from :func:`default_burn_in`, and die a life length later,
    so every death in the window is captured up to that burn-in's miss
    probability.
    """

    level: int
    window: tuple[float, float]
    death_times: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.death_times, dtype=np.float64)
        s, e = self.window
        if d.size:
            # Sorted (a NaN fails a comparison), so the ends bound the rest.
            if not np.all(d[1:] >= d[:-1]):
                raise ValueError("death times must be sorted")
            if not (d[0] > s and d[-1] <= e):
                raise ValueError("death times must lie in the window")
        object.__setattr__(self, "death_times", d)

    @property
    def count(self) -> int:
        return int(self.death_times.size)


def sample_infinite_deaths(
    level: int,
    window: tuple[float, float],
    stream: RngStream,
    tol: float,
) -> PointProcessSample:
    """Sample one level's death point process on a window.

    Births arrive at Poisson rate (level - 1) on (s - burn_in, t], with
    burn_in = :func:`default_burn_in` for the level; each birth gets an
    independent life length from :func:`sample_lifelengths`, truncated at
    J = truncation_level_for(level, tol); deaths falling in (s, t] are
    kept, ordered.
    """
    if level < 2:
        raise ValueError("level must be at least 2")
    s, t = float(window[0]), float(window[1])
    if s > t:
        raise ValueError("window start exceeds end")
    J = truncation_level_for(level, tol)
    start = s - default_burn_in(level)
    # The birth times, turned into death times in place; the lives are let go.
    deaths = sample_poisson_times(stream, float(level - 1), (start, t))
    deaths += sample_lifelengths(level, deaths.size, stream, J)
    deaths = deaths[(deaths > s) & (deaths <= t)]
    deaths.sort()
    return PointProcessSample(level=level, window=(s, t), death_times=deaths)
