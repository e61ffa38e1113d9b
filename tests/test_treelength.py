"""Length-path tests: exact drift, jump anatomy, and the backward oracle."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kingman.lookdown import (
    EventLog,
    SequencingError,
    _assign_levels,
    decode_target,
    resolve_final_state,
    simulate_events,
    stationary_births,
)
from kingman.rng import make_stream
from kingman.stats import ks_test_two_sample
from kingman.treelength import (
    InsufficientHistoryError,
    TreeLengthPath,
    _CHUNK_DOUBLES,
    _subsample_merger_depths,
    build_path,
    reconstruct_length_backward,
    sample_static_kingman_length,
    sample_stationary_length_increments,
    stationary_path,
    tree_length,
)

MEAN_LEN_11 = 5.8579365079365076


def test_tree_length_hand_value():
    # Ages 0.5 and 0.8, plus the root stem back to the oldest birth 0.2.
    assert tree_length((0.5, 0.2), 1.0) == pytest.approx(2.1, abs=1e-12)
    assert tree_length(np.array([0.5, 0.2]), 1.0) == tree_length([0.5, 0.2], 1.0)
    assert tree_length([4.0] * 8, 4.0) == 0.0


@pytest.mark.parametrize("n", [2, 3, 100, 1000])
def test_tree_length_reads_arrays_and_lists_alike(n):
    # The same doubles as fsum and min over the array's numpy scalars.
    births = stationary_births(n, 0.0, make_stream(17, n))
    t = 0.75
    scalar_route = len(births) * t - math.fsum(births) + (t - min(births))
    from_array = tree_length(births, t)
    from_list = tree_length(births.tolist(), t)
    assert type(from_array) is float and type(from_list) is float
    assert from_array.hex() == from_list.hex() == float(scalar_route).hex()


def test_path_matches_replayed_state_everywhere():
    # At each query time t, resolve the births at t backward from the log's
    # events up to t and compute the length from them directly.
    stream = make_stream(53, 0)
    log = simulate_events(7, (0.0, 3.0), stream)
    start = np.zeros(6)
    path = build_path(start, log)
    assert path.n_jumps == log.n_events
    assert np.array_equal(path.jump_times, log.times)
    times = make_stream(53, 1).generator.uniform(0.0, 3.0, size=50)
    for t in times:
        upto = log.times <= t
        head = EventLog(7, 0.0, float(t), log.times[upto], log.targets[upto])
        births = resolve_final_state(head, start)
        direct = 6 * t - births.sum() + (t - births.min())
        assert path.eval(t) == pytest.approx(direct, rel=1e-11, abs=1e-11)


def test_two_line_jump_law():
    # With N=2 the exiting line is always the oldest, so every jump is
    # root-corrected with magnitude twice the exit age.
    stream = make_stream(53, 2)
    log = simulate_events(2, (0.0, 5.0), stream)
    assert log.n_events > 0
    path = build_path([0.0], log)
    assert bool(path.root_flags.all())
    # The exit age and the stem shortening are both the last inter-event gap.
    gaps = np.diff(np.concatenate([[0.0], log.times]))
    assert path.jump_sizes == pytest.approx(2.0 * gaps)


def test_drift_between_jumps_is_exactly_n():
    stream = make_stream(53, 3)
    log = simulate_events(6, (0.0, 2.0), stream)
    path = build_path(np.zeros(5), log)
    taus = path.jump_times
    widest = int(np.argmax(np.diff(taus)))
    a, b = taus[widest], taus[widest + 1]
    t1, t2 = a + 0.25 * (b - a), a + 0.75 * (b - a)
    assert path.eval(t2) - path.eval(t1) == pytest.approx(6 * (t2 - t1), abs=1e-10)


def test_root_correction_anatomy():
    start = [0.5, 0.2]
    empty = EventLog(3, 0.5, 1.0, np.empty(0), np.empty(0, np.int64))
    path = build_path(start, empty)
    assert path.v0 == pytest.approx(0.6, abs=1e-12)
    # Oldest line (birth 0.2 at level 3) exits: age 0.8, stem shortens 0.3.
    log = EventLog(3, 0.5, 1.2, np.array([1.0]), np.array([2]))
    path2 = build_path(start, log)
    assert path2.jump_times.tolist() == [1.0]
    assert path2.jump_sizes[0] == pytest.approx(0.8 + 0.3)
    assert path2.root_flags.tolist() == [True]
    assert path2.eval(1.0) == pytest.approx(1.0, abs=1e-12)
    assert path2.eval(0.999999) == pytest.approx(2.1, abs=1e-4)


def test_compensation_shifts_by_constant():
    stream = make_stream(53, 4)
    log = simulate_events(7, (0.0, 2.0), stream)
    start = np.zeros(6)
    plain = build_path(start, log)
    comp = build_path(start, log, compensated=True)
    shift = 2.0 * math.log(7)
    for t in (0.0, 0.7, 2.0):
        assert plain.eval(t) - comp.eval(t) == pytest.approx(shift, rel=1e-12)


def test_build_path_validates_alignment():
    # The start must hold a birth for each of levels 2..N of the log. An
    # array carries no time of its own, so births all before the log's
    # start are a valid start whose lines are already aged.
    log = simulate_events(5, (0.0, 1.0), make_stream(53, 5))
    with pytest.raises(ValueError, match="need 4 birth times"):
        build_path(np.zeros(5), log)
    aged = build_path(np.full(4, -1.0), log)
    assert aged.v0 == 5.0  # four lines aged 1 and a root stem of 1


def test_eval_domain_and_vectorization():
    path = TreeLengthPath(
        t0=0.0,
        t1=2.0,
        v0=1.0,
        slope=3.0,
        jump_times=np.array([1.0]),
        jump_sizes=np.array([0.5]),
        root_flags=np.array([False]),
    )
    vals = path.eval(np.array([0.0, 1.0, 2.0]))
    assert vals == pytest.approx([1.0, 3.5, 6.5])
    assert path.final_value == pytest.approx(6.5)
    with pytest.raises(ValueError):
        path.eval(-0.1)
    with pytest.raises(ValueError):
        path.eval(np.array([0.5, 2.1]))


def test_path_validation_messages():
    one = np.array([0.5])
    fields = dict(t0=0.0, t1=1.0, v0=0.0, slope=2.0, jump_sizes=one,
                  root_flags=np.array([False]))
    with pytest.raises(ValueError, match="must align"):
        TreeLengthPath(**{**fields, "jump_times": np.array([0.2, 0.4])})
    with pytest.raises(ValueError, match="t0 exceeds t1"):
        TreeLengthPath(**{**fields, "t0": 2.0, "jump_times": one})
    two = dict(fields, jump_sizes=np.ones(2), root_flags=np.zeros(2, dtype=bool))
    for times in ([0.4, 0.4], [0.6, 0.3]):
        with pytest.raises(ValueError, match="strictly increasing"):
            TreeLengthPath(**{**two, "jump_times": np.array(times)})
    for times in ([0.0, 0.5], [0.5, 1.5]):
        with pytest.raises(ValueError, match=r"must lie in \(t0, t1\]"):
            TreeLengthPath(**{**two, "jump_times": np.array(times)})
    TreeLengthPath(**{**two, "jump_times": np.array([0.5, 1.0])})


@pytest.mark.parametrize("times,problem", [
    ([0.4, 0.4], "must be strictly increasing"),
    ([0.6, 0.3], "must be strictly increasing"),
    ([0.5, math.nan], "must be strictly increasing"),
    ([0.0, 0.5], "must lie in"),
    ([0.5, 1.5], "must lie in"),
    ([math.nan], "must lie in"),
])
def test_log_and_path_share_one_time_check(times, problem):
    t = np.array(times)
    with pytest.raises(SequencingError, match=r"event times " + problem):
        EventLog(3, 0.0, 1.0, t, np.full(t.size, 2))
    with pytest.raises(SequencingError, match=r"jump times " + problem):
        TreeLengthPath(t0=0.0, t1=1.0, v0=0.0, slope=3.0, jump_times=t,
                       jump_sizes=np.ones(t.size), root_flags=np.zeros(t.size, bool))


def test_replayed_path_shares_the_logs_read_only_times():
    log = simulate_events(200, (0.0, 5.0), make_stream(1, 7))
    assert log.n_events > 90_000
    path = build_path(np.zeros(199), log)
    assert np.shares_memory(path.jump_times, log.times)
    with pytest.raises(ValueError, match="read-only"):
        log.times[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        path.jump_times[-1] = 5.0
    # The log holds a read-only view: the caller's own array stays writable.
    times = np.array([0.5, 1.0])
    EventLog(3, 0.0, 1.0, times, np.array([2, 3]))
    times[0] = 0.25


def _stored_cumsum_eval(path, t):
    """The path value as computed from stored cumulative jump sizes."""
    cum = np.concatenate([[0.0], np.cumsum(path.jump_sizes)])
    arr = np.asarray(t, dtype=np.float64)
    idx = np.searchsorted(path.jump_times, arr, side="right")
    return path.v0 + path.slope * (arr - path.t0) - cum[idx]


@pytest.mark.parametrize("n, window, compensated", [
    (7, (0.0, 3.0), False), (50, (2.0, 3.5), True), (200, (0.0, 0.5), True),
])
def test_eval_matches_stored_cumsum_bit_for_bit(n, window, compensated):
    stream = make_stream(61, n)
    start = stationary_births(n, window[0], stream)
    path = build_path(start, simulate_events(n, window, stream), compensated)
    times = path.jump_times
    mids = 0.5 * (np.concatenate(([path.t0], times[:-1])) + times)
    for query in (times, mids, np.array([path.t0, path.t1])):
        got = path.eval(query)
        want = _stored_cumsum_eval(path, query)
        assert got.tobytes() == want.tobytes()
    for t in (times[0], mids[len(mids) // 2], times[-1], path.t1):
        assert path.eval(float(t)) == float(_stored_cumsum_eval(path, float(t)))
    assert path.final_value == float(_stored_cumsum_eval(path, path.t1))


@pytest.mark.parametrize("n, window, seed", [(30, (0.0, 5.0), 7), (200, (0.0, 1.0), 1)])
def test_stationary_path_is_the_explicit_route(n, window, seed):
    # The stationary start first, then the window's events, then the
    # compensated replay: the same doubles, and each stream left at the
    # same place.
    ours, theirs = make_stream(seed, 0), make_stream(seed, 0)
    path = stationary_path(n, window, ours)
    start = stationary_births(n, window[0], theirs)
    want = build_path(start, simulate_events(n, window, theirs), compensated=True)
    assert path.v0 == want.v0 and path.n_jumps == want.n_jumps > 0
    for name in ("jump_times", "jump_sizes", "root_flags"):
        assert getattr(path, name).tobytes() == getattr(want, name).tobytes()
    assert ours.generator.random() == theirs.generator.random()


def test_backward_reconstruction_matches_path():
    # Replay from far before the query window so the root is always inside
    # the log, then compare the two independent computations of l(t).
    stream = make_stream(59, 0)
    log = simulate_events(50, (-40.0, 2.0), stream)
    path = build_path(np.full(49, -40.0), log)
    ts = make_stream(59, 1).generator.uniform(0.0, 2.0, size=50)
    for t in ts:
        want = reconstruct_length_backward(log, float(t))
        assert abs(path.eval(float(t)) - want) <= 1e-9 * want


def test_backward_reconstruction_needs_enough_history():
    stream = make_stream(59, 2)
    log = simulate_events(50, (0.0, 0.01), stream)
    with pytest.raises(InsufficientHistoryError):
        reconstruct_length_backward(log, 0.01)
    with pytest.raises(ValueError):
        reconstruct_length_backward(log, 0.02)


# ---------------------------------------------------------------------------
# Both backward scans against literal per-event walks
# ---------------------------------------------------------------------------

def _literal_resolve(log, initial):
    """Event-by-event backward resolution; also returns the final block."""
    births = np.empty(log.N - 1)
    unresolved = list(range(2, log.N + 1))
    block = log.N
    for idx in range(log.n_events - 1, -1, -1):
        k = int(log.targets[idx])
        if k > block:
            continue
        births[unresolved.pop(k - 2) - 2] = log.times[idx]
        block -= 1
        if block == 1:
            break
    for pos, level in enumerate(unresolved):
        births[level - 2] = initial[pos]
    return births, block


def _literal_reconstruct(log, t):
    """Event-by-event lineage integral; None when the root is not reached."""
    lineages = log.N
    total = 0.0
    clock = t
    for idx in range(int(np.searchsorted(log.times, t, side="right")) - 1, -1, -1):
        total += lineages * (clock - float(log.times[idx]))
        clock = float(log.times[idx])
        if int(log.targets[idx]) <= lineages:
            lineages -= 1
            if lineages == 1:
                return total
    return None


def _assert_scans_match_literal(log, queries, initial):
    """Compare both scans with the literal walks; return how many queries
    reached the root."""
    want, _ = _literal_resolve(log, initial)
    assert np.array_equal(resolve_final_state(log, initial), want)
    reached = 0
    for t in queries:
        want = _literal_reconstruct(log, float(t))
        if want is None:
            with pytest.raises(InsufficientHistoryError):
                reconstruct_length_backward(log, float(t))
        else:
            assert reconstruct_length_backward(log, float(t)) == want
            reached += 1
    return reached


def _uniform_target_log(N, n_events, stream):
    """A log whose targets are uniform on 2..N, so the block reaches 1 after
    about N ln N events rather than the pair law's N^2."""
    times = np.unique(stream.generator.uniform(0.0, 1.0, n_events))
    times = times[times > 0.0]
    targets = stream.generator.integers(2, N + 1, times.size)
    return EventLog(N, 0.0, 1.0, times, targets)


@pytest.mark.parametrize("N", [2, 3, 10, 100, 1000])
def test_backward_scans_match_literal_walks(N):
    stream = make_stream(61, N)
    log = _uniform_target_log(N, int(6 * N * (1 + math.log(N))), stream)
    initial = -stream.generator.random(N - 1)
    queries = np.concatenate((
        [log.t_start, log.t_end], log.times[:: max(1, log.n_events // 15)],
        stream.generator.uniform(0.0, 1.0, 15),
    ))
    assert _literal_resolve(log, initial)[1] == 1
    assert 0 < _assert_scans_match_literal(log, queries, initial) < len(queries)
    # The log ends in 4N + 65 events of target N, all inert after the last:
    # the first pass walks out its 4N + 64 candidates and filters again.
    run = 4 * N + 65
    ending = _uniform_target_log(N, int(6 * N * (1 + math.log(N))) + run, stream)
    ending.targets[-run:] = N
    assert _literal_resolve(ending, initial)[1] == 1
    _assert_scans_match_literal(ending, [ending.t_end, ending.times[-run]], initial)
    # An empty log and one of N - 2 events: neither brings the block to 1.
    for head in (slice(0, 0), slice(0, N - 2)):
        short = EventLog(N, 0.0, 1.0, log.times[head], log.targets[head])
        assert _literal_resolve(short, initial)[1] > 1
        assert _assert_scans_match_literal(short, queries, initial) == 0
    # Pair-law logs, from a few events up to past the root.
    if N <= 100:
        for span in (0.3 / (N * N), 0.05, 1.0, 6.0):
            log = simulate_events(N, (0.0, span), stream)
            ts = stream.generator.uniform(0.0, span, 10)
            _assert_scans_match_literal(log, np.append(ts, span), initial)


def test_static_length_sampler_moments():
    stream = make_stream(59, 3)
    draws = sample_static_kingman_length(11, stream, size=20_000)
    assert sample_static_kingman_length(11, stream, size=1).shape == (1,)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - MEAN_LEN_11) < 3.5 * se
    with pytest.raises(ValueError):
        sample_static_kingman_length(1, stream, size=1)


@pytest.mark.parametrize("n", [2, 3, 100, 10_000])
def test_static_length_matches_literal_stage_sum(n, assert_same_law):
    # The one-uniform inversion against the literal sum of k Exp(C(k,2))
    # over k = 2..n, built in row blocks to bound memory at n = 10^4.
    reps = 10_000
    sampled = sample_static_kingman_length(n, make_stream(61, n), size=reps)
    gen = make_stream(62, n).generator
    k = np.arange(2, n + 1, dtype=np.float64)
    weights = k * 2.0 / (k * (k - 1.0))
    block = max(1, 2_000_000 // (n - 1))
    literal = np.concatenate([
        gen.standard_exponential((min(block, reps - lo), n - 1)) @ weights
        for lo in range(0, reps, block)
    ])
    assert_same_law(sampled, literal)


def test_static_length_edge_uniforms_give_finite_lengths():
    class EdgeGenerator:
        def random(self, size):
            return np.array([0.0, np.nextafter(1.0, 0.0), 0.5])[:size]

    class EdgeStream:
        generator = EdgeGenerator()

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (2, 11, 10_000):
            out = sample_static_kingman_length(n, EdgeStream(), size=3)
            assert np.all(np.isfinite(out))
            assert out[0] == 0.0
            # U = 1/2 is the median: twice the median of a max of n-1 Exp(1)
            assert out[2] == pytest.approx(-2.0 * math.log(1.0 - 0.5 ** (1.0 / (n - 1))))
        assert sample_static_kingman_length(5, EdgeStream(), size=1).tolist() == [0.0]


def test_evolved_stationary_length_keeps_static_law():
    # Start in equilibrium, evolve three time units, read the length off the
    # path; its law should match fresh static-tree draws.
    stream_a = make_stream(59, 4)
    stream_b = make_stream(59, 5)
    reps = 1500
    evolved = np.empty(reps)
    for r in range(reps):
        start = stationary_births(12, 0.0, stream_a)
        log = simulate_events(12, (0.0, 3.0), stream_a)
        evolved[r] = build_path(start, log).final_value
    static = sample_static_kingman_length(12, stream_b, size=reps)
    assert ks_test_two_sample(evolved, static).p_value > 1e-3


def _brute_force_increments(n, eps, reps, stream):
    out = np.empty(reps)
    for r in range(reps):
        births = stationary_births(n, 0.0, stream)
        log = simulate_events(n, (0.0, eps), stream)
        final = resolve_final_state(log, births)
        # l(eps) - l(0) with the births differenced first, so a window that
        # resolves no final line gives exactly n * eps, as the sampler does:
        # an atom split by rounding would dominate the KS distance at n=2.
        out[r] = (n * eps - (final.min() - births.min())
                  - (final.sum() - births.sum()))
    return out


@pytest.mark.parametrize(
    "n,eps", [(2, 0.8), (5, 0.8), (12, 0.3), (40, 0.05), (200, 0.05)]
)
def test_stationary_increments_match_forward_replay(n, eps):
    # The level-free increment sampler must agree in law with the literal
    # route: stationary start, full event log, replay, subtract.
    fast = sample_stationary_length_increments(n, eps, 3000, make_stream(61, 1))
    slow = _brute_force_increments(n, eps, 3000, make_stream(61, 2))
    assert ks_test_two_sample(fast, slow).p_value > 1e-3
    # stationarity: the increment mean is zero
    se = fast.std(ddof=1) / math.sqrt(fast.size)
    assert abs(fast.mean()) < 4.0 * se


def test_stationary_increments_validation():
    stream = make_stream(61, 3)
    with pytest.raises(ValueError):
        sample_stationary_length_increments(1, 0.1, 5, stream)
    with pytest.raises(ValueError):
        sample_stationary_length_increments(5, 0.0, 5, stream)
    with pytest.raises(ValueError):
        sample_stationary_length_increments(5, 0.1, 0, stream)


def _literal_lower_steps(n, k, reps, stream):
    # Run the stationary construction's level assignment on step numbers in
    # place of times and read off the steps that landed on levels 2..k. The
    # steps run backward in time, so the pairs are passed last step first.
    m = np.arange(n, 1, -1, dtype=np.int64)
    step_ids = np.arange(n - 2, -1, -1, dtype=np.float64)
    out = np.empty((reps, k - 1))
    for r in range(reps):
        targets = decode_target(stream.generator.integers(0, m * (m - 1) // 2))
        out[r] = np.sort(_assign_levels(n, targets[::-1], step_ids)[: k - 1])
    return out


def _subsample_steps(n, k, gen):
    # The subsample's merger depths with depth i replaced by step id i; the
    # depths of a tree increase with the step, so the ids keep their order.
    # The rows go in a flat buffer with the sampler's spare closing slot.
    buf = np.empty(k.size * (n - 1) + 1)
    buf[:-1].reshape(k.size, n - 1)[:] = np.arange(n - 1, dtype=np.float64)
    return _subsample_merger_depths(buf, k, gen)


@pytest.mark.parametrize("k", [2, 5, 12])
def test_subsample_merger_depths_match_literal_assignment(k):
    n, reps = 40, 3000
    fast = _subsample_steps(n, np.full(reps, k), make_stream(67, k).generator)
    fast = np.sort(fast.reshape(reps, k - 1), axis=1)
    slow = _literal_lower_steps(n, k, reps, make_stream(67, 100 + k))
    for i in range(k - 1):
        assert ks_test_two_sample(fast[:, i], slow[:, i]).p_value > 1e-3


def test_subsample_merger_depths_edges():
    gen = make_stream(67, 0).generator
    n = 9
    # K = n: every merger is the subsample's.
    every = _subsample_steps(n, np.full(3, n), gen).reshape(3, n - 1)
    assert np.sort(every, axis=1).tolist() == [list(range(n - 1))] * 3
    # K = 2: one merger each; K = 1: none.
    assert _subsample_steps(n, np.full(50, 2), gen).shape == (50,)
    assert _subsample_steps(n, np.ones(4, dtype=np.int64), gen).size == 0
    # Mixed K comes back grouped by row, K - 1 distinct steps per row.
    k = np.array([1, n, 2, 5, 1, 3, n - 1])
    groups = np.split(_subsample_steps(n, k, gen), np.cumsum(k - 1)[:-1])
    assert [g.size for g in groups] == (k - 1).tolist()
    assert sorted(groups[1]) == list(range(n - 1))
    for g in groups:
        assert np.unique(g).size == g.size and np.all((0 <= g) & (g < n - 1))


def test_stationary_increments_peak_memory_in_chunk_matrices():
    # Each chunk reduces its window lags to per-row values before it draws
    # the time-0 tree, and permutes that tree in its own buffer: about 1.7
    # chunk matrices at the peak, against about 4 when the dead lags and a
    # permuted copy of the tree stayed alive beside it.
    n, eps, reps = 1000, 0.01, 500
    matrix = (_CHUNK_DOUBLES // n) * (n - 1) * 8
    stream = make_stream(61, 5)
    tracemalloc.start()
    try:
        out = sample_stationary_length_increments(n, eps, reps, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (reps,)
    used = (peak - out.nbytes) / matrix
    assert used <= 2.0, f"{used:.2f} chunk matrices"


def test_stationary_increments_chunking():
    # A count that spans several row chunks and is not a multiple of the
    # chunk: the first chunk's draws do not depend on the count, and every
    # later slot is filled with its own draw.
    n, eps = 200, 0.05
    chunk = _CHUNK_DOUBLES // n
    reps = 4 * chunk + 13
    out = sample_stationary_length_increments(n, eps, reps, make_stream(61, 4))
    first = sample_stationary_length_increments(n, eps, chunk, make_stream(61, 4))
    assert out.shape == (reps,) and np.array_equal(out[:chunk], first)
    assert np.all(np.isfinite(out)) and np.unique(out).size == reps
    se = out.std(ddof=1) / math.sqrt(reps)
    assert abs(out.mean()) < 4.0 * se
