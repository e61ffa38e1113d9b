"""Engine tests: event decoding, log replay, line and death sampling.

Hand-worked replay examples on 3- and 4-level logs are frozen here; moment
checks use bands of at least three standard errors around exact
expectations, with seeds fixed so runs are deterministic.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kingman import _kernels
from kingman.lookdown import (
    EventLog,
    LookdownState,
    SequencingError,
    decode_pair,
    default_burn_in,
    pair_count,
    resolve_final_state,
    sample_infinite_deaths,
    sample_line_lifelength,
    sample_stationary_state,
    simulate_events,
    truncation_level_for,
    _lifelength_matrix,
)
from kingman.rng import make_stream
from kingman.stats import ks_test_two_sample
from kingman.treelength import build_path

VAR_LIFE_2 = 4.0 * (math.pi**2 / 3.0 - 3.0)  # variance of a level-2 life
MEAN_LEN_11 = 5.8579365079365076  # 2 * (1 + 1/2 + ... + 1/10)


# ---------------------------------------------------------------------------
# pairs and events
# ---------------------------------------------------------------------------

def test_pair_count():
    assert [pair_count(n) for n in (2, 3, 4, 10)] == [1, 3, 6, 45]


def test_decode_enumerates_pairs_in_order():
    want = [(i, k) for k in range(2, 7) for i in range(1, k)]
    i, k = decode_pair(np.arange(pair_count(6)))
    assert list(zip(i.tolist(), k.tolist())) == want


def test_decode_boundaries_large_target():
    # First and last codes of big targets, where sqrt rounding could slip.
    for target in (3, 10, 1000, 10**6):
        low = pair_count(target - 1)
        i, k = decode_pair(np.array([low, low + target - 2, low - 1]))
        assert (i[0], k[0]) == (1, target)
        assert (i[1], k[1]) == (target - 1, target)
        assert (i[2], k[2]) == (target - 2, target - 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=pair_count(4000) - 1))
def test_decode_inverts_triangular_code(code):
    i, k = decode_pair(np.array([code]))
    assert 1 <= i[0] < k[0] <= 4000
    assert pair_count(int(k[0])) - (k[0] - i[0]) == code


def test_event_rejects_bad_pairs():
    for source, target in ((2, 2), (0, 3), (5, 3), (1, 6)):
        with pytest.raises(ValueError):
            EventLog(5, 0.0, 1.0, np.array([0.5]), np.array([source]), np.array([target]))


def test_simulate_events_window_contents():
    stream = make_stream(7, 0)
    log = simulate_events(10, (2.0, 4.0), stream)
    assert log.n_events > 0
    assert np.all(log.times > 2.0) and np.all(log.times <= 4.0)
    assert np.all(np.diff(log.times) > 0.0)
    assert np.all((1 <= log.sources) & (log.sources < log.targets))
    assert np.all(log.targets <= 10)


def test_simulate_events_count_matches_total_rate():
    # N=10 rings at rate 45; a window of length 2 holds 90 events on average.
    stream = make_stream(11, 0)
    counts = [simulate_events(10, (0.0, 2.0), stream).n_events for _ in range(200)]
    se = math.sqrt(90.0 / 200)
    assert abs(np.mean(counts) - 90.0) < 3.5 * se


def test_simulate_events_empty_window_and_errors():
    stream = make_stream(3, 0)
    assert simulate_events(5, (1.0, 1.0), stream).n_events == 0
    with pytest.raises(ValueError):
        simulate_events(5, (2.0, 1.0), stream)
    with pytest.raises(ValueError):
        simulate_events(1, (0.0, 1.0), stream)


def test_eventlog_validation():
    t = np.array([0.5, 0.4])
    s = np.array([1, 1])
    k = np.array([2, 2])
    with pytest.raises(SequencingError):
        EventLog(3, 0.0, 1.0, t, s, k)
    with pytest.raises(ValueError):
        EventLog(3, 0.0, 0.3, np.array([0.5]), np.array([1]), np.array([2]))
    with pytest.raises(ValueError):
        EventLog(3, 0.0, 1.0, np.array([0.5]), np.array([1]), np.array([2, 3]))
    with pytest.raises(ValueError):
        EventLog(3, 0.0, 1.0, np.array([0.5]), np.array([3]), np.array([2]))


# ---------------------------------------------------------------------------
# log replay
# ---------------------------------------------------------------------------

def _log(N, start, end, times, targets):
    """A log whose events all beget from level 1."""
    targets = np.asarray(targets, dtype=np.int64)
    return EventLog(N, start, end, np.asarray(times, dtype=np.float64),
                    np.ones_like(targets), targets)


def _naive_replay(births, log):
    """Literal pop/insert replay: final births and per-event jump arrays."""
    births = [float(b) for b in births]
    ages, sizes, flags = [], [], []
    for t, k in zip(log.times.tolist(), log.targets.tolist()):
        old_min = min(births)
        exited = births.pop()
        births.insert(k - 2, t)
        ages.append(t - exited)
        flags.append(exited <= old_min)
        sizes.append(ages[-1] + (min(births) - old_min))
    return births, np.array(ages), np.array(sizes), np.array(flags, dtype=bool)


def test_step_low_target_shifts_and_exits():
    # Level 2 holds the oldest line (0.2). A birth at level 2 pushes it to
    # level 3 while the level-3 line (0.5) exits; the next event, at the top
    # level, then removes the pushed line, which is the root correction.
    state = LookdownState(3, 0.5, [0.2, 0.5])
    log = _log(3, 0.5, 2.0, [1.0, 1.5], [2, 3])
    path = build_path(state, log)
    assert path.exit_ages.tolist() == [1.0 - 0.5, 1.5 - 0.2]
    assert path.root_flags.tolist() == [False, True]
    assert path.jump_sizes.tolist() == [1.0 - 0.5, (1.5 - 0.2) + (1.0 - 0.2)]
    assert resolve_final_state(log, state.births).tolist() == [1.0, 1.5]
    # l(2) = 2 * 2 - (1.0 + 1.5) + (2 - 1.0)
    assert path.final_value == pytest.approx(2.5, abs=1e-12)


def test_step_top_target_replaces_exiting_line():
    state = LookdownState(3, 0.5, [0.5, 0.2])
    log = _log(3, 0.5, 1.0, [1.0], [3])
    path = build_path(state, log)
    assert path.exit_ages.tolist() == [1.0 - 0.2]
    assert path.root_flags.tolist() == [True]
    assert path.jump_sizes.tolist() == [(1.0 - 0.2) + (0.5 - 0.2)]
    assert resolve_final_state(log, state.births).tolist() == [0.5, 1.0]


def test_step_rejects_stale_time_and_big_target():
    state = LookdownState(3, 0.5, [0.5, 0.2])
    with pytest.raises(ValueError):
        _log(3, 0.5, 1.0, [0.5], [2])  # not after the window start
    with pytest.raises(ValueError):
        build_path(state, _log(3, 0.0, 1.0, [0.3], [2]))  # starts before state
    with pytest.raises(SequencingError):
        _log(3, 0.5, 1.0, [0.8, 0.7], [2, 2])
    with pytest.raises(ValueError):
        _log(3, 0.5, 1.0, [1.0], [4])


def test_replay_sequence_tracks_births_and_min():
    # Births run [0,0,0] -> [1,0,0] -> [1,0,2] -> [3,1,0]. The first two
    # exits remove a line tied with the oldest, so they are flagged as root
    # exits with a zero stem correction.
    log = _log(4, 0.0, 3.0, [1.0, 2.0, 3.0], [2, 4, 2])
    path = build_path(LookdownState.degenerate(4, 0.0), log)
    assert path.exit_ages.tolist() == [1.0, 2.0, 1.0]
    assert path.jump_sizes.tolist() == [1.0, 2.0, 1.0]
    assert path.root_flags.tolist() == [True, True, False]
    assert resolve_final_state(log, [0.0] * 3).tolist() == [3.0, 1.0, 0.0]
    # l(3) = 3 * 3 - (3 + 1 + 0) + (3 - 0)
    assert path.final_value == 8.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        LookdownState(3, 0.0, [0.0])
    with pytest.raises(ValueError):
        LookdownState(3, 0.0, [0.1, 0.0])
    with pytest.raises(ValueError):
        LookdownState(1, 0.0, [])
    state = LookdownState.degenerate(5, -2.0)
    assert state.min_birth == -2.0
    assert state.sum_births == -8.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.now = 0.0


def test_replay_matches_naive_reference():
    stream = make_stream(23, 1)
    log = simulate_events(8, (0.0, 4.0), stream)
    assert log.n_events > 60  # rate 28 over a span of 4
    path = build_path(LookdownState.degenerate(8, 0.0), log)
    births, ages, sizes, flags = _naive_replay([0.0] * 7, log)
    assert np.array_equal(path.exit_ages, ages)
    assert np.array_equal(path.jump_sizes, sizes)
    assert np.array_equal(path.root_flags, flags)
    assert 0 < flags.sum() < log.n_events
    end_length = 7 * 4.0 - math.fsum(births) + (4.0 - min(births))
    assert path.final_value == pytest.approx(end_length, rel=1e-12)


# ---------------------------------------------------------------------------
# backward resolution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("window_end", [0.02, 0.4, 1.5, 8.0])
def test_resolve_final_state_matches_forward_replay(window_end):
    stream = make_stream(29, round(window_end * 100))
    init = [-0.1, -0.5, -0.2, -0.9, -0.3]
    log = simulate_events(6, (0.0, window_end), stream)
    forward, _, _, _ = _naive_replay(init, log)
    resolved = resolve_final_state(log, init)
    assert np.array_equal(resolved, np.array(forward))


def test_resolve_final_state_no_events():
    log = EventLog(4, 0.0, 1.0, np.empty(0), np.empty(0, np.int64), np.empty(0, np.int64))
    assert resolve_final_state(log, [-1.0, -2.0, -3.0]).tolist() == [-1.0, -2.0, -3.0]
    with pytest.raises(ValueError):
        resolve_final_state(log, [-1.0])


# ---------------------------------------------------------------------------
# life lengths
# ---------------------------------------------------------------------------

def test_truncation_level_values():
    assert truncation_level_for(2, 1e-3) == 2001
    assert truncation_level_for(2, 1e-6) == 2000001
    assert truncation_level_for(1000, 1e-2) == 1000
    assert truncation_level_for(5, 0.5) == 5
    with pytest.raises(ValueError):
        truncation_level_for(1, 1e-3)
    with pytest.raises(ValueError):
        truncation_level_for(2, 0.0)


def test_lifelength_degenerate_truncation_is_exact_mean():
    stream = make_stream(31, 0)
    assert sample_line_lifelength(2, stream, tol=2.0) == 2.0
    assert sample_line_lifelength(5, stream, tol=0.5) == 0.5


def test_lifelength_mean_level_2():
    stream = make_stream(31, 1)
    draws = _lifelength_matrix(2, 20_000, stream, 1e-3)
    se = math.sqrt(VAR_LIFE_2 / draws.size)
    assert abs(draws.mean() - 2.0) < 3.5 * se


def test_lifelength_mean_deep_level():
    stream = make_stream(31, 2)
    draws = _lifelength_matrix(1000, 20_000, stream, 1e-3)
    expect = 2.0 / 999.0
    assert abs(draws.mean() - expect) / expect < 1.5e-3


def test_lifelength_mean_invariant_to_truncation():
    # The tail mean is restored deterministically, so any tol is unbiased.
    stream = make_stream(31, 3)
    for tol in (0.5, 1e-1, 1e-3):
        draws = _lifelength_matrix(2, 20_000, stream, tol)
        se = math.sqrt(VAR_LIFE_2 / draws.size)
        assert abs(draws.mean() - 2.0) < 3.5 * se


def test_lifelength_variance_level_2():
    stream = make_stream(31, 4)
    draws = _lifelength_matrix(2, 100_000, stream, 1e-3)
    observed = draws.var(ddof=1)
    assert abs(observed - VAR_LIFE_2) / VAR_LIFE_2 < 0.04


def test_scalar_sampler_agrees_with_matrix_law():
    stream = make_stream(31, 5)
    scalars = np.array([sample_line_lifelength(3, stream, 1e-2) for _ in range(4000)])
    matrix = _lifelength_matrix(3, 4000, make_stream(31, 6), 1e-2)
    result = ks_test_two_sample(scalars, matrix)
    assert result.p_value > 1e-3


# ---------------------------------------------------------------------------
# death point processes
# ---------------------------------------------------------------------------

def test_default_burn_in_values():
    assert default_burn_in(2) == 50.0
    assert default_burn_in(10) == pytest.approx(100.0 / 45.0)
    assert default_burn_in(100) == pytest.approx(280.0 / 4950.0)
    with pytest.raises(ValueError):
        default_burn_in(1)


def test_death_sample_structure():
    stream = make_stream(37, 0)
    sample = sample_infinite_deaths(5, (1.0, 4.0), stream, burn_in=5.0, tol=1e-2)
    d, lives = sample.death_times, sample.life_lengths
    assert d.shape == lives.shape
    assert np.all(d > 1.0) and np.all(d <= 4.0)
    assert np.all(np.diff(d) >= 0.0)
    assert np.all(d - lives > 1.0 - 5.0)
    assert sample.truncation_level == truncation_level_for(5, 1e-2)
    assert sample.count == d.size


def test_death_sample_empty_window():
    stream = make_stream(37, 1)
    assert sample_infinite_deaths(3, (5.0, 5.0), stream, tol=1e-2).count == 0
    with pytest.raises(ValueError):
        sample_infinite_deaths(3, (5.0, 4.0), stream)
    with pytest.raises(ValueError):
        sample_infinite_deaths(1, (0.0, 1.0), stream)
    with pytest.raises(ValueError):
        sample_infinite_deaths(3, (0.0, 1.0), stream, burn_in=-1.0)


def test_death_rate_equals_birth_rate():
    # In equilibrium level 2 loses lines at its birth rate 1, so a span of
    # 10 sees 10 deaths on average.
    stream = make_stream(37, 2)
    counts = [
        sample_infinite_deaths(2, (0.0, 10.0), stream, tol=1e-3).count
        for _ in range(300)
    ]
    se = math.sqrt(10.0 / 300)
    assert abs(np.mean(counts) - 10.0) < 3.5 * se


# ---------------------------------------------------------------------------
# stationary states
# ---------------------------------------------------------------------------

def test_assign_levels_hand_example():
    # Four levels, unresolved [2, 3, 4]. Target 3 takes the 2nd smallest
    # (level 3) at depth 0.1; target 2 then takes level 2 at 0.4; the last
    # step takes level 4 at 1.0.
    got = _kernels.assign_levels(4, np.array([3, 2, 2]), np.array([0.1, 0.4, 1.0]))
    assert got.tolist() == [0.4, 0.1, 1.0]
    assert _kernels.assign_levels(2, np.array([2]), np.array([0.7])).tolist() == [0.7]
    with pytest.raises(ValueError):
        _kernels.assign_levels(4, np.array([2, 2]), np.array([0.1, 0.4]))


def test_stationary_state_structure():
    stream = make_stream(41, 1)
    state = sample_stationary_state(12, 3.0, stream)
    births = np.array(state.births)
    assert births.shape == (11,)
    assert np.all(births < 3.0)
    assert births.min() == state.min_birth
    assert len(np.unique(births)) == 11
    assert state.now == 3.0


def test_stationary_tree_length_mean():
    # Total length at a fixed time: sum over block sizes k of k Exp(C(k,2)),
    # with mean 2 * (1 + 1/2 + ... + 1/(N-1)).
    stream = make_stream(41, 2)
    reps = 6000
    lengths = np.empty(reps)
    for r in range(reps):
        state = sample_stationary_state(11, 0.0, stream)
        lengths[r] = -state.min_birth - state.sum_births
    se = lengths.std(ddof=1) / math.sqrt(reps)
    assert abs(lengths.mean() - MEAN_LEN_11) < 3.5 * se


def test_stationary_tree_length_distribution():
    stream_a = make_stream(41, 3)
    stream_b = make_stream(41, 4)
    reps, n = 3000, 10
    lengths = np.empty(reps)
    for r in range(reps):
        state = sample_stationary_state(n, 0.0, stream_a)
        lengths[r] = -state.min_birth - state.sum_births
    k = np.arange(2, n + 1, dtype=np.float64)
    gaps = stream_b.generator.standard_exponential((reps, n - 1)) / (k * (k - 1) / 2.0)
    static = gaps @ k
    result = ks_test_two_sample(lengths, static)
    assert result.p_value > 1e-3
