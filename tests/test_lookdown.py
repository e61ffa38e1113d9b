"""Engine tests: event decoding, log replay, line and death sampling.

Hand-worked replay examples on 3- and 4-level logs are frozen here; moment
checks use bands of at least three standard errors around exact
expectations, with seeds fixed so runs are deterministic.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from kingman import lookdown
from kingman.lookdown import (
    GAMMA_TAIL_LEVEL,
    EventLog,
    LookdownState,
    PointProcessSample,
    SequencingError,
    _assign_levels,
    decode_target,
    default_burn_in,
    life_moments,
    life_skewness,
    pair_count,
    resolve_final_state,
    sample_infinite_deaths,
    sample_lifelengths,
    sample_lifelengths_gamma_tail,
    sample_stationary_state,
    simulate_events,
    stationary_births,
    _trigamma,
    truncation_level_for,
)
from kingman.rng import make_stream, sample_poisson_times
from kingman.stats import ks_test_two_sample
from kingman.treelength import build_path, tree_length

VAR_LIFE_2 = 4.0 * (math.pi**2 / 3.0 - 3.0)  # variance of a level-2 life
MEAN_LEN_11 = 5.8579365079365076  # 2 * (1 + 1/2 + ... + 1/10)


# ---------------------------------------------------------------------------
# pairs and events
# ---------------------------------------------------------------------------

def test_pair_count():
    assert [pair_count(n) for n in (2, 3, 4, 10)] == [1, 3, 6, 45]


def test_decode_enumerates_pairs_in_order():
    # Target k takes exactly the k - 1 codes C(k-1,2) .. C(k,2) - 1, one per
    # source, in increasing order.
    want = [k for k in range(2, 7) for _ in range(1, k)]
    assert decode_target(np.arange(pair_count(6))).tolist() == want


def test_decode_boundaries_large_target():
    # First and last codes of big targets, where sqrt rounding could slip.
    for target in (3, 10, 1000, 10**6):
        low = pair_count(target - 1)
        k = decode_target(np.array([low, low + target - 2, low - 1]))
        assert k.tolist() == [target, target, target - 1]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=pair_count(4000) - 1))
def test_decode_inverts_triangular_code(code):
    k = int(decode_target(np.array([code]))[0])
    assert 2 <= k <= 4000
    assert pair_count(k - 1) <= code < pair_count(k)


def test_event_rejects_bad_targets():
    for target in (0, 1, 6):
        with pytest.raises(ValueError):
            EventLog(5, 0.0, 1.0, np.array([0.5]), np.array([target]))


def test_simulate_events_window_contents():
    stream = make_stream(7, 0)
    log = simulate_events(10, (2.0, 4.0), stream)
    assert log.n_events > 0
    assert np.all(log.times > 2.0) and np.all(log.times <= 4.0)
    assert np.all(np.diff(log.times) > 0.0)
    assert np.all((2 <= log.targets) & (log.targets <= 10))


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
    with pytest.raises(SequencingError):
        EventLog(3, 0.0, 1.0, np.array([0.5, 0.4]), np.array([2, 2]))
    with pytest.raises(ValueError):
        EventLog(3, 0.0, 0.3, np.array([0.5]), np.array([2]))
    for times in ([math.nan], [0.2, math.nan], [math.nan, 0.5], [0.2, math.nan, 0.5]):
        with pytest.raises(ValueError):
            EventLog(3, 0.0, 1.0, np.array(times), np.full(len(times), 2))
    with pytest.raises(ValueError):
        EventLog(3, 0.0, 1.0, np.array([0.5]), np.array([2, 3]))
    with pytest.raises(ValueError):
        EventLog(3, 1.0, 0.0, np.empty(0), np.empty(0, np.int64))


# ---------------------------------------------------------------------------
# log replay
# ---------------------------------------------------------------------------

def _log(N, start, end, times, targets):
    return EventLog(N, start, end, np.asarray(times, dtype=np.float64),
                    np.asarray(targets, dtype=np.int64))


def _naive_replay(births, log):
    """Literal pop/insert replay: final births and per-event jump arrays."""
    births = [float(b) for b in births]
    sizes, flags = [], []
    for t, k in zip(log.times.tolist(), log.targets.tolist()):
        old_min = min(births)
        exited = births.pop()
        births.insert(k - 2, t)
        flags.append(exited <= old_min)
        sizes.append((t - exited) + (min(births) - old_min))
    return births, np.array(sizes), np.array(flags, dtype=bool)


def test_step_low_target_shifts_and_exits():
    # Level 2 holds the oldest line (0.2). A birth at level 2 pushes it to
    # level 3 while the level-3 line (0.5) exits; the next event, at the top
    # level, then removes the pushed line, which is the root correction.
    state = LookdownState(3, 0.5, [0.2, 0.5])
    log = _log(3, 0.5, 2.0, [1.0, 1.5], [2, 3])
    path = build_path(state, log)
    assert path.root_flags.tolist() == [False, True]
    # Each jump is the exit age, plus the stem shortening at a root exit.
    assert path.jump_sizes.tolist() == [1.0 - 0.5, (1.5 - 0.2) + (1.0 - 0.2)]
    assert resolve_final_state(log, state.births).tolist() == [1.0, 1.5]
    # l(2) = 2 * 2 - (1.0 + 1.5) + (2 - 1.0)
    assert path.final_value == pytest.approx(2.5, abs=1e-12)


def test_step_top_target_replaces_exiting_line():
    state = LookdownState(3, 0.5, [0.5, 0.2])
    log = _log(3, 0.5, 1.0, [1.0], [3])
    path = build_path(state, log)
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
    assert path.jump_sizes.tolist() == [1.0, 2.0, 1.0]  # the exit ages
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
    assert state.births == (-2.0,) * 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.now = 0.0


def test_replay_matches_naive_reference():
    stream = make_stream(23, 1)
    log = simulate_events(8, (0.0, 4.0), stream)
    assert log.n_events > 60  # rate 28 over a span of 4
    path = build_path(LookdownState.degenerate(8, 0.0), log)
    births, sizes, flags = _naive_replay([0.0] * 7, log)
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
    forward, _, _ = _naive_replay(init, log)
    resolved = resolve_final_state(log, init)
    assert np.array_equal(resolved, np.array(forward))


def test_resolve_final_state_no_events():
    log = EventLog(4, 0.0, 1.0, np.empty(0), np.empty(0, np.int64))
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
    assert np.all(sample_lifelengths(2, 3, stream, 2) == 2.0)
    assert np.all(sample_lifelengths(5, 1, stream, 5) == 0.5)
    assert sample_lifelengths(3, 0, stream, 10).size == 0
    with pytest.raises(ValueError):
        sample_lifelengths(5, 1, stream, 4)
    with pytest.raises(ValueError):
        sample_lifelengths(1, 1, stream, 10)


@pytest.mark.parametrize("level,J,count", [(2, 52, 1001), (3, 100, 401), (2, 257, 253)])
def test_lifelength_chunks_round_as_one_product(monkeypatch, level, J, count):
    # Each count is 1 past a multiple of 4, so 4-row chunks leave a 1-row
    # tail; it must join the chunk before it, or it is summed as a dot
    # product and its life moves in the last bits.
    whole = [sample_lifelengths(level, count, make_stream(seed, 1), J) for seed in range(5)]
    monkeypatch.setattr(lookdown, "_LIFE_CHUNK", 4 * (J - level))
    for seed, expected in enumerate(whole):
        chunked = sample_lifelengths(level, count, make_stream(seed, 1), J)
        assert np.array_equal(chunked, expected)


def test_lifelength_mean_level_2():
    stream = make_stream(31, 1)
    draws = sample_lifelengths(2, 20_000, stream, 2001)
    se = math.sqrt(VAR_LIFE_2 / draws.size)
    assert abs(draws.mean() - 2.0) < 3.5 * se


def test_lifelength_mean_deep_level():
    stream = make_stream(31, 2)
    draws = sample_lifelengths(1000, 20_000, stream, 2001)
    expect = 2.0 / 999.0
    assert abs(draws.mean() - expect) / expect < 1.5e-3


def test_lifelength_mean_invariant_to_truncation():
    # The tail mean is restored deterministically, so any J is unbiased.
    stream = make_stream(31, 3)
    for J in (5, 21, 2001):
        draws = sample_lifelengths(2, 20_000, stream, J)
        se = math.sqrt(VAR_LIFE_2 / draws.size)
        assert abs(draws.mean() - 2.0) < 3.5 * se


def test_lifelength_variance_level_2():
    stream = make_stream(31, 4)
    draws = sample_lifelengths(2, 100_000, stream, 2001)
    observed = draws.var(ddof=1)
    assert abs(observed - VAR_LIFE_2) / VAR_LIFE_2 < 0.04


def test_replayed_exit_ages_match_life_sampler(assert_same_law):
    # In the N-level system a line born at level k is pushed up one level at
    # rate C(j,2) while at level j, and exits from level N; its age at exit
    # is sum_{j=k}^{N} Exp(C(j,2)), the infinite-level life truncated at
    # J = N + 1 less the tail mean 2/N. A literal replay keeps each line's
    # (birth time, birth level) and reads exit ages off the event log.
    N, span, margin = 30, 2000.0, 40.0
    log = simulate_events(N, (0.0, span), make_stream(71, 1))
    lines = [(-math.inf, 0)] * (N - 1)  # levels 2..N; lines from before 0 go unread
    ages = {2: [], 5: [], N: []}
    for t, k in zip(log.times.tolist(), log.targets.tolist()):
        birth, level = lines.pop()
        if level in ages and birth <= span - margin:
            ages[level].append(t - birth)
        lines.insert(k - 2, (t, k))
    # Lives longer than the margin (chance below e^-38 at level 2) would be
    # censored; none is.
    assert all(birth > span - margin for birth, level in lines if level in ages)
    for k, replayed in ages.items():
        drawn = sample_lifelengths(k, 20_000, make_stream(71, 1 + k), N + 1) - 2.0 / N
        assert_same_law(np.array(replayed), drawn)


def test_trigamma_matches_scipy():
    k = np.arange(1, 20_001)
    psi = _trigamma(k)
    assert np.max(np.abs(psi / special.polygamma(1, k) - 1.0)) < 1e-9
    assert _trigamma(1) == pytest.approx(math.pi**2 / 6.0, rel=1e-15)
    assert _trigamma(64) - _trigamma(65) == pytest.approx(1.0 / 64**2, rel=1e-9)
    with pytest.raises(ValueError):
        _trigamma(0)


@pytest.mark.parametrize("level", [2, 5, GAMMA_TAIL_LEVEL, 300, 4096])
def test_life_moments_match_direct_sums(level):
    # v_k = sum_{j>=k} 4/(j(j-1))^2, summed smallest terms first; the tail
    # past 2000 k is below 1e-9 relative.
    j = np.arange(2000.0 * level, level - 1.0, -1.0)
    mean, var = life_moments(level)
    assert mean == 2.0 / (level - 1)
    assert var == pytest.approx(np.sum(4.0 / (j * (j - 1.0)) ** 2), rel=2e-9)
    _, variances = life_moments(np.array([2, level]))
    assert variances[0] == pytest.approx(VAR_LIFE_2, rel=1e-14)
    assert variances[1] == var
    with pytest.raises(ValueError):
        life_moments(1)


def test_gamma_tail_level_meets_skewness_bound():
    # The Gamma tail's skewness 2/sqrt(a) = sqrt(v_k) (k - 1) undershoots the
    # exact skewness by a gap that shrinks with the level; from
    # GAMMA_TAIL_LEVEL on it stays under the stated bound 0.06.
    def gap(k):
        _, var = life_moments(k)
        return life_skewness(k) - math.sqrt(var) * (k - 1)

    gaps = [gap(k) for k in (32, GAMMA_TAIL_LEVEL, 4096)]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    assert gaps[1] < 0.06
    j = np.arange(20_000.0, 1.0, -1.0)
    kappa3 = np.sum(2.0 * (2.0 / (j * (j - 1.0))) ** 3)
    assert life_skewness(2) == pytest.approx(kappa3 / VAR_LIFE_2**1.5, rel=1e-12)


@pytest.mark.parametrize("level", [GAMMA_TAIL_LEVEL - 1, GAMMA_TAIL_LEVEL, 4096])
def test_gamma_tail_lives_match_deep_truncation(level, assert_same_law):
    # Reference: 2000 exact stages, then the tail from level + 2000. Its
    # variance share (level / (level + 2000))^3 is 1.5e-3 at level 256, where
    # the tail may as well be its mean, but 0.30 at level 4096, where a
    # constant tail (sample_lifelengths alone) fails KS at p = 0. So the
    # reference keeps that tail random through the same Gamma matching.
    stream = make_stream(33, level)
    gamma = sample_lifelengths_gamma_tail(level, 10_000, stream, GAMMA_TAIL_LEVEL)
    deep = np.concatenate([
        sample_lifelengths_gamma_tail(level, 2_500, stream, level + 2000)
        for _ in range(4)
    ])
    assert_same_law(gamma, deep)


def test_gamma_tail_lives_exact_moments():
    stream = make_stream(33, 0)
    for level in (5, GAMMA_TAIL_LEVEL, 1000):
        draws = sample_lifelengths_gamma_tail(level, 200_000, stream, GAMMA_TAIL_LEVEL)
        mean, var = life_moments(level)
        se = math.sqrt(var / draws.size)
        assert abs(draws.mean() - mean) < 4.0 * se
        assert draws.var(ddof=1) == pytest.approx(var, rel=0.02)
    assert sample_lifelengths_gamma_tail(3, 0, stream, GAMMA_TAIL_LEVEL).size == 0
    with pytest.raises(ValueError):
        sample_lifelengths_gamma_tail(1, 5, stream, GAMMA_TAIL_LEVEL)


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
    sample = sample_infinite_deaths(5, (1.0, 4.0), stream, 1e-2)
    d = sample.death_times
    assert np.all(d > 1.0) and np.all(d <= 4.0)
    assert np.all(np.diff(d) >= 0.0)
    assert sample.count == d.size > 0
    # The draws are births on the window extended back by the default
    # burn-in, then lives truncated at J = truncation_level_for(level, tol).
    replay = make_stream(37, 0)
    births = sample_poisson_times(replay, 4.0, (1.0 - default_burn_in(5), 4.0))
    all_lives = sample_lifelengths(5, births.size, replay, truncation_level_for(5, 1e-2))
    keep = (births + all_lives > 1.0) & (births + all_lives <= 4.0)
    assert np.array_equal(np.sort(births[keep] + all_lives[keep]), d)


def test_death_sample_empty_window():
    stream = make_stream(37, 1)
    assert sample_infinite_deaths(3, (5.0, 5.0), stream, 1e-2).count == 0
    with pytest.raises(ValueError):
        sample_infinite_deaths(3, (5.0, 4.0), stream, 1e-2)
    with pytest.raises(ValueError):
        sample_infinite_deaths(1, (0.0, 1.0), stream, 1e-2)
    with pytest.raises(ValueError):
        sample_infinite_deaths(3, (0.0, 1.0), stream, 0.0)


def test_death_sample_validation():
    window = (0.0, 1.0)
    kept = PointProcessSample(2, window, [0.5, 0.5, 1.0])
    assert kept.count == 3 and kept.death_times.dtype == np.float64
    for deaths, message in [
        ([0.0, 0.5], "lie in the window"),
        ([0.5, 1.5], "lie in the window"),
        ([math.nan], "lie in the window"),
        ([0.7, 0.5], "sorted"),
        ([0.5, math.nan, 0.7], "sorted"),
    ]:
        with pytest.raises(ValueError, match=message):
            PointProcessSample(2, window, deaths)


def test_death_rate_equals_birth_rate():
    # In equilibrium level 2 loses lines at its birth rate 1, so a span of
    # 10 sees 10 deaths on average.
    stream = make_stream(37, 2)
    counts = [
        sample_infinite_deaths(2, (0.0, 10.0), stream, 1e-3).count
        for _ in range(300)
    ]
    se = math.sqrt(10.0 / 300)
    assert abs(np.mean(counts) - 10.0) < 3.5 * se


# ---------------------------------------------------------------------------
# stationary states
# ---------------------------------------------------------------------------

def test_assign_levels_hand_example():
    # Four levels, unresolved [2, 3, 4]. Walking the pairs last to first,
    # target 3 takes the 2nd smallest (level 3) at 0.9; target 2 then takes
    # level 2 at 0.6; the first pair takes level 4 at 0.2.
    got = _assign_levels(4, np.array([2, 2, 3]), np.array([0.2, 0.6, 0.9]))
    assert got.tolist() == [0.6, 0.9, 0.2]
    assert _assign_levels(2, np.array([2]), np.array([0.7])).tolist() == [0.7]
    # Five levels, one pair: target 3 takes level 3, and levels 2, 4, 5,
    # left unresolved, take the first three values of `rest` in order (the
    # backward scan passes all N - 1 initial births).
    got = _assign_levels(5, np.array([3]), np.array([0.5]), [-0.1, -0.2, -0.3, -0.4])
    assert got.tolist() == [-0.1, 0.5, -0.2, -0.3]
    got = _assign_levels(3, np.empty(0, np.int64), np.empty(0), [-1.0, -2.0])
    assert got.tolist() == [-1.0, -2.0]


def test_stationary_births_and_events_draw_order_is_pinned():
    # The pinned seeds of every finite-N criterion depend on these exact
    # draws: the merger depths (each -ln(1 - U) divided by the integer
    # C(m,2), then summed), the pair codes after them, and the event log.
    # Multiplying by a rounded 1/C(m,2) instead moves the last bits.
    def digest(births):
        return hashlib.sha256(births.tobytes()).hexdigest()[:16]

    got = [stationary_births(n, 0.0, make_stream(59, i))
           for i, n in enumerate((2, 3, 40, 1000))]
    assert got[0].tolist() == [-0.8861184253075127]
    assert got[1].tolist() == [-0.8844788119840746, -0.9696181313866925]
    assert [digest(b) for b in got] == [
        "91c4ee15d4d38e27", "74f0a7b2942482a0", "c4fb9724daf74c31", "36f7b1d7174cc16e",
    ]
    log = simulate_events(5, (0.0, 0.8), make_stream(59, 9))
    assert log.times.tolist() == [
        0.23440106284279727, 0.26390835787135364, 0.3946262410616961,
        0.5938134414363404, 0.6336268015499598, 0.7052843503731543,
    ]
    assert log.targets.tolist() == [5, 4, 4, 5, 5, 5]


def test_stationary_state_structure():
    stream = make_stream(41, 1)
    state = sample_stationary_state(12, 3.0, stream)
    births = np.array(state.births)
    assert births.shape == (11,)
    assert np.all(births < 3.0)
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
        lengths[r] = tree_length(state.births, 0.0)
    se = lengths.std(ddof=1) / math.sqrt(reps)
    assert abs(lengths.mean() - MEAN_LEN_11) < 3.5 * se


def test_stationary_tree_length_distribution():
    stream_a = make_stream(41, 3)
    stream_b = make_stream(41, 4)
    reps, n = 3000, 10
    lengths = np.empty(reps)
    for r in range(reps):
        state = sample_stationary_state(n, 0.0, stream_a)
        lengths[r] = tree_length(state.births, 0.0)
    k = np.arange(2, n + 1, dtype=np.float64)
    gaps = stream_b.generator.standard_exponential((reps, n - 1)) / (k * (k - 1) / 2.0)
    static = gaps @ k
    result = ks_test_two_sample(lengths, static)
    assert result.p_value > 1e-3
