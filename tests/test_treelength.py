"""Length-path tests: exact drift, jump anatomy, and the backward oracle."""

import math

import numpy as np
import pytest

from kingman import _kernels
from kingman.lookdown import (
    EventLog,
    LookdownState,
    decode_pair,
    resolve_final_state,
    sample_stationary_state,
    simulate_events,
    stationary_births,
)
from kingman.rng import make_stream
from kingman.stats import ks_test_two_sample
from kingman.treelength import (
    InsufficientHistoryError,
    TreeLengthPath,
    _lower_merger_steps,
    build_path,
    reconstruct_length_backward,
    sample_static_kingman_length,
    sample_stationary_length_increments,
    tree_length_of_state,
)

MEAN_LEN_11 = 5.8579365079365076


def test_length_of_state_hand_value():
    state = LookdownState(3, 1.0, [0.5, 0.2])
    assert tree_length_of_state(state) == pytest.approx(2.1, abs=1e-12)
    assert tree_length_of_state(LookdownState.degenerate(9, 4.0)) == 0.0


def test_path_matches_replayed_state_everywhere():
    # At each query time t, resolve the births at t backward from the log's
    # events up to t and compute the length from them directly.
    stream = make_stream(53, 0)
    log = simulate_events(7, (0.0, 3.0), stream)
    start = LookdownState.degenerate(7, 0.0)
    path = build_path(start, log)
    assert path.n_jumps == log.n_events
    assert np.array_equal(path.jump_times, log.times)
    times = make_stream(53, 1).generator.uniform(0.0, 3.0, size=50)
    for t in times:
        upto = log.times <= t
        head = EventLog(7, 0.0, float(t), log.times[upto], log.sources[upto],
                        log.targets[upto])
        births = resolve_final_state(head, start.births)
        direct = 6 * t - births.sum() + (t - births.min())
        assert path.eval(t) == pytest.approx(direct, rel=1e-11, abs=1e-11)


def test_two_line_jump_law():
    # With N=2 the exiting line is always the oldest, so every jump is
    # root-corrected with magnitude twice the exit age.
    stream = make_stream(53, 2)
    log = simulate_events(2, (0.0, 5.0), stream)
    assert log.n_events > 0
    path = build_path(LookdownState.degenerate(2, 0.0), log)
    assert bool(path.root_flags.all())
    gaps = np.diff(np.concatenate([[0.0], log.times]))
    assert path.exit_ages == pytest.approx(gaps)
    assert path.jump_sizes == pytest.approx(2.0 * gaps)


def test_drift_between_jumps_is_exactly_n():
    stream = make_stream(53, 3)
    log = simulate_events(6, (0.0, 2.0), stream)
    path = build_path(LookdownState.degenerate(6, 0.0), log)
    taus = path.jump_times
    widest = int(np.argmax(np.diff(taus)))
    a, b = taus[widest], taus[widest + 1]
    t1, t2 = a + 0.25 * (b - a), a + 0.75 * (b - a)
    assert path.eval(t2) - path.eval(t1) == pytest.approx(6 * (t2 - t1), abs=1e-10)


def test_root_correction_anatomy():
    state = LookdownState(3, 0.5, [0.5, 0.2])
    empty = EventLog(3, 0.5, 1.0, np.empty(0), np.empty(0, np.int64), np.empty(0, np.int64))
    path = build_path(state, empty)
    assert path.v0 == pytest.approx(0.6, abs=1e-12)
    # Oldest line (birth 0.2 at level 3) exits: age 0.8, stem shortens 0.3.
    log = EventLog(3, 0.5, 1.2, np.array([1.0]), np.array([1]), np.array([2]))
    path2 = build_path(state, log)
    assert path2.jump_times.tolist() == [1.0]
    assert path2.jump_sizes[0] == pytest.approx(1.1)
    assert path2.exit_ages[0] == pytest.approx(0.8)
    assert path2.root_flags.tolist() == [True]
    assert path2.eval(1.0) == pytest.approx(1.0, abs=1e-12)
    assert path2.eval(0.999999) == pytest.approx(2.1, abs=1e-4)


def test_compensation_shifts_by_constant():
    stream = make_stream(53, 4)
    log = simulate_events(7, (0.0, 2.0), stream)
    start = LookdownState.degenerate(7, 0.0)
    plain = build_path(start, log)
    comp = build_path(start, log, compensated=True)
    shift = 2.0 * math.log(7)
    for t in (0.0, 0.7, 2.0):
        assert plain.eval(t) - comp.eval(t) == pytest.approx(shift, rel=1e-12)
    assert comp.compensated and not plain.compensated


def test_build_path_validates_alignment():
    stream = make_stream(53, 5)
    log = simulate_events(5, (0.0, 1.0), stream)
    with pytest.raises(ValueError):
        build_path(LookdownState.degenerate(6, 0.0), log)
    with pytest.raises(ValueError):
        build_path(LookdownState.degenerate(5, -1.0), log)
    state = LookdownState.degenerate(5, 0.0)
    build_path(state, log)
    assert state == LookdownState.degenerate(5, 0.0)  # caller's state untouched


def test_eval_domain_and_vectorization():
    path = TreeLengthPath(
        N=3,
        t0=0.0,
        t1=2.0,
        v0=1.0,
        slope=3.0,
        jump_times=np.array([1.0]),
        jump_sizes=np.array([0.5]),
        exit_ages=np.array([0.5]),
        root_flags=np.array([False]),
    )
    vals = path.eval(np.array([0.0, 1.0, 2.0]))
    assert vals == pytest.approx([1.0, 3.5, 6.5])
    assert path.final_value == pytest.approx(6.5)
    with pytest.raises(ValueError):
        path.eval(-0.1)
    with pytest.raises(ValueError):
        path.eval(np.array([0.5, 2.1]))


def test_backward_reconstruction_matches_path():
    # Replay from far before the query window so the root is always inside
    # the log, then compare the two independent computations of l(t).
    stream = make_stream(59, 0)
    log = simulate_events(50, (-40.0, 2.0), stream)
    path = build_path(LookdownState.degenerate(50, -40.0), log)
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


def test_static_length_sampler_moments():
    stream = make_stream(59, 3)
    draws = sample_static_kingman_length(11, stream, size=20_000)
    assert isinstance(sample_static_kingman_length(11, stream), float)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - MEAN_LEN_11) < 3.5 * se
    with pytest.raises(ValueError):
        sample_static_kingman_length(1, stream)


def test_evolved_stationary_length_keeps_static_law():
    # Start in equilibrium, evolve three time units, read the length off the
    # path; its law should match fresh static-tree draws.
    stream_a = make_stream(59, 4)
    stream_b = make_stream(59, 5)
    reps = 1500
    evolved = np.empty(reps)
    for r in range(reps):
        state = sample_stationary_state(12, 0.0, stream_a)
        log = simulate_events(12, (0.0, 3.0), stream_a)
        evolved[r] = build_path(state, log).final_value
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
    # place of depths and read off the steps that landed on levels 2..k.
    m = np.arange(n, 1, -1, dtype=np.int64)
    step_ids = np.arange(n - 1, dtype=np.float64)
    out = np.empty((reps, k - 1))
    for r in range(reps):
        targets = decode_pair(stream.generator.integers(0, m * (m - 1) // 2))[1]
        out[r] = np.sort(_kernels.assign_levels(n, targets, step_ids)[: k - 1])
    return out


@pytest.mark.parametrize("k", [2, 5, 12])
def test_lower_merger_steps_match_literal_assignment(k):
    n, reps = 40, 3000
    fast = _lower_merger_steps(n, np.full(reps, k), make_stream(67, k).generator)
    fast = fast.reshape(reps, k - 1)
    assert np.all(np.diff(fast, axis=1) > 0)
    slow = _literal_lower_steps(n, k, reps, make_stream(67, 100 + k))
    for i in range(k - 1):
        assert ks_test_two_sample(fast[:, i], slow[:, i]).p_value > 1e-3


def test_lower_merger_steps_edges():
    gen = make_stream(67, 0).generator
    n = 9
    # K = n: every step resolves one of levels 2..n.
    assert _lower_merger_steps(n, np.full(3, n), gen).tolist() == list(range(n - 1)) * 3
    # K = 2: one step each; K = 1: none.
    assert _lower_merger_steps(n, np.full(50, 2), gen).shape == (50,)
    assert _lower_merger_steps(n, np.ones(4, dtype=np.int64), gen).size == 0
    # Mixed K comes back grouped by replicate, each group increasing.
    k = np.array([1, n, 2, 5, 1, 3])
    steps = _lower_merger_steps(n, k, gen)
    groups = np.split(steps, np.cumsum(k - 1)[:-1])
    assert [g.size for g in groups] == (k - 1).tolist()
    assert groups[1].tolist() == list(range(n - 1))
    for g in groups:
        assert np.all(np.diff(g) > 0) and np.all((0 <= g) & (g < n - 1))
