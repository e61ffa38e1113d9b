import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kingman.rng import (
    GENERATOR_ID,
    _order_keys,
    _repair_ties,
    derive_stream_id,
    make_stream,
    mix64,
    sample_poisson_times,
)


def test_mix64_reference_vectors():
    # Frozen from an independent transcription of the published SplitMix64.
    assert mix64(0) == 0xE220A8397B1DCDAF
    assert mix64(1) == 0x910A2DEC89025CC1
    assert mix64(42) == 0xBDD732262FEB6E95
    assert mix64(0x123456789ABCDEF) == 0x157A3807A48FAA9D


def test_derive_stream_id_is_injective_on_small_grid():
    ids = {derive_stream_id(o, r) for o in range(8) for r in range(1000)}
    assert len(ids) == 8 * 1000


def test_derive_stream_id_rejects_wide_inputs():
    with pytest.raises(ValueError):
        derive_stream_id(2**32, 0)
    with pytest.raises(ValueError):
        derive_stream_id(0, -1)


def test_same_identity_gives_identical_draws():
    a = make_stream(42, 7)
    b = make_stream(42, 7)
    assert np.array_equal(a.generator.random(64), b.generator.random(64))


def test_distinct_stream_ids_diverge():
    a = make_stream(42, 0)
    b = make_stream(42, 1)
    assert not np.array_equal(a.generator.random(64), b.generator.random(64))


def test_distinct_root_seeds_diverge():
    a = make_stream(1, 5)
    b = make_stream(2, 5)
    assert not np.array_equal(a.generator.random(64), b.generator.random(64))


def test_generator_id_recorded_constant():
    assert GENERATOR_ID == "pcg64:seedseq(root_seed,stream_id)"


def test_stream_identity_validation():
    with pytest.raises(ValueError):
        make_stream(-1, 0)
    with pytest.raises(ValueError):
        make_stream(0, 2**64)
    with pytest.raises(ValueError):
        make_stream(1.5, 0)


def test_sample_exponential_mean():
    stream = make_stream(101, 0)
    sample = stream.exponentials(2.0, 100_000)
    se = sample.std(ddof=1) / math.sqrt(sample.size)
    assert abs(sample.mean() - 0.5) < 3.0 * se
    assert sample.min() > 0.0


def test_sample_exponential_rejects_bad_rate():
    stream = make_stream(0, 0)
    for rate in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            stream.exponentials(rate, 4)


def test_poisson_times_empty_window():
    stream = make_stream(3, 3)
    out = sample_poisson_times(stream, 5.0, (5.0, 5.0))
    assert out.size == 0


def test_poisson_times_rejects_reversed_window_and_bad_rate():
    stream = make_stream(3, 4)
    with pytest.raises(ValueError):
        sample_poisson_times(stream, 1.0, (2.0, 1.0))
    with pytest.raises(ValueError):
        sample_poisson_times(stream, 0.0, (0.0, 1.0))


def test_poisson_times_strictly_increasing_in_window():
    stream = make_stream(9, 11)
    for _ in range(50):
        t = sample_poisson_times(stream, 3.0, (2.0, 12.0))
        assert np.all(t > 2.0)
        assert np.all(t <= 12.0)
        assert np.all(np.diff(t) > 0.0)


def test_poisson_times_perturbs_tied_arrivals(monkeypatch, caplog):
    # Every third gap is 0.5 and the rest are exactly zero, so the arrivals
    # tie with the window start and with each other: 1, 1, 1.5, 1.5, 1.5,
    # 2, ... Of the 11 arrivals up to 2.75, 8 repeat their predecessor (or
    # the start) and move one ulp above it. Up to 3, two of the times moved
    # would pass 3: that window cannot hold them, which is an error.
    stream = make_stream(3, 5)

    def tied_gaps(rate, size):
        gaps = np.zeros(size)
        gaps[2::3] = 0.5
        return gaps

    monkeypatch.setattr(stream, "exponentials", tied_gaps)
    with caplog.at_level(logging.WARNING, logger="kingman.rng"):
        t = sample_poisson_times(stream, 1.0, (1.0, 2.75))
    assert np.all(t[1:] > t[:-1]) and t[0] > 1.0 and t[-1] <= 2.75

    def up(x):
        return float(np.nextafter(x, math.inf))

    assert t.tolist() == [
        up(1.0), up(up(1.0)), 1.5, up(1.5), up(up(1.5)),
        2.0, up(2.0), up(up(2.0)), 2.5, up(2.5), up(up(2.5)),
    ]
    assert [r.getMessage() for r in caplog.records] == [
        "perturbed 8 tied Poisson arrival times by one ulp"
    ]
    with pytest.raises(ValueError, match="2 repaired times would pass its end"):
        sample_poisson_times(stream, 1.0, (1.0, 3.0))


def _loop_repair(times, a):
    """The repair sample_poisson_times made before the one-pass form: pass
    after pass, each time not above its predecessor (or a) moves one ulp
    above it, until none is left."""
    times = times.copy()
    while times.size:
        bad = np.flatnonzero(times[1:] <= times[:-1]) + 1
        if times[0] <= a:
            bad = np.insert(bad, 0, 0)
        if bad.size == 0:
            break
        for idx in bad:
            floor = times[idx - 1] if idx > 0 else a
            if times[idx] <= floor:
                times[idx] = np.nextafter(floor, math.inf)
    return times


def _from_keys(keys):
    """Doubles from the int64 order keys of rng._order_keys (0 is +0.0)."""
    bits = np.where(keys >= 0, keys, np.int64(-2**63) - np.minimum(keys, 0))
    return bits.view(np.float64)


@settings(max_examples=300, deadline=None)
@given(
    a=st.one_of(
        st.sampled_from([1e12, -1e12, 1e9, 0.0, -0.0, -1e-300, -5e-324, 1.0]),
        st.floats(min_value=-1e300, max_value=1e300),
    ),
    offset=st.integers(0, 2),
    steps=st.lists(st.sampled_from([0, 0, 0, 1, 2, 5, 1000]), min_size=1, max_size=300),
    slack=st.sampled_from([-1, 0, 1, 3]),
)
def test_one_pass_tie_repair_matches_the_loop(a, offset, steps, slack):
    # Non-decreasing times from a, with runs of ties and of neighbouring
    # doubles, built one ulp step at a time.
    times = _from_keys(_order_keys(np.array([a]))[0] + offset + np.cumsum(steps))
    expected = _loop_repair(times, a)
    # A window end a few ulps either side of the loop's last time, never
    # below the last arrival.
    b = float(_from_keys(_order_keys(expected[-1:]) + slack)[0])
    b = max(b, float(times[-1]))
    repaired = times.copy()
    if expected[-1] > b:
        with pytest.raises(ValueError, match="too coarse"):
            _repair_ties(repaired, a, b)
        assert repaired.tobytes() == times.tobytes()
    else:
        moved = _repair_ties(repaired, a, b)
        assert repaired.tobytes() == expected.tobytes()
        changed = expected.view(np.int64) != times.view(np.int64)
        assert moved == int(np.count_nonzero(changed))


def test_poisson_times_peak_memory_is_near_the_output():
    # simulate-path's default event rate, C(200, 2) on [0, 5]: about 10^5
    # arrivals. The tie check compares neighbours, so it holds no copy of
    # the arrivals.
    stream = make_stream(1, 5)
    tracemalloc.start()
    try:
        t = sample_poisson_times(stream, 19900.0, (0.0, 5.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.size > 90_000
    assert peak <= 1.5 * t.nbytes, f"peak {peak / t.nbytes:.2f} times the output"


def test_poisson_times_count_mean_and_dispersion():
    stream = make_stream(77, 0)
    reps = 1000
    rate, span = 3.0, 10.0
    counts = np.array(
        [sample_poisson_times(stream, rate, (0.0, span)).size for _ in range(reps)],
        dtype=np.float64,
    )
    expected = rate * span
    se = math.sqrt(expected / reps)
    assert abs(counts.mean() - expected) < 3.0 * se
    # Poisson counts: variance/mean = 1. Var of the dispersion index over
    # reps is approximately 2/(reps-1).
    dispersion = counts.var(ddof=1) / counts.mean()
    assert abs(dispersion - 1.0) < 3.0 * math.sqrt(2.0 / (reps - 1))


def test_poisson_times_concatenation_matches_single_window():
    # Gaps pooled from two adjacent windows on a continuing stream should be
    # indistinguishable from gaps of one call on the union window.
    from kingman.stats import ks_test

    stream_a = make_stream(5, 100)
    stream_b = make_stream(5, 101)
    rate = 4.0
    left = sample_poisson_times(stream_a, rate, (0.0, 50.0))
    right = sample_poisson_times(stream_a, rate, (50.0, 100.0))
    joined = np.concatenate([left, right])
    single = sample_poisson_times(stream_b, rate, (0.0, 100.0))
    gaps = np.diff(joined)
    res = ks_test(gaps, lambda x: 1.0 - np.exp(-rate * np.asarray(x)))
    assert res.p_value > 0.001
    assert abs(joined.size - single.size) < 5.0 * math.sqrt(rate * 100.0)
