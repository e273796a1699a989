"""Unit tests for time series handling."""

import numpy as np
import pytest

from repro.metrics.timeseries import TimeSeries, merge_by_timestamp


def _ts(name, pairs):
    ts = TimeSeries(name)
    for t, v in pairs:
        ts.append(t, v)
    return ts


def test_append_and_stats():
    ts = _ts("x", [(0, 1.0), (10, 3.0), (20, 5.0)])
    assert len(ts) == 3
    assert ts.values.tolist() == [1.0, 3.0, 5.0]
    assert ts.last() == 5.0


def test_timestamps_must_be_monotone():
    ts = _ts("x", [(0, 1.0), (10, 2.0)])
    with pytest.raises(ValueError):
        ts.append(5.0, 3.0)


def test_merge_exact_timestamps():
    a = _ts("a", [(0, 1.0), (10, 2.0), (20, 3.0)])
    b = _ts("b", [(0, 10.0), (10, 20.0), (20, 30.0)])
    merged = merge_by_timestamp([a, b])
    assert merged["t"].tolist() == [0.0, 10.0, 20.0]
    assert merged["b"].tolist() == [10.0, 20.0, 30.0]


def test_merge_with_tolerance():
    a = _ts("a", [(0, 1.0), (10, 2.0)])
    b = _ts("b", [(0.4, 10.0), (30, 99.0)])
    merged = merge_by_timestamp([a, b], tolerance=0.5)
    assert merged["t"].tolist() == [0.0]
    assert merged["b"].tolist() == [10.0]


def test_merge_drops_unmatched():
    a = _ts("a", [(0, 1.0), (10, 2.0)])
    b = _ts("b", [(10, 20.0)])
    merged = merge_by_timestamp([a, b], tolerance=0.0)
    assert merged["t"].tolist() == [10.0]


def test_merge_empty_partner():
    a = _ts("a", [(0, 1.0)])
    b = TimeSeries("b")
    merged = merge_by_timestamp([a, b])
    assert merged["t"].size == 0


def test_merge_three_series():
    a = _ts("a", [(0, 1.0), (10, 2.0), (20, 3.0)])
    b = _ts("b", [(0, 4.0), (20, 5.0)])
    c = _ts("c", [(0, 6.0), (10, 7.0), (20, 8.0)])
    merged = merge_by_timestamp([a, b, c])
    assert merged["t"].tolist() == [0.0, 20.0]
    assert merged["c"].tolist() == [6.0, 8.0]


def test_times_values_arrays_are_cached():
    ts = _ts("x", [(0, 1.0), (10, 2.0)])
    a = ts.times
    assert ts.times is a                  # no per-read list->array copy
    assert ts.values is ts.values


def test_append_invalidates_cache():
    ts = _ts("x", [(0, 1.0)])
    before = ts.times
    ts.append(5.0, 2.0)
    after = ts.times
    assert after is not before
    assert after.tolist() == [0.0, 5.0]
    assert ts.values.tolist() == [1.0, 2.0]


# -- ring-buffer semantics ----------------------------------------------------


def test_ring_cap_keeps_newest_and_counts_dropped():
    ts = TimeSeries("x", maxlen=4)
    for i in range(20):
        ts.append(float(i), float(i) * 2.0)
    # amortised trim: between maxlen and 2*maxlen samples retained
    assert 4 <= len(ts) < 8
    assert ts.dropped == 20 - len(ts)
    assert ts.last() == 38.0
    assert ts.times.tolist() == sorted(ts.times.tolist())


def test_ring_cap_validated():
    with pytest.raises(ValueError):
        TimeSeries("x", maxlen=0)


def test_last_and_last_time_on_empty():
    ts = TimeSeries("x")
    assert ts.last() == 0.0


def test_value_at_steps_and_clamps():
    ts = _ts("x", [(10, 1.0), (20, 2.0), (30, 3.0)])
    assert ts.value_at(25.0) == 2.0      # newest sample <= t
    assert ts.value_at(20.0) == 2.0
    assert ts.value_at(5.0) == 1.0       # before history: oldest
    assert ts.value_at(99.0) == 3.0
    assert TimeSeries("y").value_at(0.0) == 0.0


# -- merge ordering and tie-breaking ------------------------------------------


def test_merge_output_keeps_base_timestamp_order():
    a = _ts("a", [(0, 1.0), (5, 2.0), (10, 3.0), (15, 4.0)])
    b = _ts("b", [(0, 9.0), (5, 8.0), (10, 7.0), (15, 6.0)])
    merged = merge_by_timestamp([a, b])
    assert merged["t"].tolist() == sorted(merged["t"].tolist())
    assert merged["a"].tolist() == [1.0, 2.0, 3.0, 4.0]
    assert merged["b"].tolist() == [9.0, 8.0, 7.0, 6.0]


def test_merge_equidistant_neighbour_prefers_the_earlier():
    # base t=10 sits exactly between partner samples at 8 and 12
    a = _ts("a", [(10, 1.0)])
    b = _ts("b", [(8, 100.0), (12, 200.0)])
    merged = merge_by_timestamp([a, b], tolerance=2.0)
    assert merged["t"].tolist() == [10.0]
    assert merged["b"].tolist() == [100.0]
