"""Property-based tests for cron-grid and calendar arithmetic."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import calendar as cal

times = st.floats(min_value=0.0, max_value=cal.YEAR,
                  allow_nan=False, allow_infinity=False)
periods = st.floats(min_value=1.0, max_value=cal.DAY, allow_nan=False)
offsets = st.floats(min_value=0.0, max_value=cal.HOUR, allow_nan=False)


@given(times, periods, offsets)
@settings(max_examples=300, deadline=None)
def test_next_grid_is_a_future_grid_point(t, period, offset):
    g = cal.next_grid(t, period, offset)
    assert g > t
    # it lies on the grid (within float tolerance)
    k = (g - offset) / period
    assert abs(k - round(k)) < 1e-6
    # and is within one period of t
    assert g - t <= period * (1 + 1e-9)


@given(times, periods, offsets)
@settings(max_examples=300, deadline=None)
def test_prev_grid_le_t_lt_next(t, period, offset):
    """The grid point a period before ``next_grid(t)`` is at or before
    ``t``: none is skipped."""
    n = cal.next_grid(t, period, offset)
    assert n - period <= t + 1e-6 and t < n


@given(times, periods)
@settings(max_examples=200, deadline=None)
def test_a_grid_point_maps_to_the_next_one(t, period):
    g = cal.next_grid(t, period)
    # strict: an agent waking on a grid point has already sampled
    assert abs(cal.next_grid(g, period) - (g + period)) < 1e-6 * period


@given(times)
@settings(max_examples=300, deadline=None)
def test_period_classification_is_a_partition(t):
    day, weekend = bool(cal.is_business_hours(t)), bool(cal.is_weekend(t))
    assert not (day and weekend)
    assert cal.period_of(t) == ("weekend" if weekend else
                                "day" if day else "overnight")


@given(times)
@settings(max_examples=200, deadline=None)
def test_week_arithmetic_consistency(t):
    dow = cal.day_of_week(t)
    assert 0 <= dow <= 6
    assert bool(cal.is_weekend(t)) == (dow >= 5)
    assert 0.0 <= cal.time_of_day(t) < cal.DAY
