"""Unit tests for calendar arithmetic."""

import numpy as np
import pytest

from repro.sim import calendar as cal


def test_epoch_is_monday_midnight():
    assert cal.day_of_week(0.0) == 0
    assert cal.time_of_day(0.0) == 0.0
    assert not cal.is_weekend(0.0)


def test_weekend_classification():
    saturday = 5 * cal.DAY + 3 * cal.HOUR
    sunday = 6 * cal.DAY + 23 * cal.HOUR
    friday = 4 * cal.DAY + 12 * cal.HOUR
    assert cal.is_weekend(saturday)
    assert cal.is_weekend(sunday)
    assert not cal.is_weekend(friday)


def test_business_hours():
    tuesday_10am = cal.DAY + 10 * cal.HOUR
    tuesday_7am = cal.DAY + 7 * cal.HOUR
    tuesday_7pm = cal.DAY + 19 * cal.HOUR
    assert cal.is_business_hours(tuesday_10am)
    assert not cal.is_business_hours(tuesday_7am)
    assert not cal.is_business_hours(tuesday_7pm)
    saturday_10am = 5 * cal.DAY + 10 * cal.HOUR
    assert not cal.is_business_hours(saturday_10am)


def test_overnight_excludes_weekend():
    tuesday_2am = cal.DAY + 2 * cal.HOUR
    saturday_2am = 5 * cal.DAY + 2 * cal.HOUR
    assert cal.period_of(tuesday_2am) == "overnight"
    assert cal.period_of(saturday_2am) == "weekend"


def test_period_of_partitions():
    for t in np.linspace(0, 2 * cal.WEEK, 500):
        assert cal.period_of(float(t)) in ("day", "overnight", "weekend")


def test_next_grid_strict():
    assert cal.next_grid(0.0, 300.0) == 300.0
    assert cal.next_grid(1.0, 300.0) == 300.0
    assert cal.next_grid(300.0, 300.0) == 600.0        # strict
    assert cal.next_grid(299.999, 300.0) == 300.0


def test_next_grid_with_offset():
    assert cal.next_grid(0.0, 300.0, offset=50.0) == 50.0
    assert cal.next_grid(50.0, 300.0, offset=50.0) == 350.0


def test_bad_period_rejected():
    with pytest.raises(ValueError):
        cal.next_grid(0.0, 0.0)
    with pytest.raises(ValueError):
        cal.next_grid(0.0, -5.0)


def test_vectorised_classification_matches_scalar():
    ts = np.linspace(0, cal.WEEK, 97)
    vec = cal.is_weekend(ts)
    for t, v in zip(ts, vec):
        assert bool(v) == bool(cal.is_weekend(float(t)))


def test_format_time():
    s = cal.format_time(cal.WEEK + cal.DAY + 14 * cal.HOUR + 5 * cal.MINUTE)
    assert s == "w01 Tue 14:05:00"
