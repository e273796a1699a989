"""Unit tests for the downtime ledger."""

import math

import pytest

from repro.faults.models import Category
from repro.ops.downtime import DowntimeLedger


@pytest.fixture
def ledger():
    return DowntimeLedger()


def _closed(ledger, category, target, start, duration):
    """A complete incident: opened at ``start``, closed ``duration``
    later."""
    ledger.open_incident(category, target, start)
    return ledger.close_incident(target, start + duration)


def test_open_close_cycle(ledger):
    inc = ledger.open_incident(Category.MID_CRASH, "db01/ora", 100.0)
    assert inc.open
    ledger.mark_detected("db01/ora", 160.0)
    closed = ledger.close_incident("db01/ora", 400.0, auto_repaired=True)
    assert closed is inc
    assert inc.duration == 300.0
    assert inc.detection_latency == 60.0
    assert inc.auto_repaired


def test_double_open_is_one_outage(ledger):
    a = ledger.open_incident(Category.MID_CRASH, "t", 100.0)
    b = ledger.open_incident(Category.MID_CRASH, "t", 150.0)
    assert a is b
    assert len(ledger.incidents) == 1


def test_close_unknown_returns_none(ledger):
    assert ledger.close_incident("ghost", 1.0) is None


def test_hours_by_category(ledger):
    _closed(ledger, Category.MID_CRASH, "a", 0.0, 7200.0)
    _closed(ledger, Category.MID_CRASH, "b", 0.0, 3600.0)
    _closed(ledger, Category.LSF, "c", 0.0, 1800.0)
    hours = ledger.hours_by_category()
    assert hours[Category.MID_CRASH] == 3.0
    assert hours[Category.LSF] == 0.5
    assert ledger.total_hours() == 3.5


def test_open_incidents_not_counted_in_hours(ledger):
    ledger.open_incident(Category.HUMAN, "t", 0.0)
    assert ledger.total_hours() == 0.0
    assert math.isnan(ledger.incidents[0].duration)


def test_open_incident_clamped_to_horizon(ledger):
    """Regression: an incident still open at campaign end must be
    clamped to the horizon, not dropped from the Fig. 2 totals."""
    horizon = 10 * 3600.0
    _closed(ledger, Category.MID_CRASH, "a", 0.0, 3600.0)     # closed: 1 h
    ledger.open_incident(Category.MID_CRASH, "b", horizon - 7200.0)
    # without a horizon the open incident is invisible (old behaviour)
    assert ledger.total_hours() == 1.0
    # with it, the open incident contributes its 2 h up to the horizon
    hours = ledger.hours_by_category(as_of=horizon)
    assert hours[Category.MID_CRASH] == 3.0
    assert ledger.total_hours(as_of=horizon) == 3.0


def test_incident_closed_after_horizon_counts_inside_part(ledger):
    _closed(ledger, Category.LSF, "a", 3600.0, 7200.0)   # closes at t=3 h
    assert ledger.total_hours(as_of=2 * 3600.0) == 1.0
    # and an incident entirely after the horizon contributes nothing
    _closed(ledger, Category.LSF, "b", 10 * 3600.0, 3600.0)
    assert ledger.total_hours(as_of=2 * 3600.0) == 1.0


def test_duration_until_clamps(ledger):
    inc = ledger.open_incident(Category.HUMAN, "t", 100.0)
    assert inc.duration_until(400.0) == 300.0
    assert inc.duration_until(50.0) == 0.0
    ledger.close_incident("t", 200.0)
    assert inc.duration_until(400.0) == 100.0


def test_reopen_after_close_is_new_incident(ledger):
    ledger.open_incident(Category.HUMAN, "t", 0.0)
    ledger.close_incident("t", 10.0)
    ledger.open_incident(Category.HUMAN, "t", 20.0)
    assert len(ledger.incidents) == 2
