"""Unit tests for the user-traffic workload models."""

import numpy as np
import pytest

from repro.sim import RandomStreams
from repro.sim.calendar import DAY, HOUR, WEEK
from repro.traffic.workload import (DemandCurve, DiurnalProfile,
                                    FINANCIAL_PROFILE, financial_curve)

MONDAY_11 = 11 * HOUR
MONDAY_03 = 3 * HOUR
SATURDAY_11 = 5 * DAY + 11 * HOUR


@pytest.fixture
def curve():
    return financial_curve(population=1_000_000)


def test_profile_normalised_to_mean_one():
    assert FINANCIAL_PROFILE.weights.mean() == pytest.approx(1.0)
    assert 8 <= int(np.argmax(FINANCIAL_PROFILE.weights)) <= 17


def test_profile_rejects_bad_weights():
    with pytest.raises(ValueError):
        DiurnalProfile([1.0] * 23)
    with pytest.raises(ValueError):
        DiurnalProfile([1.0] * 23 + [-1.0])


def test_diurnal_shape_peak_vs_trough(curve):
    cls = curve.by_name["web"]
    assert curve.rate(cls, MONDAY_11) > 5 * curve.rate(cls, MONDAY_03)


def test_weekend_demand_lower(curve):
    cls = curve.by_name["web"]
    assert (curve.rate(cls, SATURDAY_11)
            < cls.weekend_factor * 1.01 * curve.rate(cls, MONDAY_11))


def test_vectorised_matches_scalar(curve):
    cls = curve.by_name["frontend"]
    t = np.array([MONDAY_03, MONDAY_11, SATURDAY_11, 6 * DAY + HOUR])
    vec = curve.rate(cls, t)
    for i, ti in enumerate(t):
        assert vec[i] == pytest.approx(curve.rate(cls, float(ti)))


def test_weekday_volume_matches_requests_per_user_day(curve):
    """Integrating a weekday at a fine step recovers the class's mean
    requests/user/day (the profile is normalised)."""
    cls = curve.by_name["web"]
    demand = curve.rate(cls, curve.grid(0.0, DAY, 60.0)) * 60.0
    total = demand.sum()
    expected = curve.population * cls.requests_per_user_day
    assert total == pytest.approx(expected, rel=0.01)


def test_active_users_bounded_and_diurnal(curve):
    t = np.arange(0.0, WEEK, 300.0)
    users = curve.active_users(t)
    assert users.max() <= curve.population * curve.peak_active_fraction * 1.001
    assert curve.active_users(MONDAY_11) > 10 * curve.active_users(MONDAY_03)


def test_incident_user_minutes_peak_heavier(curve):
    peak = curve.incident_user_minutes(DAY + 11 * HOUR, HOUR)
    night = curve.incident_user_minutes(DAY + 3 * HOUR, HOUR)
    weekend = curve.incident_user_minutes(5 * DAY + 11 * HOUR, HOUR)
    assert peak > 5 * night
    assert peak > weekend


def test_arrival_sampling_deterministic():
    """Same seed => identical Poisson draws off the demand grid."""
    curve = financial_curve(100_000)
    cls = curve.by_name["web"]
    lam = curve.rate(cls, curve.grid(0.0, DAY, 300.0)) * 300.0
    a = RandomStreams(7).get("traffic.arrivals").poisson(lam)
    b = RandomStreams(7).get("traffic.arrivals").poisson(lam)
    c = RandomStreams(8).get("traffic.arrivals").poisson(lam)
    assert (a == b).all()
    assert not (a == c).all()
