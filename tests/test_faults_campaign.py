"""Unit tests for the fault campaign fast path."""

import numpy as np
import pytest

from repro.faults.campaign import Campaign, PipelineParams
from repro.faults.models import CATEGORY_PROFILES, Category
from repro.sim import RandomStreams
from repro.sim.calendar import YEAR, is_business_hours, is_weekend, period_of


@pytest.fixture
def campaign(rs):
    return Campaign(rs.get("campaign"))


def _scaled(rng, scale):
    """A campaign drawing ``scale`` years' worth of faults per year."""
    c = Campaign(rng)
    c.scale = scale
    return c


def test_arrivals_cached_for_pairing(campaign):
    a = campaign.arrivals()
    b = campaign.arrivals()
    assert a is b


def test_arrival_counts_near_rates(rs):
    # law of large numbers over a scaled-up campaign
    c = _scaled(rs.get("big"), 40.0)
    arr = c.arrivals()
    for cat, prof in CATEGORY_PROFILES.items():
        expected = prof.rate_per_year * 40.0
        assert abs(len(arr[cat]) - expected) < 5 * np.sqrt(expected) + 5


def test_arrival_times_sorted_within_horizon(campaign):
    for times in campaign.arrivals().values():
        assert (np.diff(times) >= 0).all()
        if times.size:
            assert times[0] >= 0.0 and times[-1] <= YEAR


def test_business_pattern_lands_in_business_hours(rs):
    c = _scaled(rs.get("b"), 20.0)
    times = c.arrivals()[Category.HUMAN]
    assert times.size > 50
    assert all(is_business_hours(float(t)) for t in times)


def test_overnight_pattern_avoids_business_hours(rs):
    c = _scaled(rs.get("o"), 20.0)
    times = c.arrivals()[Category.MID_CRASH]
    assert times.size > 50
    for t in times:
        assert not is_business_hours(float(t))
    # both weeknights and weekends appear
    periods = {period_of(float(t)) for t in times}
    assert "overnight" in periods and "weekend" in periods


def test_agents_beat_manual_on_same_draw(rs):
    c = Campaign(rs.get("pair"))
    before, after = c.run_pair(before_rng=rs.get("ops.b"),
                               after_rng=rs.get("ops.a"))
    assert len(before.records) == len(after.records)
    assert after.total_hours() < before.total_hours() / 3.0


def test_detection_ordering(rs):
    c = _scaled(rs.get("det"), 3.0)
    before, after = c.run_pair(before_rng=rs.get("db"),
                               after_rng=rs.get("da"))
    db = before.detection_by_period()
    da = after.detection_by_period()
    # manual: day < overnight < weekend; agents: everything tiny
    assert db["day"] < db["overnight"] < db["weekend"]
    for v in da.values():
        assert v <= (5 * 60 + 30) / 3600.0


def test_unfixable_categories_improve_least(rs):
    c = _scaled(rs.get("uf"), 10.0)
    before, after = c.run_pair(before_rng=rs.get("ub"),
                               after_rng=rs.get("ua"))
    hb, ha = before.hours_by_category(), after.hours_by_category()

    def factor(cat):
        return hb[cat] / max(1e-9, ha[cat])

    fixable = factor(Category.MID_CRASH)
    unfixable = factor(Category.FIREWALL_NETWORK)
    assert fixable > 5 * unfixable


def test_prevention_only_on_agent_arm(rs):
    c = _scaled(rs.get("prev"), 10.0)
    before, after = c.run_pair(before_rng=rs.get("pb"),
                               after_rng=rs.get("pa"))
    assert not any(r.prevented for r in before.records)
    assert any(r.prevented for r in after.records)


def test_downtime_weight_applied(rs):
    c = _scaled(rs.get("w"), 10.0)
    result = c.run(PipelineParams(False), operator_rng=rs.get("wops"))
    perf_records = [r for r in result.records
                    if r.category is Category.PERFORMANCE]
    assert perf_records
    w = CATEGORY_PROFILES[Category.PERFORMANCE].downtime_weight
    for r in perf_records[:5]:
        assert r.downtime == pytest.approx(
            (r.detection + r.repair) * w)


def test_auto_repair_rate_high_for_agents(rs):
    c = _scaled(rs.get("ar"), 5.0)
    after = c.run(PipelineParams(True), operator_rng=rs.get("arops"))
    scored = [r for r in after.records if not r.prevented]
    assert sum(r.auto for r in scored) / len(scored) > 0.6


def test_agent_period_scales_detection(rs):
    c = _scaled(rs.get("ap"), 5.0)
    fast = c.run(PipelineParams(True, agent_period=60.0),
                 operator_rng=RandomStreams(1).get("x"))
    slow = c.run(PipelineParams(True, agent_period=3600.0),
                 operator_rng=RandomStreams(1).get("x"))
    fd = np.mean(list(fast.detection_by_period().values()))
    sd = np.mean(list(slow.detection_by_period().values()))
    assert sd > fd * 5
