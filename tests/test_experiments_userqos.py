"""Unit tests for the user-perceived QoS experiment."""

import pytest

from repro.faults.models import CATEGORY_IMPACT, Category
from repro.experiments.userqos import (format_result, run_once,
                                       run_replicated, windows_of)
from repro.sim.calendar import DAY

HORIZON = 60 * DAY        # a couple of months is enough signal for tests


@pytest.fixture(scope="module")
def result():
    return run_once(seed=3, horizon=HORIZON, population=200_000)


def test_every_category_has_an_impact_map():
    assert set(CATEGORY_IMPACT) == set(Category)
    for impact in CATEGORY_IMPACT.values():
        assert impact and all(0 < v <= 1.0 for v in impact.values())
        assert set(impact) <= {"web", "frontend", "db"}


def test_agents_strictly_better(result):
    before, after = result["before"], result["after"]
    assert after["availability"] > before["availability"]
    assert after["failed_requests"] < before["failed_requests"]
    assert after["user_minutes_lost"] < before["user_minutes_lost"]
    assert 0.9 < before["availability"] < after["availability"] <= 1.0


def test_same_attempted_requests_both_pipelines(result):
    """Paired design: both pipelines face identical demand."""
    assert (result["before"]["attempted_requests"]
            == result["after"]["attempted_requests"])
    assert result["before"]["attempted_requests"] > 1e7


def test_peak_probe_heavier_than_overnight(result):
    assert (result["peak_hour_user_minutes"]
            > 5 * result["overnight_hour_user_minutes"])


def test_day_downtime_costs_more_per_hour(result):
    for p in (result["before"], result["after"]):
        day, night = (p["user_minutes_by_period"][period]
                      / p["downtime_hours_by_period"][period]
                      for period in ("day", "overnight"))
        assert day > night > 0


def test_windows_skip_prevented_faults(result):
    # rebuild the after-pipeline windows: none may come from a
    # prevented record, and every window must have positive duration
    import repro.sim as rsim
    from repro.faults.campaign import Campaign
    rs = rsim.RandomStreams(3)
    campaign = Campaign(rs.get("userqos.campaign"), horizon=HORIZON)
    before, after = campaign.run_pair(
        agent_period=300.0,
        before_rng=rs.get("userqos.ops.before"),
        after_rng=rs.get("userqos.ops.after"))
    wins = windows_of(after)
    assert len(wins) == sum(1 for r in after.records if not r.prevented)
    assert all(w.duration > 0 for w in wins)


def test_summary_is_plain_and_complete(result):
    import json
    s = json.loads(json.dumps(result))      # nothing numpy, nothing custom
    assert s == result
    assert s["before"]["label"] == "before"
    assert s["after"]["label"] == "after"
    assert set(s["before"]["availability_by_class"]) == {
        "web", "frontend", "db"}
    assert s["replications"] == 1


def test_run_replicated_means(result):
    merged = run_replicated(3, replications=2, horizon=HORIZON,
                            population=200_000)
    assert merged["replications"] == 2
    one = run_once(seed=4, horizon=HORIZON, population=200_000)
    expect = 0.5 * (result["before"]["failed_requests"]
                    + one["before"]["failed_requests"])
    assert merged["before"]["failed_requests"] == pytest.approx(expect)


def test_run_replicated_rejects_empty():
    with pytest.raises(ValueError):
        run_replicated(0, replications=0)


def test_format_result_renders(result):
    text = format_result(result)
    assert "before" in text and "after" in text
    assert "user-minutes" in text
    assert "x" in text.splitlines()[-1]      # the ratio tail
