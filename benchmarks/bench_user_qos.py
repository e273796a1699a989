"""User-perceived QoS bench: the Fig. 2 campaign priced in users'
terms -- request-weighted availability and user-minutes lost, before
vs after the intelliagents, on the same fault arrivals.

Shape asserted: the agent year is *strictly* better for users
(higher availability, fewer failed requests, fewer user-minutes lost),
and downtime during business hours costs users more per hour than the
same downtime overnight -- the time-of-day weighting that plain
downtime-hours accounting cannot express.
"""

from conftest import emit

from repro.experiments import userqos


def test_user_perceived_qos(quick):
    replications = 2 if quick else 5
    summary = userqos.run_replicated(replications=replications)
    emit(userqos.format_result(summary))

    before, after = summary["before"], summary["after"]

    # both pipelines price the identical demand curve
    assert before["attempted_requests"] == after["attempted_requests"]
    assert before["attempted_requests"] > 1e9      # 1M users, one year

    # the headline: agents are strictly better for users on every axis
    assert after["availability"] > before["availability"]
    assert after["failed_requests"] < before["failed_requests"]
    assert after["user_minutes_lost"] < before["user_minutes_lost"]

    # sanity: both years are still high-availability sites
    assert 0.98 < before["availability"] < after["availability"] <= 1.0

    # peak-hours downtime costs users more per downtime-hour than
    # overnight downtime -- in both pipelines, and for a synthetic
    # like-for-like 1 h outage probe
    for p in (before, after):
        day_rate = (p["user_minutes_by_period"]["day"]
                    / max(1e-9, p["downtime_hours_by_period"]["day"]))
        night_rate = (p["user_minutes_by_period"]["overnight"]
                      / max(1e-9, p["downtime_hours_by_period"]["overnight"]))
        assert day_rate > night_rate
    assert (summary["peak_hour_user_minutes"]
            > 5 * summary["overnight_hour_user_minutes"])
