"""Detection-latency bench (§4 text).

Paper: faults detected "within the first 5 minutes" with agents,
vs ~1 h daytime / ~10 h overnight / ~25 h weekend with BMC+operators.

The agent arm is full fidelity (real flags on the real cron grid over a
live site); the manual arm samples the operator-coverage model at the
same fault times.  Shape asserted: agent detection bounded by the agent
period; manual means ordered day < overnight < weekend and near the
paper's values.
"""

from conftest import emit

from repro.experiments import latency


def test_detection_latency():
    r = latency.run(seed=0, weeks=2)
    emit(latency.format_result(r))

    # agents: everything within the 5-minute grid plus the run itself
    assert r.agent_max_minutes <= 6.0
    for period, hours in r.agent_by_period.items():
        assert hours <= 0.11, period

    # manual: the day/overnight/weekend ordering with plausible values
    m = r.manual_by_period
    assert m["day"] < m["overnight"] < m["weekend"]
    assert 0.4 < m["day"] < 2.5
    assert 5.0 < m["overnight"] < 16.0
    assert 12.0 < m["weekend"] < 45.0

    # the paper's headline gap: two orders of magnitude off-hours
    assert m["overnight"] / max(1e-6, r.agent_by_period["overnight"]) > 50
