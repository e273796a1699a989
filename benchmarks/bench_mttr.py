"""MTTR bench (§4 text).

Paper: "It could take up to 2 hours at a time for a service or server
restart ... The whole troubleshooting procedure (and subsequent
downtime) could take an average of 4 hours in such cases [when experts
had to come in]."

Shape asserted: manual median repair on the order of a few hours,
escalated cases around 4-6 h, agent repair minutes-not-hours for the
auto-fixable categories.
"""

from conftest import emit

from repro.experiments import mttr
from repro.faults.models import Category


def test_mttr():
    r = mttr.run(seed=0, samples_per_category=500)
    emit(mttr.format_result(r))

    # "up to 2 hours for a restart": the typical manual repair is
    # hours-scale
    assert 1.0 < r.manual_median_repair_h < 5.0
    # "an average of 4 hours" when escalated
    assert 3.0 < r.manual_escalated_mean_h < 8.0

    # agents: auto-fixable categories repair in minutes
    for cat in (Category.MID_CRASH, Category.LSF, Category.FRONT_END):
        _, _, agent_h = r.rows[cat]
        assert agent_h < 1.0, cat
    # not-auto-fixable categories stay hours-scale even with agents
    for cat in (Category.FIREWALL_NETWORK, Category.HARDWARE):
        _, _, agent_h = r.rows[cat]
        assert agent_h > 1.0, cat

    assert r.agent_mean_repair_h < r.manual_median_repair_h
