"""Relocation bench: the escalation-only year vs the same year with
the failover tier, priced in users' terms at 1M users.

Shape asserted: relocation is *strictly* better for users (higher
availability, fewer user-minutes lost) on the identical fault draw,
the tier actually fires (candidates > 0), and its honest costs are
accounted -- every rollback burns at most the timeout budget.
"""

from conftest import emit

from repro.experiments import relocation


def test_relocation_user_qos(quick):
    replications = 2 if quick else 5
    summary = relocation.run_replicated(replications=replications)
    emit(relocation.format_result(summary))

    before = summary["before"]
    escalate = summary["escalate"]
    relocate = summary["relocate"]
    tier = summary["relocations"]

    # all three arms price the identical demand curve
    assert (before["attempted_requests"] == escalate["attempted_requests"]
            == relocate["attempted_requests"] > 1e9)

    # the tier fires and mostly lands
    assert tier["candidates"] > 0
    assert tier["succeeded"] > 0
    assert tier["succeeded"] >= tier["failed"]
    assert tier["hours_saved"] > 0

    # headline: relocation on is strictly better than relocation off,
    # which is itself strictly better than the manual year
    assert (relocate["availability"] > escalate["availability"]
            > before["availability"])
    assert (relocate["user_minutes_lost"] < escalate["user_minutes_lost"]
            < before["user_minutes_lost"])
    assert relocate["failed_requests"] <= escalate["failed_requests"]

    # honest costs: rollbacks cannot burn more than the budget each
    assert tier["hours_lost_to_rollbacks"] <= tier["failed"] * 900.0 / 3600.0

    # sanity: still a high-availability site in every arm
    assert 0.98 < before["availability"] < relocate["availability"] <= 1.0
