"""Unit tests for the notification channel."""

import pytest


def test_email_and_sms(notifications, sim):
    n1 = notifications.email("ops", "db down", severity="critical")
    n2 = notifications.sms("oncall", "wake up")
    assert n1.medium == "email" and n2.medium == "sms"
    assert notifications.count() == 2


def test_unknown_medium_rejected(notifications):
    with pytest.raises(ValueError):
        notifications.send("carrier-pigeon", "x", "y")


def test_subscribers_called_live(notifications):
    seen = []
    notifications.subscribe(seen.append)
    notifications.email("a", "s1")
    assert len(seen) == 1 and seen[0].subject == "s1"


def test_since_and_by_severity(notifications, sim):
    notifications.email("a", "early", severity="info")
    sim.run(until=100.0)
    notifications.email("a", "late", severity="critical")
    assert [n.subject for n in notifications.since(50.0)] == ["late"]
    assert [n.subject for n in notifications.by_severity("critical")] == ["late"]


def test_timestamps_from_sim_clock(notifications, sim):
    sim.run(until=42.0)
    n = notifications.email("a", "s")
    assert n.time == 42.0


# -- a 1:1 ledger -------------------------------------------------------------


def test_dedup_off_by_default(notifications, sim):
    """Repeats are each their own page: folding them for operators is
    the console's job, not the channel's."""
    seen = []
    notifications.subscribe(seen.append)
    for _ in range(3):
        notifications.sms("oncall", "db down")
    assert notifications.count() == 3
    assert seen == notifications.sent
