"""Unit tests for the SystemEdge-style operator console."""

import pytest

from repro.ops.console import OperatorConsole


@pytest.fixture
def console(sim, notifications):
    return OperatorConsole(notifications, sim)


def test_critical_notification_raises_alarm(console, notifications):
    notifications.email("ops", "db01/ora down", severity="critical",
                        sender="svc_ora")
    alarms = console.active()
    assert len(alarms) == 1
    assert alarms[0].severity == "critical"
    assert alarms[0].sender == "svc_ora"


def test_info_mail_is_not_an_alarm(console, notifications):
    notifications.email("ops", "daily batch summary", severity="info")
    assert console.active() == []
    assert console.total_notifications == 1


def test_duplicates_fold_with_count(console, notifications, sim):
    notifications.email("ops", "db01 trouble", severity="warning")
    sim.run(until=100.0)
    notifications.email("ops", "db01 trouble", severity="warning")
    alarms = console.active()
    assert len(alarms) == 1
    assert alarms[0].count == 2
    assert alarms[0].last_seen == 100.0
    assert alarms[0].first_seen == 0.0


def test_severity_escalates_never_downgrades(console, notifications):
    notifications.email("ops", "x", severity="warning")
    notifications.email("ops", "x", severity="critical")
    assert console.active()[0].severity == "critical"
    notifications.email("ops", "x", severity="warning")
    assert console.active()[0].severity == "critical"


def test_ordering_severity_then_age(console, notifications, sim):
    notifications.email("ops", "old warning", severity="warning")
    sim.run(until=50.0)
    notifications.email("ops", "late critical", severity="critical")
    subjects = [a.subject for a in console.active()]
    assert subjects == ["late critical", "old warning"]


def test_ack_workflow(console, notifications):
    notifications.email("ops", "x", severity="critical")
    assert console.ack("x", "carol")
    assert console.active()[0].acked_by == "carol"
    assert not console.ack("ghost", "carol")


def test_clear_moves_to_history(console, notifications):
    notifications.email("ops", "x", severity="critical")
    assert console.clear_matching("x") == 1
    assert console.active() == []
    assert len(console.cleared) == 1
    assert console.clear_matching("x") == 0


def test_clear_matching(console, notifications):
    notifications.email("ops", "db01/ora down", severity="critical")
    notifications.email("ops", "db01/web down", severity="critical")
    notifications.email("ops", "fe01/gui down", severity="critical")
    assert console.clear_matching("db01") == 2
    assert len(console.active()) == 1


def test_board_rendering(console, notifications, sim):
    assert "(all quiet)" in console.board()
    notifications.email("ops", "db01/ora down", severity="critical")
    notifications.email("ops", "db01/ora down", severity="critical")
    console.ack("db01/ora down", "dave")
    board = console.board()
    assert "CRITICAL" in board
    assert "x2" in board
    assert "ack:dave" in board


def test_console_on_live_site(test_site):
    """Console rides the real channel: injected fault -> alarm."""
    site = test_site
    console = OperatorConsole(site.notifications, site.sim)
    from repro.cluster.hardware import ComponentKind
    from repro.faults.injector import FaultInjector
    inj = FaultInjector(site.dc, site.streams.get("x"))
    inj.component_failure(site.databases[0].host, ComponentKind.DISK)
    site.run(900.0)
    assert any("cannot fix" in a.subject for a in console.active())

def test_board_shows_live_counters_when_traced(console, notifications, sim):
    from repro.trace import install_tracer

    board = console.board()
    assert "site counters" not in board       # untraced sim: no line
    tracer = install_tracer(sim)
    tracer.count("faults.injected", 3)
    tracer.count("agent.heals_succeeded", 2)
    board = console.board()
    assert "faults.injected=3" in board
    assert "agent.heals_succeeded=2" in board


# -- condition-ledger feed ----------------------------------------------------


def test_board_without_ledger_has_no_control_plane_line(console):
    assert "control plane" not in console.board(now=0.0)
