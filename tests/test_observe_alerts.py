"""Unit tests for the alerting tier: burn-rate math, the alert state
machine at its module constants, and the console pane."""

import pytest

from repro.observe import AlertManager, TelemetryHub
from repro.observe.alerts import ESCALATE_AFTER, RESOLVE_HOLD
from repro.ops.console import OperatorConsole
from repro.trace import install_tracer
from repro.traffic.slo import burn_rate


# -- burn-rate math -----------------------------------------------------------


def test_burn_rate_math():
    # 0.1% budget at 99.9%: 10 bad of 1000 attempted burns 10 budgets
    assert burn_rate(1000.0, 10.0, 0.999) == pytest.approx(10.0)
    assert burn_rate(0.0, 0.0, 0.999) == 0.0
    assert burn_rate(1000.0, 0.0, 0.999) == 0.0
    assert burn_rate(100.0, 1.0, 1.0) == float("inf")
    assert burn_rate(100.0, 0.0, 1.0) == 0.0


# -- burn-rate alerts on a live hub -------------------------------------------


class FakeSli:
    def __init__(self):
        self.attempted = 0.0
        self.served = 0.0


@pytest.fixture
def stack(sim, notifications):
    """Hub + manager + one traffic class fed by a 60 s drip whose
    badness is switchable."""
    hub = TelemetryHub(sim)
    sli = FakeSli()
    hub.attach_slis({"web": sli})
    mgr = AlertManager(sim, hub, channel=notifications)
    state = {"bad": 0.0}

    def drip():
        sli.attempted += 100.0
        sli.served += 100.0 * (1.0 - state["bad"])
        sim.schedule(60.0, drip)

    sim.schedule(60.0, drip)
    hub.start()
    return hub, mgr, state


def test_burn_alert_fires_pages_and_resolves(sim, notifications, stack):
    hub, mgr, state = stack
    ledger_events = []
    from repro.controlplane.ledger import ConditionLedger
    ledger = ConditionLedger()
    ledger.on_append(ledger_events.append)
    mgr.attach_ledger(ledger)

    sim.run(until=1200.0)               # clean baseline: no alerts
    assert mgr.pages_sent == 0

    state["bad"] = 0.5                  # 50% failures >> 0.1% budget
    sim.run(until=1500.0)
    firing = mgr.firing()
    assert [(a.key, a.severity) for a in firing] == [
        ("burn:fast-burn:web", "critical"), ("burn:slow-burn:web", "warning")]
    assert mgr.pages_sent == 2
    assert notifications.sent[-1].subject.startswith("ALERT slo-burn web")
    assert [c.status for c in ledger_events] == ["firing", "firing"]

    state["bad"] = 0.0                  # recover; both windows drain
    sim.run(until=4000.0)
    assert mgr.firing() == []
    assert [a.state for a in mgr.history] == ["resolved", "resolved"]
    assert [c.status for c in ledger_events] == [
        "firing", "firing", "resolved", "resolved"]


def test_alert_attributed_to_newest_fault(sim, notifications, stack):
    hub, mgr, state = stack
    tracer = install_tracer(sim)
    sim.run(until=600.0)
    tracer.instant("fault.inject", fault_id="F0042", kind="db-crash",
                   target="db01/ora")
    state["bad"] = 0.5
    sim.run(until=1500.0)
    assert [a.fault_id for a in mgr.firing()] == ["F0042", "F0042"]
    assert "F0042" in notifications.sent[-1].subject
    assert mgr.alerts_for("F0042") == mgr.firing()


# -- the state machine straight on ---------------------------------------------


def _mgr(sim):
    return AlertManager(sim, TelemetryHub(sim))


def test_fire_after_hold_then_resolve_after_quiet(sim):
    """There is no hold before paging (the multi-window rule is the
    flap guard); resolving waits for RESOLVE_HOLD quiet seconds."""
    mgr = _mgr(sim)
    kw = dict(subject="s", severity="warning", value=1.0, threshold=1.0)
    mgr._transition("k", True, 0.0, **kw)
    alert = mgr._active["k"]
    assert alert.state == "firing" and alert.pages == 1
    mgr._transition("k", True, 120.0, **kw)
    assert alert.pages == 1
    mgr._transition("k", False, 120.0 + RESOLVE_HOLD - 1.0, **kw)
    assert alert.state == "firing"      # not quiet long enough
    mgr._transition("k", False, 120.0 + RESOLVE_HOLD, **kw)
    assert alert.state == "resolved" and mgr._active == {}
    assert mgr.history == [alert]


def test_escalation_repages_at_critical(sim):
    mgr = _mgr(sim)
    kw = dict(subject="s", severity="warning", value=1.0, threshold=1.0)
    mgr._transition("k", True, 0.0, **kw)
    alert = mgr._active["k"]
    assert alert.severity == "warning" and alert.pages == 1
    mgr._escalate(ESCALATE_AFTER - 1.0)
    assert not alert.escalated
    mgr._escalate(ESCALATE_AFTER)
    assert alert.escalated and alert.severity == "critical"
    assert alert.pages == 2


def test_alert_lifecycle_at_the_module_constants(sim, notifications, stack):
    """Through real rollups: a burn pages on the first rollup that sees
    it, resolves 300 s after it was last active, and the warning-level
    burn still firing 1 800 s after it paged re-pages at critical."""
    hub, mgr, state = stack
    assert (RESOLVE_HOLD, ESCALATE_AFTER) == (300.0, 1800.0)
    sim.run(until=1200.0)
    state["bad"] = 0.5
    sim.run(until=1260.0)               # the first drip and rollup of it
    fast, slow = mgr.firing()
    assert fast.fired_at == slow.fired_at == 1260.0
    assert [n.severity for n in notifications.sent] == ["critical",
                                                        "warning"]
    state["bad"] = 0.0
    sim.run(until=6 * 3600.0)
    assert fast.resolved_at == fast.last_active + 300.0
    assert slow.resolved_at == slow.last_active + 300.0
    assert not fast.escalated and fast.pages == 1
    assert slow.escalated and slow.severity == "critical"
    assert slow.pages == 2
    assert slow.resolved_at > 1260.0 + 1800.0
    repage = notifications.sent[-1]
    assert (repage.time, repage.severity) == (3060.0, "critical")
    assert repage.subject == "ALERT slo-burn web slow-burn"


# -- the console pane ---------------------------------------------------------


def test_console_shows_firing_alerts_pane(sim, notifications, stack):
    hub, mgr, state = stack
    console = OperatorConsole(notifications, sim)
    console.attach_alerts(mgr)
    state["bad"] = 0.5
    sim.run(until=1500.0)
    board = console.board()
    assert "-- alerts: 2 firing, 2 page(s) sent" in board
    assert "slo-burn web fast-burn" in board


def test_console_without_alert_manager_has_no_pane(sim, notifications):
    console = OperatorConsole(notifications, sim)
    assert "-- alerts:" not in console.board()
