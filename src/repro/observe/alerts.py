"""In-sim alerting: burn-rate rules and alert pages.

The SRE-workbook shape, run *inside* the simulation: each traffic
class is watched by multi-window multi-burn-rate rules (a long window
for significance, a short window so recovered problems stop paging --
the pair is the flap guard, so an alert fires on the first rollup its
rule is active).  A firing alert pages the on-call through the site
:class:`~repro.ops.notifications.NotificationChannel`, resolves after
:data:`RESOLVE_HOLD` quiet seconds, escalates to critical (and pages
again) when it stays firing :data:`ESCALATE_AFTER` seconds at a lower
severity, and is attributed to the fault id the tracer correlates with
the damage -- the join key the incident reports use.

The point of running this in-sim: the paper's detection story is a
cron grid (agents wake every ~300 s).  A burn-rate alert over 60 s
telemetry rollups pages within a tick or two of user impact, and the
``incidents`` experiment measures that gap against the cron bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.persist.core import Persistent, record, rows, scalar, via
from repro.traffic.slo import burn_rate

__all__ = ["BurnRateRule", "DEFAULT_BURN_RULES", "Alert", "AlertManager",
           "OBJECTIVE", "RECIPIENT", "RESOLVE_HOLD", "ESCALATE_AFTER",
           "FAULT_LOOKBACK"]


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate condition."""

    name: str
    long_window: float
    short_window: float
    #: burn-rate threshold both windows must exceed
    threshold: float
    severity: str = "critical"


#: The classic 99.9%-objective pair: page when 2% of a 30-day budget
#: burns in an hour (and the last 5 minutes agree the burn is live);
#: ticket on the slower 6 h / 30 min burn.
DEFAULT_BURN_RULES: Tuple[BurnRateRule, ...] = (
    BurnRateRule("fast-burn", 3600.0, 300.0, 14.4, "critical"),
    BurnRateRule("slow-burn", 6 * 3600.0, 1800.0, 6.0, "warning"),
)

#: the availability objective every traffic class is held to
OBJECTIVE = 0.999
#: who the pages go to
RECIPIENT = "oncall-sre"
#: seconds a firing condition must stay quiet before resolving
RESOLVE_HOLD = 300.0
#: firing this long at sub-critical severity escalates the page
ESCALATE_AFTER = 1800.0
#: how far back a page looks for the fault that caused it
FAULT_LOOKBACK = 3600.0


@dataclass
class Alert:
    """One alert instance through its lifecycle."""

    key: str
    subject: str
    severity: str
    fired_at: float
    state: str = "firing"        # firing | resolved
    resolved_at: Optional[float] = None
    #: last time the condition was observed active
    last_active: float = 0.0
    fault_id: str = ""
    value: float = 0.0
    threshold: float = 0.0
    pages: int = 0
    escalated: bool = False
    notes: List[str] = field(default_factory=list)


class AlertManager(Persistent):
    """Evaluates rules on every hub rollup and owns alert lifecycles."""

    #: alert lifecycles and the page counter
    _persist = (rows("history", *record(Alert)),
                via("active", "_save_active", "_load_active"),
                scalar("pages_sent", int))

    def __init__(self, sim, hub, *, channel=None):
        self.sim = sim
        self.hub = hub
        self.channel = channel
        self.ledger = None
        self._active: Dict[str, Alert] = {}
        self.history: List[Alert] = []
        self.pages_sent = 0
        hub.on_rollup(self.evaluate)

    # -- wiring --------------------------------------------------------------

    def attach_ledger(self, ledger) -> None:
        """Publish alert transitions as ``alert`` conditions, so the
        control plane and console see pages in the same stream as
        flags and host state."""
        self.ledger = ledger

    # -- evaluation (rollup listener) ----------------------------------------

    def evaluate(self, now: float, hub) -> None:
        for svc in hub.service_names():
            att_key = f"svc/{svc}/attempted"
            bad_key = f"svc/{svc}/bad"
            for rule in DEFAULT_BURN_RULES:
                br_long = burn_rate(
                    hub.window_delta(att_key, rule.long_window, now),
                    hub.window_delta(bad_key, rule.long_window, now),
                    OBJECTIVE)
                br_short = burn_rate(
                    hub.window_delta(att_key, rule.short_window, now),
                    hub.window_delta(bad_key, rule.short_window, now),
                    OBJECTIVE)
                active = (br_long > rule.threshold
                          and br_short > rule.threshold)
                self._transition(
                    f"burn:{rule.name}:{svc}", active, now,
                    subject=f"slo-burn {svc} {rule.name}",
                    severity=rule.severity,
                    value=min(br_long, br_short),
                    threshold=rule.threshold)

        self._escalate(now)

    # -- state machine -------------------------------------------------------

    def _transition(self, key: str, active: bool, now: float, *,
                    subject: str, severity: str, value: float,
                    threshold: float) -> None:
        alert = self._active.get(key)
        if active:
            if alert is None:
                alert = Alert(key=key, subject=subject, severity=severity,
                              fired_at=now, last_active=now,
                              value=value, threshold=threshold)
                self._active[key] = alert
                self.history.append(alert)
                self._fire(alert, now)
            alert.last_active = now
            alert.value = value
        elif alert is not None and now - alert.last_active >= RESOLVE_HOLD:
            self._resolve(alert, now)

    def _fire(self, alert: Alert, now: float) -> None:
        alert.fault_id = self._attribute(now)
        self._page(alert, now)
        if self.ledger is not None:
            self.ledger.append("alert", alert.subject, agent="alertmgr",
                               status="firing", time=now,
                               detail=alert.fault_id)

    def _resolve(self, alert: Alert, now: float) -> None:
        alert.state = "resolved"
        alert.resolved_at = now
        del self._active[alert.key]
        if self.ledger is not None:
            self.ledger.append("alert", alert.subject, agent="alertmgr",
                               status="resolved", time=now,
                               detail=alert.fault_id)

    def _escalate(self, now: float) -> None:
        for alert in list(self._active.values()):
            if (not alert.escalated and alert.severity != "critical"
                    and now - alert.fired_at >= ESCALATE_AFTER):
                alert.severity = "critical"
                alert.escalated = True
                alert.notes.append(f"{now:.0f} escalated to critical")
                self._page(alert, now)

    def _page(self, alert: Alert, now: float) -> None:
        alert.pages += 1
        self.pages_sent += 1
        if self.channel is not None:
            fid = f" [{alert.fault_id}]" if alert.fault_id else ""
            self.channel.sms(
                RECIPIENT, f"ALERT {alert.subject}{fid}",
                body=(f"value={alert.value:.2f} "
                      f"threshold={alert.threshold:.2f}"),
                severity=alert.severity, sender="alertmgr")

    def _attribute(self, now: float) -> str:
        """Best-effort fault-id attribution: the newest injected fault
        within the lookback window (service-level burn cannot name its
        host; the injector's correlation can)."""
        tracer = getattr(self.sim, "tracer", None)
        if tracer is None or not tracer.enabled:
            return ""
        for inst in reversed(tracer.instants):
            if inst["name"] != "fault.inject":
                continue
            if inst["ts"] < now - FAULT_LOOKBACK:
                break
            fid = inst["args"].get("fault_id", "")
            if fid:
                return fid
        return ""

    # -- persistence ---------------------------------------------------------

    def _save_active(self) -> dict:
        """Active alerts are saved as indices into the history list, so
        after a restore the two still share the very records the state
        machine mutates."""
        index = {id(a): i for i, a in enumerate(self.history)}
        return {key: index[id(a)]
                for key, a in sorted(self._active.items())}

    def _load_active(self, saved: dict) -> None:
        self._active = {key: self.history[int(i)]
                        for key, i in saved.items()}

    # -- queries -------------------------------------------------------------

    def firing(self) -> List[Alert]:
        return sorted(self._active.values(),
                      key=lambda a: (a.fired_at, a.key))

    def alerts_for(self, fault_id: str) -> List[Alert]:
        return [a for a in self.history if a.fault_id == fault_id]
