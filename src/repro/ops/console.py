"""SystemEdge-style operator console (§4).

"Intelliagent error reporting mechanisms were integrated with
SystemEdge and notifications were presented to operators from within
the SystemEdge graphical user interface."

:class:`OperatorConsole` subscribes to the site notification channel
and keeps the operator-facing state: active alarms grouped by subject,
severity ordering, acknowledge/clear workflow, and an ASCII board (this
system's idea of a GUI).  Duplicate notifications for a subject fold
into one alarm with a repeat count -- operators see one line per
problem, not a scrolling storm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ops.notifications import Notification, NotificationChannel

__all__ = ["Alarm", "OperatorConsole"]

_SEV_ORDER = {"critical": 0, "warning": 1, "info": 2}


@dataclass
class Alarm:
    """One active problem on the console."""

    subject: str
    severity: str
    first_seen: float
    last_seen: float
    count: int = 1
    sender: str = ""
    acked_by: str = ""

    @property
    def acked(self) -> bool:
        return bool(self.acked_by)


class OperatorConsole:
    """The operators' single pane of glass."""

    def __init__(self, channel: NotificationChannel, sim):
        self.sim = sim
        self.alarms: Dict[str, Alarm] = {}
        self.cleared: List[Alarm] = []
        self.total_notifications = 0
        #: live alert feed (repro.observe.alerts.AlertManager)
        self.alert_manager = None
        #: geo-federation feed (repro.federation.Federation)
        self.federation = None
        channel.subscribe(self._on_notification)

    def attach_alerts(self, manager) -> None:
        """Show the alerting tier's firing alerts as a board pane."""
        self.alert_manager = manager

    def attach_federation(self, fed) -> None:
        """Add the geo-federation pane: one line per site."""
        self.federation = fed

    # -- feed ----------------------------------------------------------------

    def _on_notification(self, note: Notification) -> None:
        self.total_notifications += 1
        if note.severity == "info":
            return          # informational mail is not an alarm
        key = note.subject
        alarm = self.alarms.get(key)
        if alarm is None:
            self.alarms[key] = Alarm(
                subject=note.subject, severity=note.severity,
                first_seen=note.time, last_seen=note.time,
                sender=note.sender)
        else:
            alarm.count += 1
            alarm.last_seen = note.time
            if (_SEV_ORDER.get(note.severity, 2)
                    < _SEV_ORDER.get(alarm.severity, 2)):
                alarm.severity = note.severity

    # -- operator workflow --------------------------------------------------------

    def active(self) -> List[Alarm]:
        """Alarms, most severe then oldest first."""
        alarms = list(self.alarms.values())
        alarms.sort(key=lambda a: (_SEV_ORDER.get(a.severity, 2),
                                   a.first_seen))
        return alarms

    def ack(self, subject: str, operator: str) -> bool:
        alarm = self.alarms.get(subject)
        if alarm is None:
            return False
        alarm.acked_by = operator
        return True

    def clear_matching(self, fragment: str) -> int:
        """Problems resolved: move every alarm whose subject contains
        ``fragment`` off the board."""
        victims = [s for s in self.alarms if fragment in s]
        for s in victims:
            self.cleared.append(self.alarms.pop(s))
        return len(victims)

    # -- the "GUI" ---------------------------------------------------------------------

    def board(self, now: Optional[float] = None) -> str:
        now = self.sim.now if now is None else now
        lines = [f"OPERATOR CONSOLE  t={now:.0f}s  "
                 f"active={len(self.alarms)} "
                 f"cleared={len(self.cleared)}"]
        if not self.alarms:
            lines.append("  (all quiet)")
        for a in self.active():
            age_min = (now - a.first_seen) / 60.0
            ack = f" ack:{a.acked_by}" if a.acked else ""
            rep = f" x{a.count}" if a.count > 1 else ""
            lines.append(f"  [{a.severity.upper():<8s}] {a.subject}"
                         f"{rep}  ({age_min:.0f} min){ack}")
        if self.alert_manager is not None:
            firing = self.alert_manager.firing()
            lines.append(f"  -- alerts: {len(firing)} firing, "
                         f"{self.alert_manager.pages_sent} page(s) sent")
            for alert in firing:
                age_min = (now - (alert.fired_at or now)) / 60.0
                fid = f" [{alert.fault_id}]" if alert.fault_id else ""
                lines.append(f"  [{alert.severity.upper():<8s}] "
                             f"{alert.subject}{fid}  "
                             f"({age_min:.0f} min, "
                             f"value {alert.value:.1f})")
        if self.federation is not None:
            lines.extend(self._federation_pane())
        counters = self._live_counters()
        if counters:
            lines.append("  -- site counters: " + "  ".join(
                f"{k}={v:g}" for k, v in counters))
        return "\n".join(lines)

    def _federation_pane(self) -> List[str]:
        """One line per federated site: hosts up, open conditions,
        demand served and user-minutes lost."""
        fed = self.federation
        lines = [f"  -- federation: {len(fed.sites)} site(s), "
                 f"{fed.site_loss_events} loss event(s)"]
        for name in sorted(fed.sites):
            s = fed.site_summary(name)
            state = "LOST" if s["lost"] else "up"
            line = (f"     {name:<8s} {state:<4s} "
                    f"hosts {s['hosts_up']}/{s['hosts_total']}  "
                    f"open-cond {s['open_conditions']}")
            if "served" in s:
                line += (f"  served {s['served']:g}"
                         f"  user-min-lost {s['user_minutes_lost']:.0f}")
            lines.append(line)
        return lines

    #: counters worth a line on the operators' pane of glass
    _BOARD_COUNTERS = ("faults.injected", "agent.faults_found",
                       "agent.heals_succeeded", "agent.escalations",
                       "agent.skipped", "agent.demand_wakes",
                       "admin.demand_wakes", "cron.missed",
                       "jobmgr.resubmitted", "admin.cron_repairs")

    def _live_counters(self) -> List[tuple]:
        snap = self.sim.tracer.metrics.snapshot()["counters"]
        return [(name, snap[name]) for name in self._BOARD_COUNTERS
                if name in snap]
