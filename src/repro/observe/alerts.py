"""In-sim alerting: burn-rate rules, anomaly detectors, alert pages.

The SRE-workbook shape, run *inside* the simulation: each traffic
class is watched by multi-window multi-burn-rate rules (a long window
for significance, a short window so recovered problems stop paging),
and any hub series can carry an EWMA z-score anomaly detector.  Alert
instances move pending -> firing -> resolved with hold times on both
edges (flap suppression), page the on-call through the site
:class:`~repro.ops.notifications.NotificationChannel`, escalate
severity when they stay firing, and are attributed to the fault id the
tracer correlates with the damage -- the join key the incident
reports use.

The point of running this in-sim: the paper's detection story is a
cron grid (agents wake every ~300 s).  A burn-rate alert over 60 s
telemetry rollups pages within a tick or two of user impact, and the
``incidents`` experiment measures that gap against the cron bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.persist.core import (Persistent, record, rows, scalars, table,
                                via)
from repro.traffic.slo import burn_rate

__all__ = ["BurnRateRule", "DEFAULT_BURN_RULES", "EwmaAnomalyDetector",
           "Alert", "AlertManager"]


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


class EwmaAnomalyDetector:
    """Exponentially-weighted mean/variance z-score detector.

    Feed it one sample per rollup; it answers whether the sample sits
    more than ``z`` deviations from the running mean.  ``warmup``
    samples are consumed before it may trigger, and ``min_std`` floors
    the deviation so a perfectly flat warmup does not make every later
    wiggle infinite sigma.
    """

    def __init__(self, *, alpha: float = 0.3, z: float = 4.0,
                 warmup: int = 10, min_std: float = 1e-3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        self.alpha = float(alpha)
        self.z = float(z)
        self.warmup = int(warmup)
        self.min_std = float(min_std)
        self.mean = 0.0
        self.var = 0.0
        self.samples = 0
        self.last_score = 0.0

    def observe(self, value: float) -> bool:
        """Update with one sample; True when it is anomalous."""
        v = float(value)
        self.samples += 1
        if self.samples == 1:
            self.mean = v
            self.last_score = 0.0
            return False
        diff = v - self.mean
        std = max(self.min_std, math.sqrt(self.var))
        self.last_score = abs(diff) / std
        anomalous = (self.samples > self.warmup
                     and self.last_score > self.z)
        if not anomalous:
            # anomalies are excluded from the baseline, else one spike
            # teaches the detector that spikes are normal
            self.mean += self.alpha * diff
            self.var = (1.0 - self.alpha) * (self.var
                                             + self.alpha * diff * diff)
        return anomalous


@dataclass
class Alert:
    """One alert instance through its lifecycle."""

    key: str
    subject: str
    severity: str
    opened_at: float
    state: str = "pending"       # pending | firing | resolved
    fired_at: Optional[float] = None
    resolved_at: Optional[float] = None
    #: last time the condition was observed active
    last_active: float = 0.0
    fault_id: str = ""
    value: float = 0.0
    threshold: float = 0.0
    pages: int = 0
    escalated: bool = False
    notes: List[str] = field(default_factory=list)

    @property
    def firing(self) -> bool:
        return self.state == "firing"


class AlertManager(Persistent):
    """Evaluates rules on every hub rollup and owns alert lifecycles."""

    #: alert lifecycles, detector baselines and counters
    _persist = (via("detectors", "_save_detectors", "_load_detectors"),
                table("det_seen", float, attr="_det_seen"),
                rows("history", *record(Alert)),
                via("active", "_save_active", "_load_active"),
                *scalars(int, "pages_sent", "flaps_suppressed"))

    def __init__(self, sim, hub, *, channel=None, objective: float = 0.999,
                 rules: Tuple[BurnRateRule, ...] = DEFAULT_BURN_RULES,
                 recipient: str = "oncall-sre",
                 hold: float = 0.0, resolve_hold: float = 300.0,
                 escalate_after: float = 1800.0,
                 fault_lookback: float = 3600.0):
        self.sim = sim
        self.hub = hub
        self.channel = channel
        self.objective = float(objective)
        self.rules = tuple(rules)
        self.recipient = recipient
        #: seconds a condition must stay active before paging (0 = the
        #: multi-window rule itself is the flap guard)
        self.hold = float(hold)
        #: seconds a firing condition must stay quiet before resolving
        self.resolve_hold = float(resolve_hold)
        #: firing this long at sub-critical severity escalates the page
        self.escalate_after = float(escalate_after)
        self.fault_lookback = float(fault_lookback)
        self.ledger = None
        #: (series_key, detector) anomaly watches
        self._detectors: Dict[str, EwmaAnomalyDetector] = {}
        self._det_seen: Dict[str, float] = {}
        self._active: Dict[str, Alert] = {}
        self.history: List[Alert] = []
        self.pages_sent = 0
        self.flaps_suppressed = 0
        hub.on_rollup(self.evaluate)

    # -- wiring --------------------------------------------------------------

    def attach_ledger(self, ledger) -> None:
        """Publish alert transitions as ``alert`` conditions, so the
        control plane and console see pages in the same stream as
        flags and host state."""
        self.ledger = ledger

    def add_detector(self, series_key: str,
                     detector: Optional[EwmaAnomalyDetector] = None
                     ) -> EwmaAnomalyDetector:
        det = detector or EwmaAnomalyDetector()
        self._detectors[series_key] = det
        return det

    # -- evaluation (rollup listener) ----------------------------------------

    def evaluate(self, now: float, hub) -> None:
        for svc in hub.service_names():
            att_key = f"svc/{svc}/attempted"
            bad_key = f"svc/{svc}/bad"
            for rule in self.rules:
                br_long = burn_rate(
                    hub.window_delta(att_key, rule.long_window, now),
                    hub.window_delta(bad_key, rule.long_window, now),
                    self.objective)
                br_short = burn_rate(
                    hub.window_delta(att_key, rule.short_window, now),
                    hub.window_delta(bad_key, rule.short_window, now),
                    self.objective)
                active = (br_long > rule.threshold
                          and br_short > rule.threshold)
                self._transition(
                    f"burn:{rule.name}:{svc}", active, now,
                    subject=f"slo-burn {svc} {rule.name}",
                    severity=rule.severity,
                    value=min(br_long, br_short),
                    threshold=rule.threshold)

        for key, det in self._detectors.items():
            s = hub._series.get(key)
            if s is None or not len(s):
                continue
            t_last = s.last_time()
            if t_last <= self._det_seen.get(key, float("-inf")):
                continue
            self._det_seen[key] = t_last
            anomalous = det.observe(s.last())
            self._transition(
                f"anomaly:{key}", anomalous, now,
                subject=f"anomaly {key}", severity="warning",
                value=det.last_score, threshold=det.z)

        self._escalate(now)

    # -- state machine -------------------------------------------------------

    def _transition(self, key: str, active: bool, now: float, *,
                    subject: str, severity: str, value: float,
                    threshold: float) -> None:
        alert = self._active.get(key)
        if active:
            if alert is None:
                alert = Alert(key=key, subject=subject, severity=severity,
                              opened_at=now, last_active=now,
                              value=value, threshold=threshold)
                self._active[key] = alert
                self.history.append(alert)
            alert.last_active = now
            alert.value = value
            if alert.state == "pending" and now - alert.opened_at >= self.hold:
                self._fire(alert, now)
        elif alert is not None:
            if alert.state == "pending":
                # never fired: a flap the hold time swallowed
                self.flaps_suppressed += 1
                del self._active[key]
                self.history.remove(alert)
            elif alert.state == "firing" \
                    and now - alert.last_active >= self.resolve_hold:
                self._resolve(alert, now)

    def _fire(self, alert: Alert, now: float) -> None:
        alert.state = "firing"
        alert.fired_at = now
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
            if (alert.state == "firing" and not alert.escalated
                    and alert.severity != "critical"
                    and alert.fired_at is not None
                    and now - alert.fired_at >= self.escalate_after):
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
                self.recipient, f"ALERT {alert.subject}{fid}",
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
            if inst["ts"] < now - self.fault_lookback:
                break
            fid = inst["args"].get("fault_id", "")
            if fid:
                return fid
        return ""

    # -- persistence ---------------------------------------------------------

    def _save_detectors(self) -> dict:
        return {key: [det.mean, det.var, det.samples, det.last_score]
                for key, det in sorted(self._detectors.items())}

    def _load_detectors(self, saved: dict) -> None:
        if set(saved) != set(self._detectors):
            raise KeyError(
                f"alert snapshot detectors {sorted(saved)} != rebuilt "
                f"{sorted(self._detectors)}")
        for key, det in self._detectors.items():
            mean, var, samples, last_score = saved[key]
            det.mean = float(mean)
            det.var = float(var)
            det.samples = int(samples)
            det.last_score = float(last_score)

    def _save_active(self) -> dict:
        """Active alerts are saved as indices into the history list so
        ``_transition``'s ``history.remove`` keeps operating on the
        same objects after a restore."""
        index = {id(a): i for i, a in enumerate(self.history)}
        return {key: index[id(a)]
                for key, a in sorted(self._active.items())}

    def _load_active(self, saved: dict) -> None:
        self._active = {key: self.history[int(i)]
                        for key, i in saved.items()}

    # -- queries -------------------------------------------------------------

    def firing(self) -> List[Alert]:
        out = [a for a in self._active.values() if a.state == "firing"]
        out.sort(key=lambda a: (a.fired_at or 0.0, a.key))
        return out

    def first_fired_at(self, *, fault_id: str = "") -> Optional[float]:
        """Earliest page time (optionally only alerts attributed to one
        fault id) -- the detection-latency probe the experiments use."""
        times = [a.fired_at for a in self.history
                 if a.fired_at is not None
                 and (not fault_id or a.fault_id == fault_id)]
        return min(times) if times else None

    def alerts_for(self, fault_id: str) -> List[Alert]:
        return [a for a in self.history if a.fault_id == fault_id]
