"""Causal incident reports: one post-mortem per fault id.

Everything the substrate already records about a fault lives in
different ledgers: the injector stamps ``fault.inject``, agents stamp
detection/diagnosis/heal spans, the condition ledger streams state
deltas, the admin pair logs sweep decisions, the relocator keeps phase
records, the downtime ledger prices the outage and ``traffic/slo.py``
prices the users.  :func:`build_reports` joins all of them on the
fault id (and its correlated target) into :class:`IncidentReport`
objects -- a detection -> diagnose -> heal/relocate -> cutover
timeline with user-minutes attribution and the tier that resolved it.

Accounting discipline: every downtime-ledger incident is attributed to
exactly one report (unattributable ones land in a catch-all), and each
report's downtime is the sum of its incidents' horizon-clamped
durations -- so the report total reconciles with
``DowntimeLedger.total_hours`` by construction, and the user-minutes
totals reconcile with a single :func:`~repro.traffic.slo.join_demand`
pass over the same windows.  :func:`reconcile` checks both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.faults.models import CATEGORY_IMPACT
from repro.sim.calendar import MINUTE, format_time
from repro.trace.export import incident_traces
from repro.traffic.slo import IncidentWindow, join_demand

__all__ = ["IncidentReport", "build_reports", "reconcile",
           "render_markdown", "render_markdown_all", "reports_to_json"]


@dataclass
class IncidentReport:
    """One fault's full story, joined across the substrate's ledgers."""

    fault_id: str
    kind: str = ""
    target: str = ""
    host: str = ""
    category: str = ""
    injected_at: Optional[float] = None
    first_alert_at: Optional[float] = None
    detected_at: Optional[float] = None
    diagnosed_at: Optional[float] = None
    repaired_at: Optional[float] = None
    restored_at: Optional[float] = None
    #: which tier ended it: agent-heal | relocation | human | unresolved
    resolved_by: str = "unresolved"
    downtime_s: float = 0.0
    user_minutes: float = 0.0
    impact: Dict[str, float] = field(default_factory=dict)
    alerts: List[str] = field(default_factory=list)
    conditions: List[str] = field(default_factory=list)
    decisions: List[str] = field(default_factory=list)
    relocations: List[str] = field(default_factory=list)
    #: (time, what) entries, time-ordered
    timeline: List[Tuple[float, str]] = field(default_factory=list)

    @property
    def detection_latency(self) -> Optional[float]:
        if self.injected_at is None:
            return None
        marks = [t for t in (self.first_alert_at, self.detected_at)
                 if t is not None]
        return min(marks) - self.injected_at if marks else None

    def to_dict(self) -> dict:
        return {
            "fault_id": self.fault_id, "kind": self.kind,
            "target": self.target, "host": self.host,
            "category": self.category,
            "injected_at": self.injected_at,
            "first_alert_at": self.first_alert_at,
            "detected_at": self.detected_at,
            "diagnosed_at": self.diagnosed_at,
            "repaired_at": self.repaired_at,
            "restored_at": self.restored_at,
            "detection_latency_s": self.detection_latency,
            "resolved_by": self.resolved_by,
            "downtime_s": self.downtime_s,
            "user_minutes": self.user_minutes,
            "impact": dict(sorted(self.impact.items())),
            "alerts": list(self.alerts),
            "conditions": list(self.conditions),
            "decisions": list(self.decisions),
            "relocations": list(self.relocations),
            "timeline": [[t, what] for t, what in self.timeline],
        }


def _host_of(target: str) -> str:
    return target.partition("/")[0].partition(":")[0]


def build_reports(tracer, *, downtime=None, horizon: Optional[float] = None,
                  hub=None, admin=None, relocator=None, alerts=None,
                  curve=None, qos_step: float = MINUTE
                  ) -> List[IncidentReport]:
    """Join every ledger onto the tracer's correlated incidents.

    Demand impact per downtime category comes from
    :data:`~repro.faults.models.CATEGORY_IMPACT`; ``horizon`` clamps
    open incidents, defaulting to the tracer's current clock.
    """
    horizon = tracer.now if horizon is None else float(horizon)
    traces = incident_traces(tracer)
    reports: Dict[str, IncidentReport] = {}

    for fid, inc in sorted(traces.items()):
        rep = IncidentReport(
            fault_id=fid, kind=inc.kind, target=inc.target,
            host=_host_of(inc.target),
            injected_at=inc.injected_at, detected_at=inc.detected_at,
            diagnosed_at=inc.diagnosed_at, repaired_at=inc.repaired_at,
            restored_at=inc.restored_at)
        reports[fid] = rep

    # -- downtime attribution: every ledger incident lands somewhere ---------
    windows: Dict[str, List[IncidentWindow]] = {}
    if downtime is not None:
        catchall: Optional[IncidentReport] = None
        for inc in downtime.incidents:
            fid = tracer.fault_id_for(inc.target)
            rep = reports.get(fid)
            if rep is None:
                if catchall is None:
                    catchall = reports[""] = IncidentReport(
                        fault_id="", target="(unattributed)",
                        category="mixed")
                rep = catchall
            dur = inc.duration_until(horizon)
            rep.downtime_s += dur
            if not rep.category:
                rep.category = inc.category.name
            if inc.start < horizon and dur > 0:
                imp = dict(CATEGORY_IMPACT.get(inc.category, {}))
                if imp:
                    windows.setdefault(rep.fault_id, []).append(
                        IncidentWindow(start=inc.start, duration=dur,
                                       impact=imp))
                    for name, frac in imp.items():
                        rep.impact[name] = max(rep.impact.get(name, 0.0),
                                               frac)

    # -- user-minutes: price each report's windows on the demand curve -------
    if curve is not None:
        for fid, wins in windows.items():
            outcome = join_demand(curve, wins, horizon=horizon,
                                  step=qos_step)
            reports[fid].user_minutes = outcome.user_minutes_lost

    # -- the other ledgers, each grouped by host once, in log order ----------
    conditions_of: Dict[str, list] = {}
    for c in (hub.condition_log if hub is not None else ()):
        conditions_of.setdefault(c.host, []).append(c)
    decisions_of: Dict[str, list] = {}
    for entry in (admin.decision_log if admin is not None else ()):
        decisions_of.setdefault(entry[2], []).append(entry)
    for rep in reports.values():
        if alerts is not None and rep.fault_id:
            mine = alerts.alerts_for(rep.fault_id)
            rep.alerts = [a.subject for a in mine]
            if mine:
                rep.first_alert_at = min(a.fired_at for a in mine)
        if rep.host:
            rep.conditions = [
                f"{c.time:.0f} {c.kind} {c.host} {c.status} "
                f"{c.detail}".rstrip()
                for c in conditions_of.get(rep.host, ())]
            rep.decisions = [f"{t:.0f} {action} {host} {reason}".rstrip()
                             for t, action, host, reason
                             in decisions_of.get(rep.host, ())]
        if relocator is not None:
            recs = [r for r in relocator.records
                    if (rep.fault_id and r.fault_id == rep.fault_id)
                    or (rep.host and r.source_host == rep.host)]
            rep.relocations = [
                f"{r.started:.0f} {r.subject} -> {r.target_host or '?'} "
                f"phase={r.phase} "
                f"{'ok' if r.success else 'rolled-back'}"
                for r in recs]
            if recs and any(r.success for r in recs):
                rep.resolved_by = "relocation"
        _finish_report(rep)

    out = list(reports.values())
    out.sort(key=lambda r: (r.injected_at is None, r.injected_at or 0.0,
                            r.fault_id))
    return out


def _finish_report(rep: IncidentReport) -> None:
    """Resolution attribution + the merged timeline."""
    if rep.resolved_by == "unresolved":
        if rep.repaired_at is not None:
            rep.resolved_by = "agent-heal"
        elif any("escalate" in d for d in rep.decisions):
            rep.resolved_by = "human"

    tl: List[Tuple[float, str]] = []
    if rep.injected_at is not None:
        tl.append((rep.injected_at, f"fault injected ({rep.kind})"))
    if rep.first_alert_at is not None:
        tl.append((rep.first_alert_at,
                   "burn-rate alert paged "
                   + (", ".join(rep.alerts) if rep.alerts else "")))
    if rep.detected_at is not None:
        tl.append((rep.detected_at, "detected by agents"))
    if rep.diagnosed_at is not None:
        tl.append((rep.diagnosed_at, "diagnosed"))
    if rep.repaired_at is not None:
        tl.append((rep.repaired_at, "healed"))
    for line in rep.relocations:
        t = float(line.split(" ", 1)[0])
        tl.append((t, f"relocation: {line.split(' ', 1)[1]}"))
    for line in rep.decisions:
        parts = line.split(" ", 2)
        tl.append((float(parts[0]), f"admin: {parts[1]} "
                   + (parts[2] if len(parts) > 2 else "")))
    if rep.restored_at is not None:
        tl.append((rep.restored_at, "service restored (cutover complete)"))
    tl.sort(key=lambda e: e[0])
    rep.timeline = tl


# -- reconciliation -----------------------------------------------------------


def reconcile(reports: List[IncidentReport], *, downtime, curve=None,
              horizon: float, qos_step: float = MINUTE) -> dict:
    """Check the reports against the books they were built from.

    Downtime: the per-report sum must equal the downtime ledger's
    horizon-clamped total.  User-minutes: the per-report sum must equal
    one :func:`join_demand` pass over the union of windows (exact when
    incident windows do not overlap; overlapping windows saturate in
    the joined pass, which the ``user_minutes_overlap`` flag records).
    """
    reports_h = sum(r.downtime_s for r in reports) / 3600.0
    ledger_h = downtime.total_hours(as_of=horizon)

    out = {
        "horizon_s": horizon,
        "reports": len(reports),
        "downtime_reports_h": reports_h,
        "downtime_ledger_h": ledger_h,
        "downtime_diff_h": reports_h - ledger_h,
        "downtime_ok": abs(reports_h - ledger_h) < 1e-6,
    }
    if curve is not None:
        wins = []
        for inc in downtime.incidents:
            dur = inc.duration_until(horizon)
            imp = dict(CATEGORY_IMPACT.get(inc.category, {}))
            if inc.start < horizon and dur > 0 and imp:
                wins.append(IncidentWindow(start=inc.start, duration=dur,
                                           impact=imp))
        joined = join_demand(curve, wins, horizon=horizon, step=qos_step)
        um_reports = sum(r.user_minutes for r in reports)
        um_joined = joined.user_minutes_lost
        out.update({
            "user_minutes_reports": um_reports,
            "user_minutes_joined": um_joined,
            "user_minutes_diff": um_reports - um_joined,
            # per-report pricing double-counts instants where two
            # reports' windows overlap; equal means none overlapped
            "user_minutes_overlap": um_reports > um_joined + 1e-6,
            "user_minutes_ok": abs(um_reports - um_joined)
                               <= max(1e-6, 1e-9 * max(um_reports,
                                                       um_joined)),
        })
    return out


# -- rendering -----------------------------------------------------------------


def render_markdown(rep: IncidentReport) -> str:
    """One report as a markdown post-mortem section."""
    title = rep.fault_id or "unattributed"
    lines = [f"## Incident {title}: {rep.kind or rep.category or '?'} "
             f"on `{rep.target or '?'}`", ""]
    lines.append(f"- **category**: {rep.category or '?'}")
    lines.append(f"- **resolved by**: {rep.resolved_by}")
    lines.append(f"- **downtime**: {rep.downtime_s:.0f} s "
                 f"({rep.downtime_s / 3600.0:.2f} h)")
    lines.append(f"- **user-minutes lost**: {rep.user_minutes:,.0f}")
    dl = rep.detection_latency
    if dl is not None:
        lines.append(f"- **detection latency**: {dl:.0f} s")
    if rep.impact:
        imp = ", ".join(f"{k}={v:.3f}"
                        for k, v in sorted(rep.impact.items()))
        lines.append(f"- **demand impact**: {imp}")
    if rep.alerts:
        lines.append(f"- **alerts**: {', '.join(rep.alerts)}")
    lines.append("")
    if rep.timeline:
        lines.append("| time | event |")
        lines.append("| --- | --- |")
        for t, what in rep.timeline:
            lines.append(f"| {format_time(t)} | {what} |")
        lines.append("")
    if rep.conditions:
        lines.append(f"<details><summary>{len(rep.conditions)} condition "
                     f"delta(s)</summary>")
        lines.append("")
        for c in rep.conditions:
            lines.append(f"- `{c}`")
        lines.append("")
        lines.append("</details>")
        lines.append("")
    return "\n".join(lines)


def render_markdown_all(reports: List[IncidentReport],
                        recon: Optional[Mapping] = None) -> str:
    """All reports plus the reconciliation footer as one document."""
    parts = ["# Incident reports", ""]
    parts.append(f"{len(reports)} incident(s).")
    parts.append("")
    for rep in reports:
        parts.append(render_markdown(rep))
    if recon is not None:
        parts.append("## Reconciliation")
        parts.append("")
        parts.append(f"- downtime: reports "
                     f"{recon['downtime_reports_h']:.4f} h vs ledger "
                     f"{recon['downtime_ledger_h']:.4f} h "
                     f"({'OK' if recon['downtime_ok'] else 'MISMATCH'})")
        if "user_minutes_joined" in recon:
            parts.append(
                f"- user-minutes: reports "
                f"{recon['user_minutes_reports']:,.0f} vs joined "
                f"{recon['user_minutes_joined']:,.0f} "
                f"({'OK' if recon['user_minutes_ok'] else 'MISMATCH'})")
        parts.append("")
    return "\n".join(parts)


def reports_to_json(reports: List[IncidentReport],
                    recon: Optional[Mapping] = None) -> dict:
    doc: dict = {"incidents": [r.to_dict() for r in reports]}
    if recon is not None:
        doc["reconciliation"] = dict(recon)
    return doc
