"""Trace exporters and incident reconstruction.

Three consumers, three formats:

- :func:`to_chrome` / :func:`write_chrome_trace` -- the Chrome
  ``trace_event`` JSON array format, loadable in ``chrome://tracing``
  or Perfetto.  Simulated seconds map to microseconds, span trees map
  to nested complete ("X") events, fault injections/detections to
  instant ("i") marks.
- :func:`incident_traces` -- joins every span and instant carrying the
  same ``fault_id`` into one :class:`IncidentTrace`: the injected ->
  detected -> diagnosed -> repaired -> restored timeline the paper's
  Fig. 2 / §4 claims are made of.
- :func:`format_timeline` -- those incidents as a flat-ASCII report in
  the repo's log idiom, for terminals and CHANGES-style artefacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.trace.tracer import Span, Tracer

__all__ = ["to_chrome", "write_chrome_trace", "IncidentTrace",
           "incident_traces", "format_timeline", "span_durations"]


def _tid(attrs: dict) -> str:
    """Chrome lane: group by host, then agent, then a catch-all."""
    return str(attrs.get("host") or attrs.get("agent")
               or attrs.get("target") or "site")


def to_chrome(tracer: Tracer) -> dict:
    """The trace as a Chrome ``trace_event`` JSON object."""
    events: List[dict] = []
    for sp in tracer.spans:
        if sp.end is None:
            continue        # still open: nothing meaningful to draw
        events.append({
            "name": sp.name,
            "ph": "X",
            "ts": sp.start * 1e6,
            "dur": (sp.end - sp.start) * 1e6,
            "pid": 0,
            "tid": _tid(sp.attrs),
            "args": dict(sp.attrs),
        })
    for inst in tracer.instants:
        events.append({
            "name": inst["name"],
            "ph": "i",
            "ts": inst["ts"] * 1e6,
            "pid": 0,
            "tid": _tid(inst["args"]),
            "s": "g",       # global scope: draw across all lanes
            "args": dict(inst["args"]),
        })
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_chrome(tracer), fh)


# -- incident reconstruction ----------------------------------------------------


@dataclass
class IncidentTrace:
    """One fault's lifecycle, rebuilt from correlated spans/instants."""

    fault_id: str
    kind: str = ""
    target: str = ""
    injected_at: Optional[float] = None
    detected_at: Optional[float] = None
    diagnosed_at: Optional[float] = None
    repaired_at: Optional[float] = None
    restored_at: Optional[float] = None
    repair_outcome: str = ""
    spans: List[Span] = field(default_factory=list)

    @property
    def downtime(self) -> Optional[float]:
        if self.injected_at is None or self.restored_at is None:
            return None
        return self.restored_at - self.injected_at


def incident_traces(tracer: Tracer) -> Dict[str, IncidentTrace]:
    """Group everything carrying a ``fault_id`` into incident trees.

    Phase times are first-occurrence: re-detections on later agent
    wakes (the fault persisted) do not move ``detected_at``.
    """
    incidents: Dict[str, IncidentTrace] = {}

    def inc_for(fid: str) -> IncidentTrace:
        inc = incidents.get(fid)
        if inc is None:
            inc = incidents[fid] = IncidentTrace(fid)
        return inc

    for inst in tracer.instants:
        fid = inst["args"].get("fault_id")
        if not fid:
            continue
        inc = inc_for(fid)
        name, ts = inst["name"], inst["ts"]
        if name == "fault.inject":
            if inc.injected_at is None:
                inc.injected_at = ts
                inc.kind = inst["args"].get("kind", "")
                inc.target = inst["args"].get("target", "")
        elif name == "service.restored":
            if inc.restored_at is None or ts > inc.restored_at:
                inc.restored_at = ts

    for sp in tracer.spans:
        fid = sp.attrs.get("fault_id")
        if not fid or sp.end is None:
            continue
        inc = inc_for(fid)
        inc.spans.append(sp)
        if sp.name == "fault.detect":
            if inc.detected_at is None or sp.start < inc.detected_at:
                inc.detected_at = sp.start
        elif sp.name == "agent.diagnose":
            if inc.diagnosed_at is None or sp.start < inc.diagnosed_at:
                inc.diagnosed_at = sp.start
        elif sp.name.startswith("heal."):
            if sp.attrs.get("outcome") == "ok" and inc.repaired_at is None:
                inc.repaired_at = sp.end
                inc.repair_outcome = sp.name[len("heal."):]
    return incidents


def format_timeline(tracer: Tracer) -> str:
    """The incidents as a flat-ASCII report, one block per fault, in
    the repo's ``t=... <event>`` log idiom."""
    from repro.sim.calendar import format_time
    incidents = sorted(incident_traces(tracer).values(),
                       key=lambda i: (i.injected_at is None,
                                      i.injected_at or 0.0, i.fault_id))
    lines = [f"INCIDENT TIMELINE  ({len(incidents)} correlated fault(s))"]
    if not incidents:
        lines.append("  (no correlated incidents recorded)")

    def stamp(t: float, text: str) -> str:
        return f"    {format_time(t)}  {text}"

    for inc in incidents:
        lines.append(f"  {inc.fault_id} {inc.kind or '?'} "
                     f"-> {inc.target or '?'}")
        t0 = inc.injected_at
        if t0 is not None:
            lines.append(stamp(t0, f"fault injected ({inc.kind})"))
        if inc.detected_at is not None:
            delta = ("" if t0 is None
                     else f" (+{inc.detected_at - t0:.0f} s)")
            by = next((sp.attrs.get("agent", "") for sp in inc.spans
                       if sp.name == "fault.detect"), "")
            by = f" by {by}" if by else ""
            lines.append(stamp(inc.detected_at, f"detected{by}{delta}"))
        if inc.diagnosed_at is not None:
            cause = next((sp.attrs.get("cause", "") for sp in inc.spans
                          if sp.name == "agent.diagnose"), "")
            lines.append(stamp(inc.diagnosed_at,
                               f"diagnosed: {cause or 'unknown'}"))
        relocated = False
        for sp in inc.spans:
            if sp.name.startswith("heal."):
                lines.append(stamp(
                    sp.start,
                    f"{sp.name} {sp.attrs.get('outcome', '?')} "
                    f"(busy {sp.attrs.get('busy_for', 0):.0f} s)"))
            elif sp.name.startswith("relocate."):
                relocated = True
                outcome = sp.attrs.get("outcome")
                lines.append(stamp(
                    sp.start,
                    f"{sp.name} ({sp.end - sp.start:.0f} s)"
                    + (f" {outcome}" if outcome else "")))
        if inc.restored_at is not None:
            dt = inc.downtime
            dt_s = "" if dt is None else f" (downtime {dt:.0f} s)"
            lines.append(stamp(inc.restored_at, f"service restored{dt_s}"))
        elif inc.repaired_at is None and not relocated:
            lines.append("    ...  unresolved in trace window")
    return "\n".join(lines)


# -- span statistics ------------------------------------------------------------


def span_durations(tracer: Tracer, name: str, **attr_filter):
    """Durations (seconds) of finished spans matching name + attrs, as
    a numpy array -- the experiments' span-derived statistics input."""
    import numpy as np
    vals = [sp.end - sp.start
            for sp in tracer.spans_named(name, **attr_filter)]
    return np.asarray(vals, dtype=np.float64)
