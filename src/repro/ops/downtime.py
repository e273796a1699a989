"""Downtime ledger.

Fig. 2 is an accounting artefact: hours of service downtime per error
category over a year.  The ledger records incidents (opened when a
fault takes service away, closed when service returns) and aggregates
exactly that table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.faults.models import Category
from repro.persist.core import Persistent, rows, via

__all__ = ["Incident", "DowntimeLedger"]


@dataclass
class Incident:
    """One service-affecting incident."""

    category: Category
    target: str
    start: float
    end: Optional[float] = None
    detected_at: Optional[float] = None
    auto_repaired: Optional[bool] = None
    escalated: bool = False
    note: str = ""

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        if self.end is None:
            return float("nan")
        return self.end - self.start

    def duration_until(self, as_of: float) -> float:
        """Duration clamped to ``as_of``: an incident still open then
        has been down since ``start``, and one closed later has been
        down for the part inside the horizon.  This is what campaign
        aggregation must use -- NaN ``duration`` would silently drop
        open incidents from Fig. 2 totals."""
        end = as_of if self.end is None else min(self.end, as_of)
        return max(0.0, end - self.start)

    @property
    def detection_latency(self) -> Optional[float]:
        if self.detected_at is None:
            return None
        return self.detected_at - self.start


class DowntimeLedger(Persistent):
    """Collects incidents and produces the Fig. 2 aggregation."""

    _persist = (
        rows("incidents", lambda row: Incident(Category(row[0]), *row[1:]),
             lambda i: [i.category.value, i.target, i.start, i.end,
                        i.detected_at, i.auto_repaired, i.escalated, i.note]),
        via("open", "_save_open", "_load_open"))

    def __init__(self):
        self.incidents: List[Incident] = []
        self._open: Dict[str, Incident] = {}

    # -- recording ----------------------------------------------------------

    def open_incident(self, category: Category, target: str,
                      start: float, note: str = "") -> Incident:
        """Open an incident; a second open on the same target is a
        no-op returning the existing one (a fault storm on one service
        is one outage)."""
        existing = self._open.get(target)
        if existing is not None:
            return existing
        inc = Incident(category, target, start, note=note)
        self.incidents.append(inc)
        self._open[target] = inc
        return inc

    def mark_detected(self, target: str, t: float) -> None:
        inc = self._open.get(target)
        if inc is not None and inc.detected_at is None:
            inc.detected_at = t

    def close_incident(self, target: str, end: float, *,
                       auto_repaired: Optional[bool] = None,
                       escalated: bool = False) -> Optional[Incident]:
        inc = self._open.pop(target, None)
        if inc is None:
            return None
        inc.end = end
        if auto_repaired is not None:
            inc.auto_repaired = auto_repaired
        inc.escalated = escalated
        return inc

    # -- persistence -----------------------------------------------------------

    def _save_open(self) -> dict:
        """As positions into the incident list, so identity survives
        the round trip."""
        index = {id(inc): i for i, inc in enumerate(self.incidents)}
        return {target: index[id(inc)]
                for target, inc in self._open.items()}

    def _load_open(self, saved: dict) -> None:
        self._open = {target: self.incidents[int(i)]
                      for target, i in saved.items()}

    # -- aggregation -----------------------------------------------------------

    def hours_by_category(self, as_of: Optional[float] = None
                          ) -> Dict[Category, float]:
        """The Fig. 2 rows: downtime hours per category.

        With ``as_of`` (the campaign horizon), incidents still open at
        the end are *clamped* to it instead of dropped -- a service
        that went down an hour before year-end and was never repaired
        contributed an hour of downtime, not zero -- and incidents
        closed after the horizon only count their inside part.
        """
        out: Dict[Category, float] = {c: 0.0 for c in Category}
        if as_of is None:
            for inc in self.incidents:
                if not inc.open:
                    out[inc.category] += inc.duration / 3600.0
        else:
            for inc in self.incidents:
                out[inc.category] += inc.duration_until(as_of) / 3600.0
        return out

    def total_hours(self, as_of: Optional[float] = None) -> float:
        return sum(self.hours_by_category(as_of).values())
