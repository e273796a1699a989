"""The telemetry pipeline: condition history and burn-window series.

:class:`TelemetryHub` owns two things, each read by a tier above it:

- **condition history**: a :class:`~repro.controlplane.ledger.ConditionLedger`
  attached via :meth:`attach_ledger` streams conditions in as they are
  appended -- each one costs O(1), a ring append, never a scan -- into
  :attr:`~TelemetryHub.condition_log`, which the incident reports join.
- **SLI rings**: a rollup tick every :data:`INTERVAL` simulated seconds
  records cumulative attempted/bad per traffic class from the engine's
  :class:`~repro.traffic.slo.Sli` objects into
  :class:`~repro.metrics.timeseries.TimeSeries` rings (:data:`MAXLEN`
  bounded) -- the exact inputs multi-window burn-rate math needs.
  Rollup listeners registered with :meth:`on_rollup` (the alert
  manager) fire after each tick.

Point-in-time counters stay in the tracer's
:class:`~repro.trace.metrics.MetricsRegistry`; the hub keeps no copy.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Mapping, Optional

from repro.controlplane.ledger import Condition
from repro.metrics.timeseries import TimeSeries
from repro.persist.core import (Persistent, pending, record, rows, scalar,
                                snapshot_node, via)

__all__ = ["TelemetryHub", "INTERVAL", "MAXLEN"]

#: rollup period, simulated seconds
INTERVAL = 60.0
#: ring cap per series: 720 x 60 s = 12 h of history
MAXLEN = 720


class TelemetryHub(Persistent):
    """Condition history and per-class SLI rings over ring buffers."""

    #: ring series, the condition log and the rollup tick; sources
    #: (ledger, SLIs, rollup listeners) are structural wiring
    _persist = (
        via("series", "_save_series", "_load_series"),
        rows("condition_log", *record(Condition)),
        scalar("condition_log_dropped", int), scalar("ticks", int),
        scalar("running", bool, "_running"),
        pending("event", "_event", "_tick"))

    def __init__(self, sim):
        self.sim = sim
        self._series: Dict[str, TimeSeries] = {}
        self._slis: Dict[str, object] = {}
        self._ledgers: List[object] = []
        self._rollup_fns: List[Callable[[float, "TelemetryHub"], None]] = []
        #: retained condition deltas (the ledger itself trims eagerly;
        #: incident reports need the recent history, ring-bounded here)
        self.condition_log: deque = deque(maxlen=16 * MAXLEN)
        #: deltas the ring cap pushed out -- reports reaching further
        #: back than the retained history should know they are clipped
        self.condition_log_dropped = 0
        self.ticks = 0
        self._event = None
        self._running = False

    # -- sources -------------------------------------------------------------

    def attach_ledger(self, ledger) -> None:
        """Stream condition deltas in as they are appended.  Idempotent."""
        if any(led is ledger for led in self._ledgers):
            return
        self._ledgers.append(ledger)
        ledger.on_append(self._on_condition)

    def attach_slis(self, slis: Mapping[str, object]) -> None:
        """Track a traffic engine's per-class SLIs (``engine.slis``)."""
        self._slis.update(slis)

    def on_rollup(self, fn: Callable[[float, "TelemetryHub"], None]) -> None:
        """Run ``fn(now, hub)`` after every rollup tick."""
        self._rollup_fns.append(fn)

    # -- push path -----------------------------------------------------------

    def _on_condition(self, cond) -> None:
        if len(self.condition_log) == self.condition_log.maxlen:
            self.condition_log_dropped += 1
        self.condition_log.append(cond)

    # -- rollup tick ---------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._event = self.sim.schedule(INTERVAL, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        self.ticks += 1

        for name, sli in sorted(self._slis.items()):
            attempted = sli.attempted
            bad = attempted - sli.served
            self.series(f"svc/{name}/attempted").append(now, attempted)
            self.series(f"svc/{name}/bad").append(now, bad)

        for fn in list(self._rollup_fns):
            fn(now, self)

        self._event = self.sim.schedule(INTERVAL, self._tick)

    # -- reading -------------------------------------------------------------

    def series(self, key: str) -> TimeSeries:
        """The named ring series, created on first use."""
        s = self._series.get(key)
        if s is None:
            s = self._series[key] = TimeSeries(key, maxlen=MAXLEN)
        return s

    def window_delta(self, key: str, window: float,
                     now: Optional[float] = None) -> float:
        """Increase of a cumulative series over the trailing window
        (clamped at 0; counters only move forward)."""
        s = self._series.get(key)
        if s is None or not len(s):
            return 0.0
        t = self.sim.now if now is None else now
        return max(0.0, s.last() - s.value_at(t - window))

    def service_names(self) -> List[str]:
        return sorted(self._slis)

    # -- persistence -----------------------------------------------------------

    def _save_series(self) -> dict:
        return snapshot_node(dict(sorted(self._series.items())))

    def _load_series(self, saved: dict) -> None:
        self._series = {}
        for key, state in saved.items():
            self.series(key).restore_state(state)
