"""The telemetry pipeline: one hub, many sources, windowed series.

:class:`TelemetryHub` is the push/pull seam between the substrate's
existing observability surfaces and the alerting/incident tiers built
on top:

- **push**: a :class:`~repro.controlplane.ledger.ConditionLedger`
  attached via :meth:`attach_ledger` streams conditions in as they are
  appended -- each one costs O(1) (a tally bump and at most one ring
  append), never a scan.
- **pull**: a periodic rollup tick (default 60 s simulated) snapshots
  watched :class:`~repro.trace.metrics.MetricsRegistry` counters into
  cumulative + rate series, and cumulative attempted/bad per traffic
  class from the engine's :class:`~repro.traffic.slo.Sli` objects --
  the exact inputs multi-window burn-rate math needs.

Everything lands in :class:`~repro.metrics.timeseries.TimeSeries` ring
buffers (``maxlen`` bounded), so a week-long run holds hours of
history per series, not the whole run.  Rollup listeners registered
with :meth:`on_rollup` (the alert manager) fire after each tick.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.controlplane.ledger import Condition
from repro.metrics.timeseries import TimeSeries
from repro.persist.core import (Persistent, pending, record, rows, scalar,
                                scalars, snapshot_node, sortedset, table,
                                via)

__all__ = ["TelemetryHub", "DEFAULT_COUNTERS"]

#: registry counters the hub tracks by default -- the site-health set
#: the operator console already surfaces, plus the traffic ledger the
#: burn-rate rules ride on
DEFAULT_COUNTERS = (
    "sim.events", "faults.injected", "agent.faults_found",
    "agent.heals_succeeded", "agent.escalations", "agent.demand_wakes",
    "traffic.attempted", "traffic.served", "traffic.failed",
    "traffic.shed",
)


class TelemetryHub(Persistent):
    """Windowed per-host / per-service telemetry over ring buffers."""

    #: ring series, tallies and the rollup tick; sources (ledger, SLIs,
    #: rollup listeners) are structural wiring
    _persist = (
        via("series", "_save_series", "_load_series"),
        table("prev_counters", float, attr="_prev_counters"),
        table("conditions_by_kind", int),
        rows("condition_log", *record(Condition)),
        scalar("condition_log_dropped", int), sortedset("hosts_down"),
        *scalars(int, "ticks", "events_in"),
        scalar("running", bool, "_running"),
        pending("event", "_event", "_tick"))

    def __init__(self, sim, *, interval: float = 60.0, maxlen: int = 720,
                 registry=None,
                 counters: Tuple[str, ...] = DEFAULT_COUNTERS):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self.sim = sim
        self.interval = float(interval)
        #: ring cap per series: 720 x 60 s = 12 h of history
        self.maxlen = int(maxlen)
        #: metrics source; defaults to the installed tracer's registry
        self.registry = registry
        self.watched: List[str] = list(counters)
        self._series: Dict[str, TimeSeries] = {}
        self._slis: Dict[str, object] = {}
        self._ledgers: List[object] = []
        self._rollup_fns: List[Callable[[float, "TelemetryHub"], None]] = []
        self._prev_counters: Dict[str, float] = {}
        #: per-kind condition tallies (push path)
        self.conditions_by_kind: Dict[str, int] = {}
        #: retained condition deltas (the ledger itself trims eagerly;
        #: incident reports need the recent history, ring-bounded here)
        self.condition_log: deque = deque(maxlen=16 * self.maxlen)
        #: deltas the ring cap pushed out -- reports reaching further
        #: back than the retained history should know they are clipped
        self.condition_log_dropped = 0
        #: hosts currently down according to ledger host conditions
        self.hosts_down: set = set()
        self.ticks = 0
        self.events_in = 0
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

    def watch_counter(self, name: str) -> None:
        if name not in self.watched:
            self.watched.append(name)

    def on_rollup(self, fn: Callable[[float, "TelemetryHub"], None]) -> None:
        """Run ``fn(now, hub)`` after every rollup tick."""
        self._rollup_fns.append(fn)

    # -- push path -----------------------------------------------------------

    def _on_condition(self, cond) -> None:
        self.events_in += 1
        self.conditions_by_kind[cond.kind] = (
            self.conditions_by_kind.get(cond.kind, 0) + 1)
        if len(self.condition_log) == self.condition_log.maxlen:
            self.condition_log_dropped += 1
        self.condition_log.append(cond)
        now = self.sim.now
        if cond.kind == "host":
            if cond.status == "down":
                self.hosts_down.add(cond.host)
            elif cond.status == "up":
                self.hosts_down.discard(cond.host)
            self.series(f"host/{cond.host}/up").append(
                now, 0.0 if cond.status == "down" else 1.0)
        elif cond.kind == "flag" and cond.status == "fault":
            s = self.series(f"host/{cond.host}/faults")
            s.append(now, s.last() + 1.0)

    def record(self, key: str, value: float) -> None:
        """Push one sample at the current simulated time (ad-hoc
        producers: experiments, detectors under test)."""
        self.series(key).append(self.sim.now, value)

    # -- rollup tick ---------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._event = self.sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _registry(self):
        if self.registry is not None:
            return self.registry
        tracer = getattr(self.sim, "tracer", None)
        if tracer is not None and tracer.enabled:
            return tracer.metrics
        return None

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        self.ticks += 1

        reg = self._registry()
        if reg is not None:
            for name in self.watched:
                cur = reg.counter(name).value
                prev = self._prev_counters.get(name, 0.0)
                self._prev_counters[name] = cur
                self.series(f"metric/{name}").append(now, cur)
                self.series(f"metric/{name}/rate").append(
                    now, max(0.0, cur - prev) / self.interval)

        for name, sli in sorted(self._slis.items()):
            attempted = sli.attempted
            bad = attempted - sli.served
            self.series(f"svc/{name}/attempted").append(now, attempted)
            self.series(f"svc/{name}/bad").append(now, bad)

        for fn in list(self._rollup_fns):
            fn(now, self)

        self._event = self.sim.schedule(self.interval, self._tick)

    # -- reading -------------------------------------------------------------

    def series(self, key: str) -> TimeSeries:
        """The named ring series, created on first use."""
        s = self._series.get(key)
        if s is None:
            s = self._series[key] = TimeSeries(key, maxlen=self.maxlen)
        return s

    def names(self) -> List[str]:
        return sorted(self._series)

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

    def snapshot(self) -> Dict[str, dict]:
        """Summary dict for reports: per-series length and newest value."""
        return {key: {"len": len(s), "last": s.last(),
                      "dropped": s.dropped}
                for key, s in sorted(self._series.items())}

    # -- persistence -----------------------------------------------------------

    def _save_series(self) -> dict:
        return snapshot_node(dict(sorted(self._series.items())))

    def _load_series(self, saved: dict) -> None:
        self._series = {}
        for key, state in saved.items():
            self.series(key).restore_state(state)
