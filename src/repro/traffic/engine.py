"""The traffic engine: drive user demand against the live site.

:class:`FluidTrafficEngine` models users as an *aggregated flow*: each
tick it Poisson-samples the interval's demand per class from the
diurnal curve, spreads the batch through the front door, and serves it
with one :meth:`Application.serve_batch` call per server.  A simulated
day of 1M+ users costs thousands of events instead of billions of
per-request events, which is what makes user-perceived QoS measurable
at the paper's scale.  (The per-request reference it is checked
against lives with the unit tests.)

It records into :class:`repro.traffic.slo.Sli` per class and, when a
tracer is installed, bumps ``traffic.*`` counters in the metrics
registry.
"""

from __future__ import annotations

from typing import Dict

from repro.traffic.frontdoor import FrontDoor
from repro.traffic.slo import Sli
from repro.traffic.workload import DemandCurve

__all__ = ["FluidTrafficEngine", "doors_for_site", "dispatch_fluid"]


class FluidTrafficEngine:
    """Aggregated-flow mode: one serve_batch call per server per tick."""

    def __init__(self, sim, curve: DemandCurve,
                 doors: Dict[str, FrontDoor], streams, *,
                 step: float = 60.0):
        unknown = set(doors) - set(curve.by_name)
        if unknown:
            raise ValueError(f"doors for unknown classes: {sorted(unknown)}")
        self.sim = sim
        self.curve = curve
        self.doors = dict(doors)
        self.step = float(step)
        self.rng = streams.get("traffic.arrivals")
        self.slis: Dict[str, Sli] = {name: Sli(name) for name in doors}
        self.ticks = 0
        self._event = None
        self._running = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._event = self.sim.schedule(0.0, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        for name in sorted(self.doors):
            cls = self.curve.by_name[name]
            expected = self.curve.expected_requests(cls, now, now + self.step)
            n = int(self.rng.poisson(expected)) if expected > 0 else 0
            if n:
                self._dispatch(name, n, now)
        self.ticks += 1
        self._event = self.sim.schedule(self.step, self._tick)

    def _dispatch(self, cls_name: str, n: int, now: float) -> None:
        dispatch_fluid(
            self.doors[cls_name], n, now,
            lambda served, failed, ms:
                self._account(cls_name, served, failed, ms),
            lambda shed: self._account_shed(cls_name, shed))

    # -- accounting ----------------------------------------------------------

    def _account(self, cls_name: str, served: float, failed: float,
                 latency_ms: float) -> None:
        sli = self.slis[cls_name]
        sli.record_batch(served, failed, latency_ms)
        tracer = self.sim.tracer
        if tracer.enabled:
            m = tracer.metrics
            m.counter("traffic.attempted").inc(served + failed)
            m.counter("traffic.served").inc(served)
            if failed:
                m.counter("traffic.failed").inc(failed)

    def _account_shed(self, cls_name: str, n: int) -> None:
        if n <= 0:
            return
        self.slis[cls_name].record_shed(n)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.metrics.counter("traffic.attempted").inc(n)
            tracer.metrics.counter("traffic.shed").inc(n)


def dispatch_fluid(door, n: int, now: float,
                   record_batch, record_shed) -> None:
    """Route and serve one aggregated batch through a door.

    The shared serving step of the fluid path: the site engine and the
    federation's geo traffic driver both account through it, so their
    per-batch semantics (one state sample per app per tick, shed on
    no-live-targets) cannot drift apart."""
    alloc, shed = door.route(n, now)
    for app, count in alloc:
        served, failed, ms = app.serve_batch(count)
        record_batch(served, failed, ms)
    if shed:
        record_shed(shed)


def doors_for_site(site, *, use_dgspl: bool = True) -> Dict[str, FrontDoor]:
    """Front doors for a built Site, one per user-facing tier.  With
    ``use_dgspl`` (and an agented site) routing follows the admin
    pair's load advertisements; otherwise plain round-robin."""
    dgspl_fn = None
    if use_dgspl and site.admin is not None:
        dgspl_fn = site.admin.current_dgspl
    doors: Dict[str, FrontDoor] = {}
    if site.webservers:
        doors["web"] = FrontDoor("webserver", site.webservers, dgspl_fn)
    if site.frontends:
        doors["frontend"] = FrontDoor("frontend", site.frontends, dgspl_fn)
    if site.databases:
        doors["db"] = FrontDoor("database", site.databases, dgspl_fn)
    return doors
