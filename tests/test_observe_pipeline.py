"""Unit tests for the telemetry hub: ring series, rollup ticks,
condition push and windowed burn inputs."""

import math

import pytest

from repro.controlplane.ledger import ConditionLedger
from repro.metrics.timeseries import TimeSeries
from repro.observe import TelemetryHub
from repro.observe.pipeline import INTERVAL, MAXLEN


class FakeSli:
    def __init__(self):
        self.attempted = 0.0
        self.served = 0.0


@pytest.fixture
def hub(sim):
    return TelemetryHub(sim)


def test_series_are_ring_bounded(hub):
    s = hub.series("x")
    assert isinstance(s, TimeSeries) and s.maxlen == MAXLEN
    n = 5 * MAXLEN
    for i in range(n):
        s.append(float(i), float(i))
    assert len(s) <= 2 * MAXLEN  # amortised trim: never 2x the cap
    assert s.dropped >= n - 2 * MAXLEN
    assert s.last() == n - 1.0   # the newest samples survive


def test_sli_rollup_builds_cumulative_attempted_and_bad(sim, hub):
    sli = FakeSli()
    hub.attach_slis({"web": sli})
    hub.start()
    sli.attempted, sli.served = 100.0, 90.0
    sim.run(until=INTERVAL)
    assert hub.series("svc/web/attempted").last() == 100.0
    assert hub.series("svc/web/bad").last() == 10.0
    assert hub.service_names() == ["web"]


def test_condition_push_is_o1_per_event(sim, hub):
    """Each streamed condition is one ring append -- no tally, no
    per-host series: the condition log is the only copy."""
    ledger = ConditionLedger()
    hub.attach_ledger(ledger)
    hub.attach_ledger(ledger)           # idempotent
    sim.run(until=10.0)
    ledger.append("host", "db01", status="down", time=sim.now)
    ledger.append("flag", "db01", agent="svc_ora", status="fault",
                  time=sim.now)
    ledger.append("host", "db01", status="up", time=sim.now)
    assert [(c.kind, c.status) for c in hub.condition_log] == [
        ("host", "down"), ("flag", "fault"), ("host", "up")]
    assert hub._series == {}


def test_window_delta_on_cumulative_series(sim, hub):
    s = hub.series("svc/web/attempted")
    for t, v in ((0.0, 0.0), (60.0, 100.0), (120.0, 250.0)):
        s.append(t, v)
    assert hub.window_delta("svc/web/attempted", 60.0, now=120.0) \
        == pytest.approx(150.0)
    assert hub.window_delta("svc/web/attempted", 1e9, now=120.0) \
        == pytest.approx(250.0)
    assert hub.window_delta("missing", 60.0) == 0.0


def test_constructed_but_unstarted_pipeline_schedules_nothing(sim, hub):
    """A hub with an alert manager hanging off it costs a run nothing
    until ``start()``: no event armed, no rollup, no series."""
    from repro.observe import AlertManager
    AlertManager(sim, hub)
    assert sim.peek() == math.inf
    sim.run(until=10 * INTERVAL)
    assert sim.events_processed == 0
    assert hub.ticks == 0 and hub._series == {}


def test_an_observed_storm_keeps_only_the_burn_inputs():
    """After an observed, traced fault storm with traffic, the hub's
    rings are exactly the per-class attempted/bad pairs the burn rules
    read, and the tracer's registry holds only counters some producer
    incremented -- the hub neither mirrors nor creates them."""
    from repro.experiments.runner import FidelityHarness
    from repro.experiments.site import SiteConfig, build_site
    from repro.faults.models import Category
    from repro.trace import install_tracer
    from repro.traffic.engine import FluidTrafficEngine, doors_for_site
    from repro.traffic.workload import financial_curve

    site = build_site(SiteConfig.test_scale(
        seed=0, spare_servers=1, observe=True, with_workload=False,
        with_feeds=False))
    tracer = install_tracer(site.sim)
    harness = FidelityHarness(site)
    engine = FluidTrafficEngine(site.sim, financial_curve(100_000),
                                doors_for_site(site), site.streams)
    engine.start()
    site.telemetry.attach_slis(engine.slis)
    harness.injector.schedule_poisson({c: 60.0 for c in Category}, 3600.0)
    site.run(2 * 3600.0)

    hub = site.telemetry
    assert hub.ticks > 0 and len(hub.condition_log) > 0
    assert sorted(hub._series) == sorted(
        f"svc/{name}/{side}" for name in engine.slis
        for side in ("attempted", "bad"))
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["faults.injected"] > 0
    assert [name for name, value in counters.items() if not value] == []
