"""Unit tests for the telemetry hub: ring series, rollup ticks,
condition push and windowed burn inputs."""

import pytest

from repro.controlplane.ledger import ConditionLedger
from repro.metrics.timeseries import TimeSeries
from repro.observe import DEFAULT_COUNTERS, TelemetryHub
from repro.trace.metrics import MetricsRegistry


class FakeSli:
    def __init__(self):
        self.attempted = 0.0
        self.served = 0.0


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def hub(sim, registry):
    return TelemetryHub(sim, interval=60.0, maxlen=8, registry=registry)


def test_interval_must_be_positive(sim):
    with pytest.raises(ValueError):
        TelemetryHub(sim, interval=0.0)


def test_series_are_ring_bounded(hub):
    s = hub.series("x")
    assert isinstance(s, TimeSeries) and s.maxlen == 8
    for i in range(40):
        s.append(float(i), float(i))
    assert len(s) <= 16          # amortised trim: never 2x the cap
    assert s.dropped >= 24
    assert s.last() == 39.0      # the newest samples survive


def test_rollup_tick_snapshots_watched_counters(sim, hub, registry):
    registry.counter("agent.runs").inc(10)
    hub.watch_counter("agent.runs")
    hub.start()
    sim.run(until=60.0)
    registry.counter("agent.runs").inc(30)
    sim.run(until=120.0)
    assert hub.ticks == 2
    cum = hub.series("metric/agent.runs")
    rate = hub.series("metric/agent.runs/rate")
    assert cum.last() == 40.0
    assert rate.last() == pytest.approx(30.0 / 60.0)


def test_default_counters_are_watched(sim, hub):
    for name in DEFAULT_COUNTERS:
        assert name in hub.watched


def test_sli_rollup_builds_cumulative_attempted_and_bad(sim, hub):
    sli = FakeSli()
    hub.attach_slis({"web": sli})
    hub.start()
    sli.attempted, sli.served = 100.0, 90.0
    sim.run(until=60.0)
    assert hub.series("svc/web/attempted").last() == 100.0
    assert hub.series("svc/web/bad").last() == 10.0
    assert hub.service_names() == ["web"]


def test_condition_push_is_o1_per_event(sim, hub):
    ledger = ConditionLedger()
    hub.attach_ledger(ledger)
    hub.attach_ledger(ledger)           # idempotent
    sim.run(until=10.0)
    ledger.append("host", "db01", status="down", time=sim.now)
    ledger.append("flag", "db01", agent="svc_ora", status="fault",
                  time=sim.now)
    assert hub.hosts_down == {"db01"}
    assert hub.conditions_by_kind == {"host": 1, "flag": 1}
    assert hub.events_in == 2
    assert hub.series("host/db01/up").last() == 0.0
    assert hub.series("host/db01/faults").last() == 1.0
    ledger.append("host", "db01", status="up", time=sim.now)
    assert hub.hosts_down == set()
    assert hub.series("host/db01/up").last() == 1.0
    assert len(hub.condition_log) == 3


def test_window_delta_on_cumulative_series(sim, hub):
    s = hub.series("svc/web/attempted")
    for t, v in ((0.0, 0.0), (60.0, 100.0), (120.0, 250.0)):
        s.append(t, v)
    assert hub.window_delta("svc/web/attempted", 60.0, now=120.0) \
        == pytest.approx(150.0)
    assert hub.window_delta("svc/web/attempted", 1e9, now=120.0) \
        == pytest.approx(250.0)
    assert hub.window_delta("missing", 60.0) == 0.0


def test_record_and_snapshot(sim, hub):
    sim.run(until=5.0)
    hub.record("adhoc", 42.0)
    snap = hub.snapshot()
    assert snap["adhoc"] == {"len": 1, "last": 42.0, "dropped": 0}
    assert "adhoc" in hub.names()


def test_stop_cancels_the_rollup(sim, hub):
    hub.start()
    sim.run(until=60.0)
    assert hub.ticks == 1
    hub.stop()
    sim.run(until=600.0)
    assert hub.ticks == 1


def test_constructed_but_unstarted_pipeline_schedules_nothing(sim, hub):
    """A hub with an alert manager hanging off it costs a run nothing
    until ``start()``: no event armed, no rollup, no series."""
    from repro.observe import AlertManager
    AlertManager(sim, hub).add_detector("metric/agent.runs/rate")
    assert sim.pending() == 0
    sim.run(until=600.0)
    assert sim.events_processed == 0
    assert hub.ticks == 0 and hub.names() == []
