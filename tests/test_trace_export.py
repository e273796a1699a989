"""Unit tests for trace exporters: Chrome JSON, incident
reconstruction, the ASCII timeline and span statistics."""

import json

import pytest

from repro.experiments.report import metrics_summary
from repro.sim import Simulator
from repro.trace import (Tracer, format_timeline, incident_traces,
                         install_tracer, span_durations, to_chrome,
                         write_chrome_trace)


@pytest.fixture
def traced_incident(sim):
    """A hand-built fault lifecycle: inject -> detect -> diagnose ->
    heal -> restore, all correlated under F0001."""
    tracer = install_tracer(sim)

    def play():
        tracer.correlate("db01/ora", "F0001")
        tracer.instant("fault.inject", fault_id="F0001", kind="db-crash",
                       target="db01/ora")
        yield 300.0
        tracer.record_span("fault.detect", sim.now, sim.now,
                           fault_id="F0001", agent="svc_ora", host="db01")
        with tracer.span("agent.diagnose", fault_id="F0001", host="db01",
                         cause="process-gone"):
            yield 2.0
        with tracer.span("heal.restart_app", fault_id="F0001",
                         host="db01") as sp:
            yield 60.0
            sp.set_attr("outcome", "ok")
            sp.set_attr("busy_for", 60.0)
        tracer.instant("service.restored", fault_id="F0001",
                       target="db01/ora")

    sim.spawn(play())
    sim.run()
    return tracer


# -- chrome export ------------------------------------------------------------


def test_chrome_json_round_trip(traced_incident, tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(traced_incident, str(path))
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert events == sorted(events, key=lambda e: e["ts"])
    names = {e["name"] for e in events}
    assert {"fault.inject", "fault.detect", "agent.diagnose",
            "heal.restart_app", "service.restored"} <= names
    heal = next(e for e in events if e["name"] == "heal.restart_app")
    assert heal["ph"] == "X"
    assert heal["ts"] == pytest.approx(302.0 * 1e6)
    assert heal["dur"] == pytest.approx(60.0 * 1e6)
    assert heal["tid"] == "db01"
    inject = next(e for e in events if e["name"] == "fault.inject")
    assert inject["ph"] == "i"
    assert inject["args"]["fault_id"] == "F0001"


def test_chrome_export_skips_open_spans(sim):
    tracer = install_tracer(sim)
    tracer.span("never.finished")
    tracer.span("done").finish()
    names = [e["name"] for e in to_chrome(tracer)["traceEvents"]]
    assert names == ["done"]


# -- incident reconstruction --------------------------------------------------


def test_incident_trace_phases(traced_incident):
    inc = incident_traces(traced_incident)["F0001"]
    assert inc.kind == "db-crash" and inc.target == "db01/ora"
    assert inc.injected_at == 0.0
    assert inc.detected_at == 300.0
    assert inc.diagnosed_at == 300.0
    assert inc.repaired_at == 362.0
    assert inc.restored_at == 362.0
    assert inc.repair_outcome == "restart_app"
    assert inc.downtime == 362.0


def test_redetection_keeps_first_occurrence(sim):
    tracer = install_tracer(sim)
    tracer.instant("fault.inject", fault_id="F0001", kind="hang", target="x")
    tracer.record_span("fault.detect", 10.0, 10.0, fault_id="F0001")
    tracer.record_span("fault.detect", 20.0, 20.0, fault_id="F0001")
    inc = incident_traces(tracer)["F0001"]
    assert inc.detected_at == 10.0


def test_timeline_renders_phases(traced_incident):
    text = format_timeline(traced_incident)
    assert "F0001 db-crash -> db01/ora" in text
    assert "fault injected" in text
    assert "detected by svc_ora (+300 s)" in text
    assert "diagnosed: process-gone" in text
    assert "heal.restart_app ok (busy 60 s)" in text
    assert "service restored (downtime 362 s)" in text


def test_timeline_marks_unresolved(sim):
    tracer = install_tracer(sim)
    tracer.instant("fault.inject", fault_id="F0009", kind="nic-fail",
                   target="fe01:eth0")
    assert "unresolved in trace window" in format_timeline(tracer)


def test_timeline_with_no_incidents(sim):
    assert "no correlated incidents" in format_timeline(install_tracer(sim))


# -- span statistics ----------------------------------------------------------


def test_span_durations_filtering():
    tracer = Tracer()
    tracer.record_span("manual.repair", 0.0, 10.0, category="human")
    tracer.record_span("manual.repair", 0.0, 20.0, category="human",
                       escalated=True)
    tracer.record_span("manual.repair", 0.0, 40.0, category="lsf")
    assert span_durations(tracer, "manual.repair").tolist() == \
        [10.0, 20.0, 40.0]
    assert span_durations(tracer, "manual.repair",
                          category="human").tolist() == [10.0, 20.0]
    assert span_durations(tracer, "manual.repair",
                          escalated=True).tolist() == [20.0]
    assert span_durations(tracer, "nope").tolist() == []


# -- metrics rendering --------------------------------------------------------


def test_metrics_summary_renders_all_kinds():
    tracer = Tracer()
    tracer.metrics.counter("agent.runs").inc(7)
    tracer.metrics.gauge("queue.depth").set(3.0)
    tracer.metrics.histogram("repair_s", buckets=(60.0,)).observe(30.0)
    text = metrics_summary(tracer.metrics.snapshot(), title="T")
    assert text.startswith("T")
    assert "agent.runs" in text and "7.00" in text
    assert "queue.depth" in text
    assert "repair_s" in text


def test_metrics_summary_empty():
    assert "(no metrics recorded)" in metrics_summary({})


# -- degenerate traces (exporters must never choke) ---------------------------


def test_chrome_round_trip_on_empty_tracer(sim, tmp_path):
    tracer = install_tracer(sim)
    path = tmp_path / "empty.json"
    write_chrome_trace(tracer, str(path))
    doc = json.loads(path.read_text())
    assert doc["traceEvents"] == []
    assert doc["displayTimeUnit"] == "ms"


def test_chrome_round_trip_on_single_span(sim, tmp_path):
    tracer = install_tracer(sim)
    tracer.record_span("solo", 1.0, 2.5, host="db01")
    path = tmp_path / "one.json"
    write_chrome_trace(tracer, str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) == 1
    (ev,) = events
    assert ev["name"] == "solo" and ev["ph"] == "X"
    assert ev["ts"] == pytest.approx(1.0 * 1e6)
    assert ev["dur"] == pytest.approx(1.5 * 1e6)


def test_timeline_on_single_uncorrelated_span(sim):
    tracer = install_tracer(sim)
    tracer.record_span("solo", 1.0, 2.5, host="db01")
    # a span with no fault id is not an incident; the renderer says so
    assert "no correlated incidents" in format_timeline(tracer)


def test_timeline_on_minimal_single_span_incident(sim):
    tracer = install_tracer(sim)
    tracer.instant("fault.inject", fault_id="F0001", kind="hang",
                   target="db01/ora")
    tracer.record_span("fault.detect", 5.0, 5.0, fault_id="F0001",
                       agent="svc_ora")
    text = format_timeline(tracer)
    assert "F0001 hang -> db01/ora" in text
    assert "detected by svc_ora" in text
    assert "unresolved in trace window" in text
