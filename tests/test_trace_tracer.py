"""Unit tests for the sim-time tracer and the metrics registry."""

import pytest

from repro.sim import Simulator
from repro.trace import (NULL_SPAN, NULL_TRACER, MetricsRegistry, Tracer,
                         install_tracer)


# -- spans --------------------------------------------------------------------


def test_span_stamps_sim_time(sim):
    tracer = install_tracer(sim)
    sim.schedule(5.0, lambda: tracer.span("work").finish())
    sim.run()
    (sp,) = tracer.spans
    assert sp.start == 5.0 and sp.end == 5.0
    assert sp.end - sp.start == 0.0


def test_span_nesting_records_parent(sim):
    tracer = install_tracer(sim)
    outer = tracer.span("outer")
    inner = tracer.span("inner")
    assert inner.parent is outer
    inner.finish()
    outer.finish()
    sibling = tracer.span("sibling")
    assert sibling.parent is None
    sibling.finish()


def test_span_context_manager_closes_and_flags_errors(sim):
    tracer = install_tracer(sim)
    with tracer.span("ok") as sp:
        sp.set_attr("k", 1)
    assert sp.end is not None and sp.attrs == {"k": 1}
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("x")
    boom = tracer.spans_named("boom")[0]
    assert boom.attrs["error"] == "RuntimeError"


def test_finish_is_idempotent(sim):
    tracer = install_tracer(sim)
    sp = tracer.span("once")
    sp.finish()
    end = sp.end
    sim.schedule(10.0, lambda: None)
    sim.run()
    sp.finish()
    assert sp.end == end


def test_out_of_order_finish_does_not_corrupt_stack(sim):
    tracer = install_tracer(sim)
    outer = tracer.span("outer")
    inner = tracer.span("inner")
    outer.finish()          # parent closed first
    inner.finish()
    nxt = tracer.span("next")
    assert nxt.parent is None
    nxt.finish()


def test_record_span_uses_explicit_timestamps():
    tracer = Tracer()       # simless
    sp = tracer.record_span("manual.repair", 100.0, 160.0, category="human")
    assert sp.start == 100.0 and sp.end == 160.0 and sp.end - sp.start == 60.0
    # recorded spans never join the open-span stack
    live = tracer.span("live")
    assert live.parent is None
    live.finish()


def test_spans_named_filters_on_attrs(sim):
    tracer = install_tracer(sim)
    tracer.span("heal.restart", outcome="ok").finish()
    tracer.span("heal.restart", outcome="failed").finish()
    tracer.span("other").finish()
    assert len(tracer.spans_named("heal.restart")) == 2
    assert len(tracer.spans_named("heal.restart", outcome="ok")) == 1


# -- the disabled fast path ---------------------------------------------------


def test_simulator_defaults_to_shared_null_tracer():
    assert Simulator().tracer is NULL_TRACER
    assert not NULL_TRACER.enabled


def test_disabled_tracer_returns_shared_null_span():
    t = Tracer(enabled=False)
    a = t.span("x", attr=1)
    b = t.span("y")
    assert a is NULL_SPAN and b is NULL_SPAN      # no per-call allocation
    assert a.set_attr("k", 1) is NULL_SPAN
    with a as sp:
        sp.finish(more=2)
    assert t.spans == [] and t.instants == []
    t.instant("z")
    assert t.instants == []
    assert t.record_span("r", 0.0, 1.0) is NULL_SPAN


def test_instrumented_run_records_nothing_when_disabled(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 1
    assert NULL_TRACER.spans == []
    assert "sim.events" not in NULL_TRACER.metrics.snapshot()["counters"]


# -- fault correlation --------------------------------------------------------


def test_fault_ids_are_sequential(sim):
    tracer = install_tracer(sim)
    assert tracer.new_fault_id() == "F0001"
    assert tracer.new_fault_id() == "F0002"


def test_correlate_indexes_leaf_and_mount_names(sim):
    tracer = install_tracer(sim)
    tracer.correlate("db01/oracle", "F0001")
    tracer.correlate("fe01:/logs", "F0002")
    assert tracer.fault_id_for("db01/oracle") == "F0001"
    assert tracer.fault_id_for("oracle") == "F0001"       # agent subject
    assert tracer.fault_id_for("/logs") == "F0002"
    assert tracer.fault_id_for("fe01") == "F0002"
    assert tracer.fault_id_for("nothing") == ""


# -- metrics ------------------------------------------------------------------


def test_counter_snapshot():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.counter("c").inc(2.0)
    reg.counter("a")
    assert reg.snapshot() == {"counters": {"a": 0.0, "c": 3.0}}
    restored = MetricsRegistry()
    restored.restore_state(reg.snapshot_state())
    assert restored.snapshot() == reg.snapshot()


def test_registry_get_or_create_is_stable():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
