"""End-to-end observability: fault ids must thread from injection
through agent detection, diagnosis and repair on a live site, and the
span-derived experiment numbers must agree with the legacy paths."""

import json

import pytest

from repro.experiments import latency
from repro.experiments.runner import FidelityHarness
from repro.experiments.site import SiteConfig, build_site
from repro.trace import (Tracer, incident_traces, install_tracer,
                         to_chrome)


@pytest.fixture(scope="module")
def traced_storm():
    """A small live site, two injected faults, two simulated hours."""
    site = build_site(SiteConfig.test_scale(seed=7, with_feeds=False,
                                            with_workload=False))
    tracer = install_tracer(site.sim)
    harness = FidelityHarness(site)
    site.run(1800.0)
    ev_db = harness.injector.db_crash(site.databases[0])
    ev_fe = harness.injector.app_hang(site.frontends[0])
    site.run(2 * 3600.0)
    harness.scan_flags_for_detection()
    return tracer, harness, (ev_db, ev_fe)


def test_fault_id_threads_detection_diagnosis_repair(traced_storm):
    tracer, _, events = traced_storm
    for ev in events:
        assert ev.fault_id
        inc = incident_traces(tracer)[ev.fault_id]
        assert inc.injected_at == ev.time
        # the agents lived through the whole lifecycle under one id
        assert inc.detected_at is not None
        assert inc.diagnosed_at is not None
        assert inc.repaired_at is not None
        assert inc.injected_at <= inc.detected_at <= inc.diagnosed_at \
            <= inc.repaired_at
        assert inc.repair_outcome


def test_correlation_survives_repeated_agent_cycles(traced_storm):
    """A hang is re-found on every agent wake until healed; every
    detect span must carry the same fault id, none a later one."""
    tracer, _, (_, ev_fe) = traced_storm
    detects = tracer.spans_named("fault.detect", fault_id=ev_fe.fault_id)
    assert detects, "no detection spans for the hang"
    assert all(sp.attrs["fault_id"] == ev_fe.fault_id for sp in detects)


def test_chrome_export_correlates_incident(traced_storm):
    """The acceptance check: valid Chrome JSON in which at least one
    fault's detect/diagnose/repair spans share one fault id."""
    tracer, _, _ = traced_storm
    doc = json.loads(json.dumps(to_chrome(tracer)))
    by_fid = {}
    for e in doc["traceEvents"]:
        fid = (e.get("args") or {}).get("fault_id")
        if fid:
            by_fid.setdefault(fid, set()).add(e["name"])
    assert any("fault.detect" in names and "agent.diagnose" in names
               and any(n.startswith("heal.") for n in names)
               for names in by_fid.values())


def test_span_detection_matches_ledger(traced_storm):
    """Span-derived detection equals the downtime ledger's within a
    sim-second (both observe the same flag/notification machinery)."""
    tracer, harness, events = traced_storm
    incs = incident_traces(tracer)
    for ev in events:
        span_det = incs[ev.fault_id].detected_at
        ledger_inc = next(i for i in harness.ledger.incidents
                          if i.target == ev.target)
        assert ledger_inc.detected_at is not None
        assert abs(span_det - ledger_inc.detected_at) <= 1.0


def test_latency_experiment_span_vs_flag_scan(monkeypatch):
    """The latency experiment reports span-derived numbers (the span
    vs flag-scan agreement is ``test_span_detection_matches_ledger``,
    above): all positive, under the agent period + run bound the paper
    claims."""
    monkeypatch.setattr(latency, "WEEKS", 1)
    r = latency.run(seed=3)
    assert r.samples
    assert all(v >= 0.0 for v in r.agent_by_period.values())
    assert r.agent_max_minutes <= 10.0


def test_metrics_counters_populated(traced_storm):
    tracer, _, _ = traced_storm
    c = tracer.metrics.snapshot()["counters"]
    assert c["faults.injected"] == 2.0
    assert c["agent.runs"] > 0
    assert c["sim.events"] > 0
    assert c["agent.heals_succeeded"] >= 2.0
    assert c["admin.dgspl_builds"] > 0
