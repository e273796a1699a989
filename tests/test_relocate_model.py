"""Campaign-level relocation model (repro.relocate.model)."""

import pytest

from repro.faults.campaign import Campaign
from repro.faults.models import Category, Dist
from repro.relocate import model
from repro.relocate.model import (RELOCATABLE, RelocationPolicy,
                                  apply_relocation)
from repro.sim import RandomStreams
from repro.trace import Tracer


def _escalate_arm(seed: int):
    rs = RandomStreams(seed)
    campaign = Campaign(rs.get("relocation.campaign"))
    _, escalate = campaign.run_pair(
        before_rng=rs.get("relocation.ops.before"),
        after_rng=rs.get("relocation.ops.after"))
    return escalate, rs.get("relocation.failover")


def test_relocatable_excludes_resubmission_and_shared_infra():
    assert Category.LSF not in RELOCATABLE
    assert Category.FIREWALL_NETWORK not in RELOCATABLE
    assert Category.COMPLETELY_DOWN in RELOCATABLE


@pytest.mark.parametrize("seed", range(5))
def test_relocation_strictly_reduces_downtime(seed):
    escalate, rng = _escalate_arm(seed)
    relocated, stats = apply_relocation(escalate, rng)
    assert stats.candidates > 0
    assert relocated.total_hours() < escalate.total_hours()
    assert stats.succeeded >= 1
    assert stats.hours_saved > 0
    assert len(relocated.records) == len(escalate.records)
    assert relocated.pipeline.label == "relocate"


def test_non_candidates_are_untouched():
    escalate, rng = _escalate_arm(3)
    relocated, _ = apply_relocation(escalate, rng)
    for before, after in zip(escalate.records, relocated.records):
        assert after.time == before.time
        assert after.category is before.category
        if (before.prevented or before.auto
                or before.category not in RELOCATABLE):
            assert after == before


def test_successful_relocation_ends_escalation():
    escalate, rng = _escalate_arm(0)
    relocated, stats = apply_relocation(escalate, rng)
    improved = [(b, a) for b, a in zip(escalate.records, relocated.records)
                if a.repair < b.repair]
    assert len(improved) == stats.succeeded
    for before, after in improved:
        assert after.auto and not after.escalated
        assert after.repair <= RelocationPolicy().budget


def test_forced_failures_cost_at_most_the_budget(monkeypatch):
    policy = RelocationPolicy(success_prob={})      # nothing ever lands
    monkeypatch.setattr(model, "POLICY", policy)
    escalate, rng = _escalate_arm(1)
    relocated, stats = apply_relocation(escalate, rng)
    assert stats.succeeded == 0
    assert stats.failed == stats.candidates > 0
    assert stats.hours_lost_to_rollbacks > 0
    # relocation with its honest cost: strictly worse when it never works
    assert relocated.total_hours() > escalate.total_hours()
    for before, after in zip(escalate.records, relocated.records):
        assert 0.0 <= after.repair - before.repair <= policy.budget


def test_slow_relocation_is_superseded_by_the_human(monkeypatch):
    # success guaranteed but each attempt takes ~46 days: the sampled
    # human always finishes first and every record stays untouched
    policy = RelocationPolicy(
        plan=Dist(1e6, 0.0), drain=Dist(1e6, 0.0),
        start=Dist(1e6, 0.0), verify=Dist(1e6, 0.0), budget=1e9,
        success_prob={c: 1.0 for c in Category})
    monkeypatch.setattr(model, "POLICY", policy)
    escalate, rng = _escalate_arm(2)
    relocated, stats = apply_relocation(escalate, rng)
    assert stats.superseded == stats.candidates > 0
    assert stats.succeeded == stats.failed == 0
    assert relocated.total_hours() == escalate.total_hours()


def test_same_rng_is_byte_identical():
    escalate1, rng1 = _escalate_arm(4)
    escalate2, rng2 = _escalate_arm(4)
    a, sa = apply_relocation(escalate1, rng1)
    b, sb = apply_relocation(escalate2, rng2)
    assert [r.repair for r in a.records] == [r.repair for r in b.records]
    assert sa == sb


def test_spans_recorded_per_modelled_relocation():
    tracer = Tracer()
    escalate, rng = _escalate_arm(0)
    _, stats = apply_relocation(escalate, rng, tracer=tracer)
    plans = tracer.spans_named("relocate.plan")
    assert len(plans) == stats.succeeded + stats.failed
    fids = [s.attrs["fault_id"] for s in plans]
    assert all(fids) and len(set(fids)) == len(fids)
    # each failover records all four phases under one fault id
    for fid in fids:
        phases = [s.name for s in tracer.spans
                  if s.attrs.get("fault_id") == fid]
        assert phases == ["relocate.plan", "relocate.drain",
                          "relocate.start", "relocate.verify"]
    assert (tracer.metrics.snapshot()["counters"]["relocate.succeeded"]
            == stats.succeeded)
