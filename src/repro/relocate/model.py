"""Campaign-level relocation model (the fast path).

The Fig. 2 campaign scores faults through sampled resolutions rather
than living through them; this module is the relocation tier restated
at that level, so year-scale experiments can price failover in user
terms without simulating 215 servers.

:func:`apply_relocation` post-processes an *escalation-only* agent-arm
:class:`~repro.faults.campaign.CampaignResult`.  Both arms therefore
share identical fault arrivals **and** identical base resolutions --
the comparison is perfectly paired; the only difference is what the
admin pair does when local healing has failed and a human would
otherwise be the next tier:

- faults that were prevented or auto-repaired are untouched
  (local healing already won; relocation never starts);
- faults in non-relocatable categories are untouched -- LSF has its own
  resubmission machinery, and a firewall/network fault follows the
  service to any host you move it to;
- the rest race the human: with probability ``success_prob`` the
  relocation lands inside its timeout budget and the outage ends at
  ``plan + drain + start + verify`` (minutes, not hours); when the
  sampled human would somehow have finished *faster*, the human wins
  and the record is untouched (counted ``superseded``);
- a failed or over-budget relocation *rolls back*: the on-call page
  goes out only after the budget burns, so the original human repair
  is delayed by the wasted attempt -- relocation is modelled with its
  honest cost, not as a free option.

Every modelled relocation records ``relocate.*`` spans with a fault id
(:meth:`Tracer.record_span`), so ``--trace``/``--timeline`` show the
failovers exactly like the live orchestrator's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from repro.faults.campaign import CampaignResult, FaultRecord, PipelineParams
from repro.faults.models import Category, Dist
from repro.trace.tracer import NULL_TRACER

__all__ = ["RelocationPolicy", "RelocationStats", "apply_relocation",
           "RELOCATABLE"]

#: Categories a relocation can end: the service (or its host) is the
#: problem, and a healthy host elsewhere fixes it.  LSF is excluded
#: (the batch tier resubmits instead) and so are firewall/network
#: faults (shared infrastructure moves with you).
RELOCATABLE = frozenset({
    Category.MID_CRASH, Category.HUMAN, Category.PERFORMANCE,
    Category.FRONT_END, Category.HARDWARE, Category.COMPLETELY_DOWN,
})


@dataclass(frozen=True)
class RelocationPolicy:
    """Phase-duration and success model of one relocation attempt."""

    plan: Dist = Dist(25.0, 0.3)        # DGSPL search + constraint checks
    drain: Dist = Dist(45.0, 0.3)       # flag down, stop the corpse
    start: Dist = Dist(240.0, 0.4)      # cold start on the spare
    verify: Dist = Dist(60.0, 0.3)      # service probes come back green
    #: the orchestrator's timeout budget; blowing it is a rollback
    budget: float = 900.0
    #: probability the placement + startup succeed, per category
    success_prob: Dict[Category, float] = field(default_factory=lambda: {
        Category.MID_CRASH: 0.92,
        Category.HUMAN: 0.90,           # clean build on the spare
        Category.PERFORMANCE: 0.90,     # move off the sick box
        Category.FRONT_END: 0.95,
        Category.HARDWARE: 0.85,
        Category.COMPLETELY_DOWN: 0.70,  # corruption may follow the data
    })

    def sample_phases(self, rng) -> Tuple[float, float, float, float]:
        return (float(self.plan.sample(rng)),
                float(self.drain.sample(rng)),
                float(self.start.sample(rng)),
                float(self.verify.sample(rng)))


#: the one relocation model every campaign is re-scored with
POLICY = RelocationPolicy()


@dataclass
class RelocationStats:
    """What the relocation tier did across one campaign."""

    candidates: int = 0
    succeeded: int = 0
    failed: int = 0
    #: human repair finished before the relocation would have
    superseded: int = 0
    hours_saved: float = 0.0
    hours_lost_to_rollbacks: float = 0.0


def _record_spans(tracer, rec: FaultRecord, phases, outcome: str) -> None:
    fid = tracer.new_fault_id()
    t = rec.time + rec.detection
    names = ("plan", "drain", "start", "verify")
    for name, dur in zip(names, phases):
        tracer.record_span(f"relocate.{name}", t, t + dur,
                           fault_id=fid, category=rec.category.value,
                           outcome=outcome)
        t += dur


def apply_relocation(result: CampaignResult, rng, *, tracer=NULL_TRACER
                     ) -> Tuple[CampaignResult, RelocationStats]:
    """Re-score an escalation-only campaign with the relocation tier.

    Deterministic given ``rng``: draws happen in record order, only for
    candidate records, so the same seed gives byte-identical results.
    """
    policy = POLICY
    stats = RelocationStats()
    out = CampaignResult(
        PipelineParams(True, result.pipeline.agent_period, "relocate"),
        result.horizon)
    for rec in result.records:
        if (rec.prevented or rec.auto
                or rec.category not in RELOCATABLE):
            out.records.append(replace(rec))
            continue
        stats.candidates += 1
        success = rng.random() < policy.success_prob.get(rec.category, 0.0)
        phases = policy.sample_phases(rng)
        total = sum(phases)
        if success and total <= policy.budget:
            if total >= rec.repair:
                # the human somehow won the race; keep their repair
                stats.superseded += 1
                out.records.append(replace(rec))
                continue
            stats.succeeded += 1
            stats.hours_saved += (rec.repair - total) / 3600.0
            _record_spans(tracer, rec, phases, "ok")
            if tracer.enabled:
                tracer.metrics.counter("relocate.succeeded").inc()
            out.records.append(replace(rec, repair=total, escalated=False,
                                       auto=True))
        else:
            # rollback: the budget burns, then the page goes out and
            # the original human repair runs late
            wasted = min(total, policy.budget)
            stats.failed += 1
            stats.hours_lost_to_rollbacks += wasted / 3600.0
            clipped, remaining = [], wasted
            for p in phases:
                clipped.append(min(p, remaining))
                remaining -= clipped[-1]
            _record_spans(tracer, rec, clipped, "rollback")
            if tracer.enabled:
                tracer.metrics.counter("relocate.failed").inc()
            out.records.append(replace(rec, repair=rec.repair + wasted))
    return out, stats
