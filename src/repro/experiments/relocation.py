"""Relocation on/off: the Fig. 2 campaign with the failover tier.

Three arms over the *same* fault draw, priced in PR 2's user terms
(request-weighted availability, user-minutes lost, failed requests):

- **before** -- the manual pipeline (context);
- **escalate-only** -- the agent pipeline as shipped: local healing,
  then page a human;
- **relocate** -- the same agent pipeline with the relocation tier
  between healing and the pager: faults that would have waited hours
  for a human end minutes after the spare comes up.

The relocation arm is produced by post-processing the escalate-only
arm's records (:func:`repro.relocate.apply_relocation`), so the two
arms share identical base resolutions and the difference *is* the
relocation tier -- nothing else moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

from repro.experiments.report import table
from repro.experiments.userqos import PipelineQos, _mean_summary, _score
from repro.faults.campaign import Campaign
from repro.relocate.model import apply_relocation
from repro.sim import RandomStreams
from repro.sim.calendar import MINUTE, YEAR
from repro.trace.tracer import NULL_TRACER
from repro.traffic.workload import financial_curve

__all__ = ["RelocationQosResult", "run_once", "run_replicated",
           "format_result"]


@dataclass
class RelocationQosResult:
    """Relocation on/off over one paired fault draw."""

    population: int
    horizon: float
    step: float
    replications: int
    before: PipelineQos
    escalate: PipelineQos
    relocate: PipelineQos
    #: what the relocation tier did (RelocationStats.summary())
    relocations: dict

    @property
    def availability_gain(self) -> float:
        return self.relocate.availability - self.escalate.availability

    @property
    def user_minutes_saved(self) -> float:
        return (self.escalate.user_minutes_lost
                - self.relocate.user_minutes_lost)

    def summary(self) -> dict:
        """Plain nested dict (deterministic key order) -- the unit the
        determinism tests byte-compare."""
        return {
            "population": self.population,
            "horizon_s": self.horizon,
            "step_s": self.step,
            "replications": self.replications,
            "before": self.before.summary(),
            "escalate": self.escalate.summary(),
            "relocate": self.relocate.summary(),
            "relocations": dict(sorted(self.relocations.items())),
        }


def run_once(seed: int = 0, *, horizon: float = YEAR,
             population: int = 1_000_000,
             tracer=None) -> RelocationQosResult:
    """One fault draw, three arms, priced against user demand in
    five-minute steps."""
    tracer = tracer if tracer is not None else NULL_TRACER
    rs = RandomStreams(seed)
    campaign = Campaign(rs.get("relocation.campaign"), horizon=horizon)
    before, escalate = campaign.run_pair(
        before_rng=rs.get("relocation.ops.before"),
        after_rng=rs.get("relocation.ops.after"))
    relocated, stats = apply_relocation(
        escalate, rs.get("relocation.failover"), tracer=tracer,
        label="relocate")
    curve, step = financial_curve(population), 5 * MINUTE
    return RelocationQosResult(
        population=curve.population, horizon=horizon, step=step,
        replications=1,
        before=_score("before", before, curve, horizon=horizon, step=step),
        escalate=_score("escalate-only", escalate, curve,
                        horizon=horizon, step=step),
        relocate=_score("relocate", relocated, curve,
                        horizon=horizon, step=step),
        relocations=stats.summary())


def run_replicated(seeds: List[int], *, horizon: float = YEAR,
                   population: int = 1_000_000,
                   processes: Optional[int] = None) -> dict:
    """Mean summary over independent fault draws (pool or in-process,
    same result: the userqos experiment's contract)."""
    return _mean_summary(run_once, seeds, processes, horizon=horizon,
                         population=population)


def _pct(a: float) -> str:
    return f"{100.0 * a:.4f}%"


def format_result(summary: Mapping) -> str:
    """Render a (possibly replicated) summary dict."""
    arms = [summary["before"], summary["escalate"], summary["relocate"]]
    body = table(
        ["pipeline", "availability", "failed requests (M)",
         "user-minutes lost (M)"],
        [(p["label"], _pct(p["availability"]),
          round(p["failed_requests"] / 1e6, 2),
          round(p["user_minutes_lost"] / 1e6, 2))
         for p in arms],
        title=(f"Service relocation -- {int(summary['population']):,} "
               f"users, 1 simulated year, "
               f"{summary['replications']:g} replication(s), "
               f"paired fault arrivals"))
    r = summary["relocations"]
    esc, rel = summary["escalate"], summary["relocate"]
    gain = rel["availability"] - esc["availability"]
    saved = esc["user_minutes_lost"] - rel["user_minutes_lost"]
    tier = (f"\nrelocation tier: {r['candidates']:.1f} candidate "
            f"fault(s)/run, {r['succeeded']:.1f} relocated "
            f"({r['hours_saved']:.1f} h of downtime ended early), "
            f"{r['failed']:.1f} rollback(s) "
            f"(+{r['hours_lost_to_rollbacks']:.2f} h burned), "
            f"{r['superseded']:.1f} superseded by the human")
    verdict = (f"\nrelocation on vs off: availability "
               f"{'+' if gain >= 0 else ''}{100.0 * gain:.4f} pp, "
               f"{saved / 1e6:.2f}M user-minutes saved")
    return body + tier + verdict
