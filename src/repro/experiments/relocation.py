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

from dataclasses import asdict
from typing import Mapping, Optional

from repro.experiments.report import mean_summary, pct, table, trace_artifacts
from repro.experiments.userqos import score
from repro.faults.campaign import Campaign
from repro.relocate.model import apply_relocation
from repro.sim import RandomStreams
from repro.sim.calendar import MINUTE
from repro.trace.tracer import NULL_TRACER, Tracer
from repro.traffic.workload import financial_curve

__all__ = ["run_once", "run_replicated", "format_result"]


def run_once(seed: int = 0, *, population: int = 1_000_000,
             tracer=None) -> dict:
    """One fault draw, three arms, priced against user demand in
    five-minute steps: a plain nested dict (deterministic key order),
    the unit the determinism tests byte-compare."""
    tracer = tracer if tracer is not None else NULL_TRACER
    rs = RandomStreams(seed)
    campaign = Campaign(rs.get("relocation.campaign"))
    horizon = campaign.horizon
    before, escalate = campaign.run_pair(
        before_rng=rs.get("relocation.ops.before"),
        after_rng=rs.get("relocation.ops.after"))
    relocated, stats = apply_relocation(
        escalate, rs.get("relocation.failover"), tracer=tracer)
    curve, step = financial_curve(population), 5 * MINUTE
    return {
        "population": curve.population,
        "horizon_s": horizon,
        "step_s": step,
        "replications": 1,
        "before": score("before", before, curve, horizon=horizon, step=step),
        "escalate": score("escalate-only", escalate, curve,
                          horizon=horizon, step=step),
        "relocate": score("relocate", relocated, curve,
                          horizon=horizon, step=step),
        # what the relocation tier did
        "relocations": dict(sorted(asdict(stats).items())),
    }


def run_replicated(seed: int = 0, *, replications: int = 5,
                   population: int = 1_000_000,
                   trace: Optional[str] = None,
                   timeline: bool = False) -> dict:
    """Mean summary over independent fault draws (pool or in-process,
    same result: the userqos experiment's contract).  ``trace`` /
    ``timeline`` rerun the first draw traced, so they show the
    ``relocate.*`` phases of every modelled failover."""
    summary = mean_summary(run_once, seed, replications,
                           population=population)
    if trace or timeline:
        tracer = Tracer()
        run_once(seed, population=population, tracer=tracer)
        summary["artifacts"] = trace_artifacts(tracer, trace, timeline)
    return summary


def format_result(summary: Mapping) -> str:
    """Render a (possibly replicated) summary dict."""
    arms = [summary["before"], summary["escalate"], summary["relocate"]]
    body = table(
        ["pipeline", "availability", "failed requests (M)",
         "user-minutes lost (M)"],
        [(p["label"], pct(p["availability"]),
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
    return body + tier + verdict + summary.get("artifacts", "")
