"""User-perceived QoS: the Fig. 2 campaign restated in users' terms.

Fig. 2 counts downtime *hours*; users do not experience hours, they
experience failed requests.  This experiment runs the same paired
fault campaign (one fault draw, both pipelines) and prices every
incident's downtime window against the site's diurnal demand curve:

- **request-weighted availability** -- fraction of all user requests
  over the year that were served;
- **user-minutes lost** -- concurrent users integrated over each
  incident window, so a peak-hours crash costs more QoS than a
  midnight one of the same length.

The join is the paper's missing denominator: 550 h -> 31 h becomes
"the site failed N million requests before and M million after, on the
same faults" -- the statement the title actually makes.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.faults.campaign import Campaign, CampaignResult
from repro.faults.models import CATEGORY_IMPACT
from repro.experiments.report import mean_summary, pct, table
from repro.sim import RandomStreams
from repro.sim.calendar import HOUR, MINUTE
from repro.traffic.slo import IncidentWindow, join_demand
from repro.traffic.workload import DemandCurve, financial_curve

__all__ = ["score", "run_once", "run_replicated", "format_result"]


def windows_of(result: CampaignResult) -> List[IncidentWindow]:
    """Campaign fault records as priceable downtime windows."""
    out: List[IncidentWindow] = []
    for r in result.records:
        if r.prevented:
            continue
        out.append(IncidentWindow(
            start=r.time, duration=r.detection + r.repair,
            impact=CATEGORY_IMPACT[r.category], scale=r.weight,
            period=r.period))
    return out


def _downtime_hours_by_period(result: CampaignResult) -> Dict[str, float]:
    out = {"day": 0.0, "overnight": 0.0, "weekend": 0.0}
    for r in result.records:
        if not r.prevented:
            out[r.period] += (r.detection + r.repair) * r.weight / HOUR
    return out


def score(label: str, result: CampaignResult, curve: DemandCurve, *,
          horizon: float, step: float) -> dict:
    """One pipeline's year, request-weighted, as a plain dict (plain
    downtime hours by period ride along, for the user-minutes-per-hour
    rates)."""
    outcome = join_demand(curve, windows_of(result),
                          horizon=horizon, step=step)
    return {
        "label": label,
        "availability": outcome.availability,
        "attempted_requests": outcome.total_attempted,
        "failed_requests": outcome.total_failed,
        "user_minutes_lost": outcome.user_minutes_lost,
        "user_minutes_by_period": dict(sorted(outcome.user_minutes.items())),
        "downtime_hours_by_period": dict(sorted(
            _downtime_hours_by_period(result).items())),
        "availability_by_class": {
            name: outcome.availability_of(name)
            for name in sorted(outcome.attempted)},
    }


def run_once(seed: int = 0, *, population: int = 1_000_000) -> dict:
    """One fault draw, both pipelines, priced against user demand in
    five-minute steps: a plain nested dict (deterministic key order),
    the unit the determinism tests byte-compare."""
    rs = RandomStreams(seed)
    campaign = Campaign(rs.get("userqos.campaign"))
    horizon = campaign.horizon
    before, after = campaign.run_pair(
        before_rng=rs.get("userqos.ops.before"),
        after_rng=rs.get("userqos.ops.after"))
    curve, step = financial_curve(population), 5 * MINUTE

    # synthetic probes: identical 1 h full outage at Tuesday 11:00 vs
    # Tuesday 03:00 -- the time-of-day weighting, isolated from the draw
    day = 24 * HOUR
    return {
        "population": curve.population,
        "horizon_s": horizon,
        "step_s": step,
        "replications": 1,
        "before": score("before", before, curve, horizon=horizon, step=step),
        "after": score("after", after, curve, horizon=horizon, step=step),
        "peak_hour_user_minutes":
            curve.incident_user_minutes(day + 11 * HOUR, HOUR),
        "overnight_hour_user_minutes":
            curve.incident_user_minutes(day + 3 * HOUR, HOUR),
    }


def run_replicated(seed: int = 0, *, replications: int = 5,
                   population: int = 1_000_000) -> dict:
    """Mean summary over independent fault draws."""
    return mean_summary(run_once, seed, replications, population=population)


def format_result(summary: Mapping) -> str:
    """Render a (possibly replicated) summary dict."""
    b, a = summary["before"], summary["after"]
    body = table(
        ["pipeline", "availability", "failed requests (M)",
         "user-minutes lost (M)", "day cost (k uMin/h)",
         "overnight cost (k uMin/h)"],
        [(p["label"], pct(p["availability"]),
          round(p["failed_requests"] / 1e6, 2),
          round(p["user_minutes_lost"] / 1e6, 2),
          round(_period_rate(p, "day") / 1e3, 1),
          round(_period_rate(p, "overnight") / 1e3, 1))
         for p in (b, a)],
        title=(f"User-perceived QoS -- {int(summary['population']):,} users, "
               f"1 simulated year, {summary['replications']:g} "
               f"replication(s), paired fault arrivals"))
    probe = (f"\nsame 1 h outage priced by time of day: "
             f"peak {summary['peak_hour_user_minutes'] / 1e3:.0f}k "
             f"user-minutes vs overnight "
             f"{summary['overnight_hour_user_minutes'] / 1e3:.0f}k "
             f"(x{summary['peak_hour_user_minutes'] / max(1.0, summary['overnight_hour_user_minutes']):.1f})")
    ratio = (b["failed_requests"] / max(1.0, a["failed_requests"]))
    tail = (f"\nintelliagents served users "
            f"{ratio:.1f}x better: {b['failed_requests'] / 1e6:.2f}M failed "
            f"requests -> {a['failed_requests'] / 1e6:.2f}M on the same "
            f"faults")
    return body + probe + tail


def _period_rate(p: Mapping, period: str) -> float:
    """User-minutes lost per downtime hour in one period -- the
    request-weighting made visible: day >> overnight."""
    hours = p["downtime_hours_by_period"].get(period, 0.0)
    if hours <= 0:
        return 0.0
    return p["user_minutes_by_period"].get(period, 0.0) / hours
