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

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.faults.campaign import Campaign, CampaignResult
from repro.faults.models import CATEGORY_IMPACT
from repro.experiments.report import table
from repro.sim import RandomStreams
from repro.sim.calendar import HOUR, MINUTE, YEAR
from repro.traffic.slo import IncidentWindow, QosOutcome, join_demand
from repro.traffic.workload import DemandCurve, financial_curve

__all__ = ["PipelineQos", "UserQosResult",
           "run_once", "run_replicated", "format_result"]

@dataclass
class PipelineQos:
    """One pipeline's year, request-weighted."""

    label: str
    outcome: QosOutcome
    #: plain downtime hours by period, for user-minutes-per-hour rates
    downtime_hours: Dict[str, float]

    @property
    def availability(self) -> float:
        return self.outcome.availability

    @property
    def failed_requests(self) -> float:
        return self.outcome.total_failed

    @property
    def user_minutes_lost(self) -> float:
        return self.outcome.user_minutes_lost

    def user_minutes_per_hour(self, period: str) -> float:
        """QoS cost rate of downtime occurring in one period -- the
        request-weighting made visible: day >> overnight."""
        hours = self.downtime_hours.get(period, 0.0)
        if hours <= 0:
            return 0.0
        return self.outcome.user_minutes.get(period, 0.0) / hours

    def summary(self) -> dict:
        return {
            "label": self.label,
            "availability": self.availability,
            "attempted_requests": self.outcome.total_attempted,
            "failed_requests": self.failed_requests,
            "user_minutes_lost": self.user_minutes_lost,
            "user_minutes_by_period": dict(
                sorted(self.outcome.user_minutes.items())),
            "downtime_hours_by_period": dict(
                sorted(self.downtime_hours.items())),
            "availability_by_class": {
                name: self.outcome.availability_of(name)
                for name in sorted(self.outcome.attempted)},
        }


@dataclass
class UserQosResult:
    """Before/after user-perceived QoS over the same fault arrivals."""

    population: int
    horizon: float
    step: float
    replications: int
    before: PipelineQos
    after: PipelineQos
    #: probe costs of one synthetic 1 h full outage, peak vs overnight
    #: (pure demand-curve property; shows the time-of-day weighting)
    peak_hour_user_minutes: float
    overnight_hour_user_minutes: float

    @property
    def availability_gain(self) -> float:
        return self.after.availability - self.before.availability

    @property
    def failed_request_ratio(self) -> float:
        """How many times more requests the manual year failed."""
        return self.before.failed_requests / max(1.0,
                                                 self.after.failed_requests)

    def summary(self) -> dict:
        """Plain nested dict (deterministic key order) -- the unit the
        determinism tests byte-compare."""
        return {
            "population": self.population,
            "horizon_s": self.horizon,
            "step_s": self.step,
            "replications": self.replications,
            "before": self.before.summary(),
            "after": self.after.summary(),
            "peak_hour_user_minutes": self.peak_hour_user_minutes,
            "overnight_hour_user_minutes": self.overnight_hour_user_minutes,
        }


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


def _score(label: str, result: CampaignResult, curve: DemandCurve, *,
           horizon: float, step: float) -> PipelineQos:
    outcome = join_demand(curve, windows_of(result),
                          horizon=horizon, step=step)
    return PipelineQos(label, outcome, _downtime_hours_by_period(result))


def run_once(seed: int = 0, *, horizon: float = YEAR,
             population: int = 1_000_000) -> UserQosResult:
    """One fault draw, both pipelines, priced against user demand in
    five-minute steps."""
    rs = RandomStreams(seed)
    campaign = Campaign(rs.get("userqos.campaign"), horizon=horizon)
    before, after = campaign.run_pair(
        before_rng=rs.get("userqos.ops.before"),
        after_rng=rs.get("userqos.ops.after"))
    curve, step = financial_curve(population), 5 * MINUTE

    # synthetic probes: identical 1 h full outage at Tuesday 11:00 vs
    # Tuesday 03:00 -- the time-of-day weighting, isolated from the draw
    day = 24 * HOUR
    peak = curve.incident_user_minutes(day + 11 * HOUR, HOUR)
    overnight = curve.incident_user_minutes(day + 3 * HOUR, HOUR)

    return UserQosResult(
        population=curve.population, horizon=horizon, step=step,
        replications=1,
        before=_score("before", before, curve, horizon=horizon, step=step),
        after=_score("after", after, curve, horizon=horizon, step=step),
        peak_hour_user_minutes=peak,
        overnight_hour_user_minutes=overnight)


def _summary(run, seed: int, **kw) -> dict:
    """One replication reduced to its summary dict (picklable: the
    process-pool unit of work)."""
    return run(seed, **kw).summary()


def _merge_mean(dicts: List[dict]) -> dict:
    """Element-wise mean of nested numeric dicts (labels pass through)."""
    first = dicts[0]
    out: dict = {}
    for key, val in first.items():
        if isinstance(val, dict):
            out[key] = _merge_mean([d[key] for d in dicts])
        elif isinstance(val, str):
            out[key] = val
        else:
            out[key] = float(np.mean([d[key] for d in dicts]))
    return out


def _mean_summary(run, seeds, processes, **kw) -> dict:
    """Mean of ``run(seed, **kw).summary()`` over independent fault
    draws.  The draws go through :func:`repro.parallel.replicate`
    (process pool when it pays, in-process otherwise or with
    ``processes=1``); results are identical either way (each draw
    derives all randomness from its own seed, and the mean runs over
    the same ordered list)."""
    if not seeds:
        raise ValueError("need at least one seed")
    from repro.parallel import replicate   # pulls in multiprocessing
    merged = _merge_mean(replicate(partial(_summary, run, **kw), seeds,
                                   processes=processes, min_parallel=2))
    merged["replications"] = len(seeds)
    return merged


def run_replicated(seeds: List[int], *, horizon: float = YEAR,
                   population: int = 1_000_000,
                   processes: Optional[int] = None) -> dict:
    """Mean summary over independent fault draws."""
    return _mean_summary(run_once, seeds, processes, horizon=horizon,
                         population=population)


def _pct(a: float) -> str:
    return f"{100.0 * a:.4f}%"


def format_result(summary: Mapping) -> str:
    """Render a (possibly replicated) summary dict."""
    b, a = summary["before"], summary["after"]
    body = table(
        ["pipeline", "availability", "failed requests (M)",
         "user-minutes lost (M)", "day cost (k uMin/h)",
         "overnight cost (k uMin/h)"],
        [(p["label"], _pct(p["availability"]),
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
    hours = p["downtime_hours_by_period"].get(period, 0.0)
    if hours <= 0:
        return 0.0
    return p["user_minutes_by_period"].get(period, 0.0) / hours
