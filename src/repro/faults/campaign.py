"""Year-long fault campaigns (the Fig. 2 fast path).

A naive full-fidelity simulation of 215 servers × 1 year × 5-minute
cron wakes is ~23 M events; the campaign instead samples fault arrivals
per category (Poisson counts, time-of-week patterns) and scores each
fault through :class:`~repro.ops.operators.OperatorModel` -- the same
timing code the full-fidelity experiments use -- with agent detection
computed on the *exact* cron grid.  Semantics match full-fidelity mode
because a no-op agent wake has no observable effect besides its flag
(see the simulation-speed note in DESIGN.md); the consistency tests in
``tests/integration`` check the two modes against each other.

The before/after comparison is **paired**: both pipelines score the
same sampled fault arrivals, so the difference is the pipeline, not the
luck of the draw -- mirroring the paper's same-site, adjacent-years
comparison as closely as a simulation can.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.faults.models import (CATEGORY_PROFILES, Category,
                                 CategoryProfile, TimePattern)
from repro.ops.operators import OperatorModel, Resolution
from repro.sim.calendar import (BUSINESS_END, BUSINESS_START, DAY, HOUR,
                                WEEK, YEAR, period_of)

__all__ = ["PipelineParams", "FaultRecord", "CampaignResult", "Campaign"]


@dataclass(frozen=True)
class PipelineParams:
    """Which handling pipeline scores the faults."""

    agents: bool
    agent_period: float = 300.0
    label: str = ""


@dataclass
class FaultRecord:
    """One scored fault."""

    category: Category
    time: float
    detection: float
    repair: float
    prevented: bool
    auto: bool
    escalated: bool
    #: the category's downtime_weight (degradations are not full outages)
    weight: float = 1.0

    @property
    def downtime(self) -> float:
        return 0.0 if self.prevented else (
            (self.detection + self.repair) * self.weight)

    @property
    def period(self) -> str:
        return period_of(self.time)


@dataclass
class CampaignResult:
    """Aggregated outcome of one pipeline over one fault draw."""

    pipeline: PipelineParams
    horizon: float
    records: List[FaultRecord] = field(default_factory=list)

    def hours_by_category(self) -> Dict[Category, float]:
        out = {c: 0.0 for c in Category}
        for r in self.records:
            out[r.category] += r.downtime / 3600.0
        return out

    def total_hours(self) -> float:
        return sum(r.downtime for r in self.records) / 3600.0

    def detection_by_period(self) -> Dict[str, float]:
        """Mean detection latency (hours) split day/overnight/weekend --
        the T-lat table."""
        sums: Dict[str, List[float]] = {"day": [], "overnight": [],
                                        "weekend": []}
        for r in self.records:
            if not r.prevented:
                sums[r.period].append(r.detection)
        return {k: float(np.mean(v)) / 3600.0 if v else 0.0
                for k, v in sums.items()}


#: the span a campaign draws its faults over (tests patch it shorter)
HORIZON = YEAR


class Campaign:
    """Samples fault arrivals and scores pipelines over them."""

    def __init__(self, rng):
        self.rng = rng
        self.horizon = HORIZON
        self.scale = 1.0
        self.profiles = dict(CATEGORY_PROFILES)
        self._arrivals: Optional[Dict[Category, np.ndarray]] = None

    # -- arrival sampling ---------------------------------------------------------

    def arrivals(self) -> Dict[Category, np.ndarray]:
        """Fault times per category (sampled once, reused by every
        pipeline so comparisons are paired)."""
        if self._arrivals is None:
            self._arrivals = {
                cat: self._sample_times(prof)
                for cat, prof in self.profiles.items()
            }
        return self._arrivals

    def _sample_times(self, prof: CategoryProfile) -> np.ndarray:
        lam = prof.rate_per_year * (self.horizon / YEAR) * self.scale
        n = int(self.rng.poisson(lam))
        if n == 0:
            return np.empty(0, dtype=np.float64)
        if prof.time_pattern is TimePattern.UNIFORM:
            times = self.rng.uniform(0.0, self.horizon, size=n)
        elif prof.time_pattern is TimePattern.BUSINESS:
            times = self._sample_business(n)
        else:
            times = self._sample_overnight(n)
        return np.sort(times)

    def _sample_business(self, n: int) -> np.ndarray:
        """Weekday, 08:00-18:00."""
        weeks = self.rng.integers(0, max(1, int(self.horizon // WEEK)), n)
        days = self.rng.integers(0, 5, n)
        tods = self.rng.uniform(BUSINESS_START, BUSINESS_END, n)
        times = weeks * WEEK + days * DAY + tods
        return np.clip(times, 0.0, self.horizon - 1.0)

    def _sample_overnight(self, n: int) -> np.ndarray:
        """The batch window: weeknights outside business hours plus the
        whole weekend, weighted by their durations."""
        weeknight_hours = 5 * (24.0 - (BUSINESS_END - BUSINESS_START) / HOUR)
        weekend_hours = 48.0
        p_weekend = weekend_hours / (weeknight_hours + weekend_hours)
        weeks = self.rng.integers(0, max(1, int(self.horizon // WEEK)), n)
        is_we = self.rng.random(n) < p_weekend
        days = np.where(is_we, self.rng.integers(5, 7, n),
                        self.rng.integers(0, 5, n))
        # weeknight time-of-day: fold a uniform draw around the business day
        night_span = DAY - (BUSINESS_END - BUSINESS_START)
        u = self.rng.uniform(0.0, night_span, n)
        night_tod = np.where(u < BUSINESS_START, u,
                             u - BUSINESS_START + BUSINESS_END)
        tods = np.where(is_we, self.rng.uniform(0.0, DAY, n), night_tod)
        times = weeks * WEEK + days * DAY + tods
        return np.clip(times, 0.0, self.horizon - 1.0)

    # -- scoring ----------------------------------------------------------------------

    def run(self, pipeline: PipelineParams,
            operator_rng=None) -> CampaignResult:
        """Score every sampled fault under one pipeline."""
        rng = operator_rng if operator_rng is not None else self.rng
        ops = OperatorModel(rng, agent_period=pipeline.agent_period)
        result = CampaignResult(pipeline, self.horizon)
        for cat, times in self.arrivals().items():
            prof = self.profiles[cat]
            for t in times:
                if pipeline.agents:
                    res = ops.resolve_agent(prof, float(t))
                else:
                    res = ops.resolve_manual(prof, float(t))
                result.records.append(FaultRecord(
                    cat, float(t), res.detection, res.repair,
                    res.prevented, res.auto, res.escalated,
                    weight=prof.downtime_weight))
        return result

    def run_pair(self, *, before_rng=None, after_rng=None
                 ) -> tuple[CampaignResult, CampaignResult]:
        """The Fig. 2 comparison: manual year vs agent year over the
        same fault draw."""
        before = self.run(PipelineParams(False, label="before"),
                          operator_rng=before_rng)
        after = self.run(PipelineParams(True, label="after"),
                         operator_rng=after_rng)
        return before, after
