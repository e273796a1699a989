"""SLI/SLO accounting: QoS as users experience it.

Three layers:

- :class:`Sli` -- streaming per-service indicators (availability from
  served/attempted, latency percentiles from the fixed-bucket
  histograms of :mod:`repro.trace.metrics`), fed by aggregated batches.
- :func:`burn_rate` -- error-budget burn against an objective, the
  language modern SRE practice would use for the paper's availability
  claim.
- :func:`join_demand` -- the request-weighted unavailability view:
  joins downtime windows (campaign fault records or ledger incidents)
  against the concurrent demand curve, so an incident's QoS cost is
  the traffic it actually turned away -- "user-minutes lost" -- rather
  than its wall-clock length.  A midnight crash costs less than a
  peak-hours one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np

from repro.sim.calendar import MINUTE, is_business_hours, is_weekend
from repro.persist.core import Persistent, part, scalars
from repro.trace.metrics import Histogram

__all__ = ["LATENCY_BUCKETS_MS", "Sli", "IncidentWindow", "QosOutcome",
           "join_demand", "burn_rate", "rollup_slis"]


def burn_rate(attempted: float, bad: float, objective: float) -> float:
    """Error-budget burn rate of a traffic slice.

    1.0 = failing exactly at the pace ``objective`` allows; 14.4 on a
    99.9% objective = the classic "2% of a 30-day budget in one hour".
    Defined for every input: no traffic burns nothing, and a zero
    budget with failures burns infinitely fast.  The alerting tier
    calls this on short rolling windows.
    """
    if attempted <= 0:
        return 0.0
    budget = (1.0 - objective) * attempted
    if budget <= 0:
        return 0.0 if bad <= 0 else float("inf")
    return bad / budget

#: latency histogram bucket upper bounds in milliseconds: from cheap
#: cache hits up to the connect timeouts the apps enforce
LATENCY_BUCKETS_MS = (5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
                      1000.0, 3000.0, 8000.0)


class Sli(Persistent):
    """Streaming service-level indicators for one traffic class.

    Fed by the traffic engines in aggregated batches; all state is a
    pair of counts plus one fixed-bucket histogram, so a year of 1M-user
    traffic costs O(intervals), not O(requests).
    """

    __slots__ = ("name", "attempted", "served", "shed", "latency")
    _persist = (*scalars(float, "attempted", "served", "shed"),
                part("latency"))

    def __init__(self, name: str):
        self.name = name
        self.attempted = 0.0
        self.served = 0.0
        #: requests the front door dropped because no server was up
        self.shed = 0.0
        self.latency = Histogram(f"{name}.latency_ms", LATENCY_BUCKETS_MS)

    def record_batch(self, served: float, failed: float,
                     latency_ms: float) -> None:
        """Account one served/failed batch at its mean latency."""
        self.attempted += served + failed
        self.served += served
        if served > 0:
            self.latency.observe_n(latency_ms, served)

    def record_shed(self, n: float) -> None:
        """Account requests dropped before reaching any server."""
        if n > 0:
            self.attempted += n
            self.shed += n

    @property
    def failed(self) -> float:
        return self.attempted - self.served

    @property
    def availability(self) -> float:
        """Fraction of attempted requests served (1.0 with no traffic:
        an idle service has not failed anyone)."""
        if self.attempted <= 0:
            return 1.0
        return self.served / self.attempted

    def latency_quantile(self, q: float) -> float:
        return self.latency.quantile(q)

    def __repr__(self) -> str:   # pragma: no cover - debug aid
        return (f"<Sli {self.name} avail={self.availability:.6f} "
                f"n={self.attempted:g}>")


# -- request-weighted unavailability ------------------------------------------


@dataclass(frozen=True)
class IncidentWindow:
    """One downtime window to be priced against the demand curve."""

    start: float
    duration: float
    #: fraction of each class's demand the incident takes out,
    #: e.g. ``{"frontend": 1/60}`` for one of 60 front-end servers
    impact: Mapping[str, float]
    #: severity scale (a degradation is not a full outage)
    scale: float = 1.0
    period: str = ""          # "day" | "overnight" | "weekend" (optional)


@dataclass
class QosOutcome:
    """Request-weighted QoS over one horizon: what users saw."""

    horizon: float
    step: float
    attempted: Dict[str, float]
    failed: Dict[str, float]
    #: user-minutes lost, split by the period the loss occurred in
    user_minutes: Dict[str, float] = field(default_factory=dict)

    @property
    def total_attempted(self) -> float:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> float:
        return sum(self.failed.values())

    @property
    def availability(self) -> float:
        if self.total_attempted <= 0:
            return 1.0
        return 1.0 - self.total_failed / self.total_attempted

    @property
    def user_minutes_lost(self) -> float:
        return sum(self.user_minutes.values())

    def availability_of(self, cls_name: str) -> float:
        att = self.attempted.get(cls_name, 0.0)
        if att <= 0:
            return 1.0
        return 1.0 - self.failed.get(cls_name, 0.0) / att


def _period_masks(t: np.ndarray) -> Dict[str, np.ndarray]:
    weekend = is_weekend(t)
    day = is_business_hours(t)
    overnight = ~weekend & ~day
    return {"day": day, "overnight": overnight, "weekend": weekend}


def join_demand(curve, windows: Iterable[IncidentWindow], *,
                horizon: float, step: float = 5 * MINUTE) -> QosOutcome:
    """Price downtime windows in user-perceived terms.

    Builds the per-interval demand grid once, accumulates each window's
    impact into a per-class unavailable-fraction array (overlapping
    incidents saturate at 1.0 -- a server cannot be more than down),
    and integrates demand x unavailability into failed requests and
    user-minutes lost.  Fully vectorised: a year at a 5-minute step is
    ~105k intervals regardless of population size.
    """
    t = curve.grid(0.0, horizon, step)
    n = len(t)
    unavail = {c.name: np.zeros(n, dtype=np.float64) for c in curve.classes}
    worst = np.zeros(n, dtype=np.float64)   # max class impact, for users

    for w in windows:
        if w.duration <= 0 or w.start >= horizon:
            continue
        i0 = max(0, int(w.start // step))
        i1 = min(n, int(np.ceil((w.start + w.duration) / step)))
        if i1 <= i0:
            continue
        w_max = 0.0
        for name, frac in w.impact.items():
            arr = unavail.get(name)
            if arr is None or frac <= 0:
                continue
            arr[i0:i1] += frac * w.scale
            w_max = max(w_max, frac * w.scale)
        if w_max > 0:
            np.maximum(worst[i0:i1], w_max, out=worst[i0:i1])

    attempted: Dict[str, float] = {}
    failed: Dict[str, float] = {}
    for cls in curve.classes:
        demand = curve.rate(cls, t) * step
        frac = np.minimum(unavail[cls.name], 1.0)
        attempted[cls.name] = float(demand.sum())
        failed[cls.name] = float((demand * frac).sum())

    users = curve.active_users(t) * np.minimum(worst, 1.0)
    minutes = users * (step / MINUTE)
    masks = _period_masks(t)
    user_minutes = {name: float(minutes[mask].sum())
                    for name, mask in masks.items()}
    return QosOutcome(horizon=horizon, step=step, attempted=attempted,
                      failed=failed, user_minutes=user_minutes)


def rollup_slis(slis) -> dict:
    """Request-weighted global rollup of many :class:`Sli` streams.

    The federation keeps one SLI per (site, class); the global
    availability users experience is the *request-weighted* merge --
    sum the raw attempted/served/shed counters, never average the
    per-site ratios (a tiny healthy site must not mask a large dark
    one)."""
    attempted = served = shed = 0.0
    for sli in slis:
        attempted += sli.attempted
        served += sli.served
        shed += sli.shed
    return {
        "attempted": attempted,
        "served": served,
        "failed": attempted - served,
        "shed": shed,
        "availability": served / attempted if attempted > 0 else 1.0,
    }
