"""User-traffic workload models.

The paper's site served "millions of users"; its QoS claim is about
what those users experienced, yet the reproduction so far only counts
downtime hours.  This module models the *demand side*: open-loop,
diurnal and weekday-aware arrival processes per application class
(analyst front-end sessions, web GETs, database transactions), seeded
from :mod:`repro.sim.rand` streams so every run is reproducible.

Everything is expressed as *rates* that can be evaluated either at a
scalar timestamp or vectorised over a whole numpy time grid -- the
fluid traffic engine and the request-weighted QoS join both ride the
vectorised path, so a year of 1M-user demand is a 100k-element array,
not a billion request events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple, Union

import numpy as np

from repro.sim.calendar import DAY, HOUR, MINUTE, is_weekend, time_of_day

__all__ = ["TrafficClass", "DiurnalProfile", "DemandCurve", "Region",
           "FINANCIAL_CLASSES", "FINANCIAL_PROFILE", "FINANCIAL_REGIONS",
           "financial_curve", "regional_curves"]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class TrafficClass:
    """One class of user demand against one application tier."""

    name: str
    #: application type the front door routes this class to
    app_type: str
    #: mean requests per user per *weekday* (the diurnal profile then
    #: shapes when within the day they land)
    requests_per_user_day: float
    #: weekend volume as a fraction of weekday volume
    weekend_factor: float = 0.25


class DiurnalProfile:
    """Hour-of-day demand shape, normalised to a weekday mean of 1.0.

    ``shape(t)`` is dimensionless: multiply a class's mean rate by it to
    get the instantaneous rate.  Weekends reuse the same intra-day curve
    scaled by the class's ``weekend_factor``.
    """

    def __init__(self, hourly_weights: Iterable[float]):
        w = np.asarray(list(hourly_weights), dtype=np.float64)
        if w.shape != (24,) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("need 24 non-negative hourly weights")
        self.weights = w * (24.0 / w.sum())   # mean over the day == 1.0

    def shape(self, t: ArrayLike, weekend_factor: float = 1.0) -> ArrayLike:
        """Dimensionless demand multiplier at simulated time ``t``."""
        hours = time_of_day(t) / HOUR
        if isinstance(t, np.ndarray):
            idx = hours.astype(np.int64)
            base = self.weights[idx]
            return np.where(is_weekend(t), base * weekend_factor, base)
        base = float(self.weights[int(hours)])
        return base * weekend_factor if is_weekend(t) else base


#: Financial-site profile: a deep overnight trough, a morning ramp as
#: analysts log in, sustained business-hours load peaking late morning
#: and mid-afternoon, an evening tail of remaining sessions.
FINANCIAL_PROFILE = DiurnalProfile([
    0.10, 0.08, 0.06, 0.06, 0.08, 0.15,      # 00-05  overnight trough
    0.35, 0.80, 1.60, 2.10, 2.30, 2.20,      # 06-11  ramp to late-morning peak
    1.80, 2.00, 2.25, 2.15, 1.90, 1.50,      # 12-17  afternoon plateau
    0.95, 0.60, 0.40, 0.30, 0.22, 0.15,      # 18-23  evening tail
])

#: The three user-facing demand classes of the paper's site: public web
#: traffic, analyst GUI queries, and user-driven database transactions.
FINANCIAL_CLASSES: Tuple[TrafficClass, ...] = (
    TrafficClass("web", "webserver", requests_per_user_day=4.0,
                 weekend_factor=0.30),
    TrafficClass("frontend", "frontend", requests_per_user_day=0.9,
                 weekend_factor=0.10),
    TrafficClass("db", "database", requests_per_user_day=0.6,
                 weekend_factor=0.15),
)

#: Fraction of the population concurrently active at the weekday peak
#: (used for the "user-minutes lost" view; the rest of the day scales
#: with the diurnal profile).
PEAK_ACTIVE_FRACTION = 0.35


class DemandCurve:
    """Site-wide demand as a function of simulated time.

    Binds a user population to a set of :class:`TrafficClass` demand
    models and one :class:`DiurnalProfile`, and answers both scalar
    questions (``rate(cls, t)``) and vectorised ones over a grid
    (``expected_requests``), plus the user-concurrency view behind
    request-weighted unavailability.
    """

    peak_active_fraction = PEAK_ACTIVE_FRACTION

    def __init__(self, classes: Iterable[TrafficClass],
                 population: int, tz_offset: float = 0.0):
        self.classes: Tuple[TrafficClass, ...] = tuple(classes)
        if not self.classes:
            raise ValueError("need at least one traffic class")
        self.by_name: Dict[str, TrafficClass] = {c.name: c
                                                 for c in self.classes}
        self.population = int(population)
        self.profile = FINANCIAL_PROFILE
        #: seconds added to sim time before evaluating the diurnal
        #: profile -- a region east of the reference peaks earlier
        #: (follow-the-sun; 0.0 keeps the single-site behaviour).
        self.tz_offset = float(tz_offset)

    # -- request rates -------------------------------------------------------

    def rate(self, cls: TrafficClass, t: ArrayLike) -> ArrayLike:
        """Instantaneous request rate (requests/second) of one class."""
        mean_rps = self.population * cls.requests_per_user_day / DAY
        return mean_rps * self.profile.shape(t + self.tz_offset,
                                             cls.weekend_factor)

    def expected_requests(self, cls: TrafficClass, t0: float,
                          t1: float) -> float:
        """Expected request count in ``[t0, t1)`` (left-endpoint rate --
        exact in the fluid limit for the sub-hour steps the engine
        uses)."""
        return float(self.rate(cls, t0)) * (t1 - t0)

    def grid(self, t0: float, t1: float, step: float) -> np.ndarray:
        """Interval start times covering ``[t0, t1)``."""
        if step <= 0:
            raise ValueError(f"step must be positive, got {step!r}")
        return np.arange(t0, t1, step, dtype=np.float64)

    # -- concurrency (the user-minutes view) ---------------------------------

    def active_users(self, t: ArrayLike) -> ArrayLike:
        """Concurrently active users at ``t`` (all classes share one
        activity curve: the same analysts drive GUI, web and database
        demand)."""
        peak = float(np.max(self.profile.weights))
        scale = self.population * self.peak_active_fraction / peak
        return scale * self.profile.shape(t + self.tz_offset, 0.25)

    def incident_user_minutes(self, start: float, duration: float) -> float:
        """User-minutes lost to a hypothetical full outage: concurrent
        users integrated minute by minute over its window.  This is why
        a midnight crash costs less QoS than a peak-hours one of the
        same length."""
        users = self.active_users(self.grid(start, start + duration, MINUTE))
        return float(np.sum(users))

    def __repr__(self) -> str:    # pragma: no cover - debug aid
        return (f"<DemandCurve population={self.population} "
                f"classes={[c.name for c in self.classes]}>")


def financial_curve(population: int = 1_000_000) -> DemandCurve:
    """The default demand model of the paper's site."""
    return DemandCurve(FINANCIAL_CLASSES, population)


# -- regions (the federation's follow-the-sun view) --------------------------

@dataclass(frozen=True)
class Region:
    """One user geography served by the federation."""

    name: str
    #: fraction of the global population homed here
    share: float
    #: hours ahead of the reference clock (east positive): this
    #: region's business day peaks ``utc_offset_hours`` earlier in
    #: sim time, which is what makes demand follow the sun
    utc_offset_hours: float


#: The three-geography split the federation experiments use: the
#: Americas, Europe/Middle-East/Africa, and Asia-Pacific trading days.
FINANCIAL_REGIONS: Tuple[Region, ...] = (
    Region("amer", 0.40, -5.0),
    Region("apac", 0.25, +8.0),
    Region("emea", 0.35, 0.0),
)


def regional_curves(population: int) -> Dict[str, DemandCurve]:
    """Split one global population into per-region demand curves over
    :data:`FINANCIAL_REGIONS`.

    Region populations are the rounded shares with the last region (in
    name order) absorbing the rounding remainder, so the totals add up
    to ``population`` exactly."""
    regions = sorted(FINANCIAL_REGIONS, key=lambda r: r.name)
    total_share = sum(r.share for r in regions)
    curves: Dict[str, DemandCurve] = {}
    allotted = 0
    for i, region in enumerate(regions):
        if i + 1 == len(regions):
            pop = population - allotted
        else:
            pop = int(round(population * region.share / total_share))
        allotted += pop
        curves[region.name] = DemandCurve(
            FINANCIAL_CLASSES, pop, tz_offset=region.utc_offset_hours * HOUR)
    return curves
