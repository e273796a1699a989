"""Fault taxonomy and per-category behavioural profiles.

The eight categories are exactly Figure 2's legend.  Each category
carries a :class:`CategoryProfile`: how often it strikes, *when* it
tends to strike (mid-job database crashes cluster overnight, human
errors cluster in business hours), how long humans take to repair it
once detected, and what the agent pipeline can do about it.

The paper is explicit about the agents' limits, and the profiles encode
them: firewall/network and hardware faults are **not auto-fixable**
("our software was unable to take care of firewall/network and
hardware related errors"), and human errors are only mostly prevented
("... as well as eradicate completely human errors").

Calibration targets (Fig. 2, hours of downtime per year):

    category          before   after
    mid-crash            345       8
    human                 60       2
    performance           50       9
    front-end             40       3
    lsf                   30       1
    firewall/network      10       8
    hardware              10       6
    completely-down        5       2
    total                550      31
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = ["Category", "TimePattern", "CategoryProfile", "FaultEvent",
           "CATEGORY_PROFILES", "CATEGORY_IMPACT", "PAPER_FIG2_HOURS"]


class Category(enum.Enum):
    """Figure 2's error categories."""

    MID_CRASH = "mid-crash"            # databases crashing in the middle of a job
    HUMAN = "human"                    # operator/administrator errors
    PERFORMANCE = "performance"        # degradations, runaways, leaks
    FRONT_END = "front-end"            # user application downtime
    LSF = "lsf"                        # batch scheduler errors
    FIREWALL_NETWORK = "fw-nw"         # firewall config / network errors
    HARDWARE = "hardware"              # component failures
    COMPLETELY_DOWN = "completely-down"  # corruptions, bugs


class TimePattern(enum.Enum):
    """When a category's faults tend to occur."""

    UNIFORM = "uniform"
    OVERNIGHT = "overnight"      # batch window: weeknights + weekends
    BUSINESS = "business"        # human activity: weekday office hours


@dataclass(frozen=True)
class Dist:
    """A lognormal duration distribution given by its mean and a shape
    sigma (seconds).  ``mean`` is the true mean of the draw."""

    mean: float
    sigma: float = 0.6

    def sample(self, rng):
        import numpy as np
        # lognormal with E[X] = mean: mu = ln(mean) - sigma^2/2
        mu = np.log(self.mean) - self.sigma ** 2 / 2.0
        return rng.lognormal(mu, self.sigma)


@dataclass(frozen=True)
class CategoryProfile:
    """Arrival and repair behaviour of one fault category."""

    category: Category
    #: expected faults per year across the whole site
    rate_per_year: float
    time_pattern: TimePattern
    #: human time to identify the root cause once someone is looking
    manual_diagnosis: Dist
    #: human repair time once diagnosed (includes restarts, reruns)
    manual_repair: Dist
    #: probability the first manual attempt works (else escalate:
    #: experts called in, repair repeats at 2x)
    manual_first_fix_prob: float
    #: can the agent pipeline repair it without a human?
    auto_fixable: bool
    #: probability the automated repair works (else falls back to a
    #: human, but with the agent's pinpointing speeding diagnosis)
    auto_fix_prob: float
    #: agent diagnosis + repair time when automation works
    auto_repair: Dist
    #: with agents watching, some faults never become incidents at all
    #: (e.g. SLKT checks revert a bad config before it bites)
    prevention_prob: float = 0.0
    #: how *visible* the fault is to humans: scales the operator
    #: detection delay (user-facing failures get noticed fast; latent
    #: overnight crashes sit for hours -- the paper's key complaint)
    detection_scale: float = 1.0
    #: fraction of the incident during which the service is actually
    #: down (a performance degradation hurts, but is not a full outage)
    downtime_weight: float = 1.0
    #: how much an agent report shrinks manual diagnosis when automation
    #: cannot fix the fault itself.  1.0 = no help: the paper is explicit
    #: that its approach "cannot cater for network ... errors"
    pinpoint_factor: float = 0.25


#: Paper's Figure 2 values, hours/year, printed beside the measured ones.
PAPER_FIG2_HOURS: Dict[Category, Tuple[float, float]] = {
    Category.MID_CRASH: (345.0, 8.0),
    Category.HUMAN: (60.0, 2.0),
    Category.PERFORMANCE: (50.0, 9.0),
    Category.FRONT_END: (40.0, 3.0),
    Category.LSF: (30.0, 1.0),
    Category.FIREWALL_NETWORK: (10.0, 8.0),
    Category.HARDWARE: (10.0, 6.0),
    Category.COMPLETELY_DOWN: (5.0, 2.0),
}

_MIN = 60.0
_HOUR = 3600.0

#: Calibrated profiles.  Rates and repair means were chosen so the
#: *baseline* pipeline (operator detection + manual repair) lands near
#: the paper's "before" column; the agent pipeline then uses the same
#: arrivals.  See DESIGN.md's calibration note.
CATEGORY_PROFILES: Dict[Category, CategoryProfile] = {
    Category.MID_CRASH: CategoryProfile(
        Category.MID_CRASH, rate_per_year=17.0,
        time_pattern=TimePattern.OVERNIGHT,
        manual_diagnosis=Dist(45 * _MIN), manual_repair=Dist(1.5 * _HOUR),
        manual_first_fix_prob=0.8,
        auto_fixable=True, auto_fix_prob=0.95,
        auto_repair=Dist(8 * _MIN, 0.4)),
    Category.HUMAN: CategoryProfile(
        Category.HUMAN, rate_per_year=14.0,
        time_pattern=TimePattern.BUSINESS,
        manual_diagnosis=Dist(1.5 * _HOUR), manual_repair=Dist(1.5 * _HOUR),
        manual_first_fix_prob=0.7,
        auto_fixable=True, auto_fix_prob=0.8,
        auto_repair=Dist(6 * _MIN, 0.4),
        prevention_prob=0.7, detection_scale=0.5),
    Category.PERFORMANCE: CategoryProfile(
        Category.PERFORMANCE, rate_per_year=13.0,
        time_pattern=TimePattern.UNIFORM,
        manual_diagnosis=Dist(1.2 * _HOUR), manual_repair=Dist(50 * _MIN),
        manual_first_fix_prob=0.75,
        auto_fixable=True, auto_fix_prob=0.7,
        auto_repair=Dist(25 * _MIN, 0.5),
        detection_scale=0.5, downtime_weight=0.45),
    Category.FRONT_END: CategoryProfile(
        Category.FRONT_END, rate_per_year=20.0,
        time_pattern=TimePattern.BUSINESS,
        manual_diagnosis=Dist(40 * _MIN), manual_repair=Dist(45 * _MIN),
        manual_first_fix_prob=0.85,
        auto_fixable=True, auto_fix_prob=0.95,
        auto_repair=Dist(5 * _MIN, 0.4),
        detection_scale=0.3),
    Category.LSF: CategoryProfile(
        Category.LSF, rate_per_year=9.0,
        time_pattern=TimePattern.OVERNIGHT,
        manual_diagnosis=Dist(30 * _MIN), manual_repair=Dist(30 * _MIN),
        manual_first_fix_prob=0.9,
        auto_fixable=True, auto_fix_prob=0.95,
        auto_repair=Dist(4 * _MIN, 0.3),
        detection_scale=0.4, downtime_weight=0.4),
    Category.FIREWALL_NETWORK: CategoryProfile(
        Category.FIREWALL_NETWORK, rate_per_year=1.5,
        time_pattern=TimePattern.UNIFORM,
        manual_diagnosis=Dist(50 * _MIN), manual_repair=Dist(60 * _MIN),
        manual_first_fix_prob=0.8,
        auto_fixable=False, auto_fix_prob=0.0,
        auto_repair=Dist(5 * _MIN),
        detection_scale=0.15, pinpoint_factor=1.0),
    Category.HARDWARE: CategoryProfile(
        Category.HARDWARE, rate_per_year=1.3,
        time_pattern=TimePattern.UNIFORM,
        manual_diagnosis=Dist(40 * _MIN), manual_repair=Dist(75 * _MIN),
        manual_first_fix_prob=0.75,
        auto_fixable=False, auto_fix_prob=0.0,
        auto_repair=Dist(5 * _MIN),
        detection_scale=0.4, pinpoint_factor=0.6),
    Category.COMPLETELY_DOWN: CategoryProfile(
        Category.COMPLETELY_DOWN, rate_per_year=0.6,
        time_pattern=TimePattern.UNIFORM,
        manual_diagnosis=Dist(1.0 * _HOUR), manual_repair=Dist(1.2 * _HOUR),
        manual_first_fix_prob=0.6,
        auto_fixable=True, auto_fix_prob=0.5,
        auto_repair=Dist(25 * _MIN, 0.5),
        detection_scale=0.5),
}

#: Fraction of each demand class an incident of a category takes out.
#: Calibrated to the site inventory: one of ~100 databases, one of ~60
#: front-end servers, one LAN of two, the whole site for corruption
#: outages.  LSF faults hit the batch window, which users feel only as
#: a thin slice of database demand.
CATEGORY_IMPACT: Dict[Category, Dict[str, float]] = {
    Category.MID_CRASH: {"frontend": 0.010, "db": 0.010},
    Category.HUMAN: {"web": 0.020, "frontend": 0.020, "db": 0.010},
    Category.PERFORMANCE: {"web": 0.020, "frontend": 0.020, "db": 0.020},
    Category.FRONT_END: {"web": 1.0 / 60.0, "frontend": 1.0 / 60.0},
    Category.LSF: {"db": 0.020},
    Category.FIREWALL_NETWORK: {"web": 0.5, "frontend": 0.5, "db": 0.5},
    Category.HARDWARE: {"web": 0.005, "frontend": 0.005, "db": 0.010},
    Category.COMPLETELY_DOWN: {"web": 1.0, "frontend": 1.0, "db": 1.0},
}


@dataclass
class FaultEvent:
    """One injected fault instance."""

    category: Category
    kind: str                 # concrete flavour, e.g. "db-crash", "nic-fail"
    time: float
    target: str = ""          # host/app/lan name
    #: trace-correlation id assigned at injection when a tracer is on;
    #: every detection/diagnosis/repair span of this fault carries it
    fault_id: str = ""
    detected_at: Optional[float] = None
    repaired_at: Optional[float] = None
    auto_repaired: Optional[bool] = None
    prevented: bool = False
