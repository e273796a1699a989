"""Operator coverage and resolution timing.

§4 describes the manual pipeline in detail:

- detection (customer's own BMC Patrol data): ~1 h during the day,
  ~10 h for overnight-job faults, ~25 h over weekends;
- operators often did not understand severity, had to locate on-call
  people at night, and "a number of people had to be notified ... before
  any decisive action was taken";
- a service/server restart "could take up to 2 hours" because the fault
  first had to be diagnosed across distributed services;
- when remote diagnosis failed, experts "were obliged to come in", and
  the full procedure averaged ~4 hours.

:class:`OperatorModel` turns those observations into sampling functions
used by the fault campaign, the latency experiment and the MTTR
experiment -- for *both* pipelines, so they differ only where the paper
says they differ (detection grid and automated repair).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, TYPE_CHECKING

from repro.sim.calendar import HOUR, MINUTE, next_grid, period_of

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids a cycle with
    from repro.faults.models import CategoryProfile  # repro.faults.campaign

__all__ = ["Resolution", "OperatorModel"]


@dataclass
class Resolution:
    """Sampled outcome of handling one fault."""

    detection: float          # fault -> someone/something knows
    repair: float             # knows -> service healthy again
    escalated: bool = False   # experts had to come in
    auto: bool = False        # automation performed the repair
    prevented: bool = False   # never became an incident


class OperatorModel:
    """Timing model for manual and agent-assisted fault handling."""

    #: mean human detection delay by period (the customer's BMC data)
    DETECTION_MEAN = {"day": 1.0 * HOUR,
                      "overnight": 10.0 * HOUR,
                      "weekend": 25.0 * HOUR}

    #: travel time when an expert must come to the machine room
    EXPERT_TRAVEL_MEAN = 1.0 * HOUR

    def __init__(self, rng, agent_period: float = 5 * MINUTE):
        self.rng = rng
        self.agent_period = agent_period

    # -- detection ------------------------------------------------------------

    def manual_detection_delay(self, fault_time: float,
                               scale: float = 1.0) -> float:
        """Fault to human-awareness delay under monitor-and-operator
        coverage.  Exponential around the per-period mean, floored at
        five minutes (someone staring at a console can be quick).
        ``scale`` is the category's visibility: user-facing failures
        get shouted about; latent overnight crashes sit for hours."""
        mean = self.DETECTION_MEAN[period_of(fault_time)] * scale
        return max(5 * MINUTE, float(self.rng.exponential(mean)))

    def agent_detection_delay(self, fault_time: float) -> float:
        """Fault to agent-flag delay: the next cron wake plus the run
        itself (seconds)."""
        wake = next_grid(fault_time, self.agent_period) - fault_time
        run_time = float(self.rng.uniform(2.0, 20.0))
        return wake + run_time

    # -- repair ------------------------------------------------------------------

    def _night_tax(self, t: float) -> float:
        """Everything human is slower off-hours (locating on-call staff,
        conference-calling the right experts)."""
        return 1.0 if period_of(t) == "day" else 1.6

    def manual_repair_time(self, profile: CategoryProfile,
                           fault_time: float, *,
                           pinpointed: bool = False) -> Tuple[float, bool]:
        """Sample diagnosis + repair (+ escalation).  Returns
        (seconds, escalated)."""
        tax = self._night_tax(fault_time)
        diag = float(profile.manual_diagnosis.sample(self.rng)) * tax
        if pinpointed:
            diag *= profile.pinpoint_factor
        repair = float(profile.manual_repair.sample(self.rng)) * tax
        escalated = self.rng.random() >= profile.manual_first_fix_prob
        if escalated:
            # experts called in: travel plus a second, longer attempt
            travel = float(self.rng.exponential(self.EXPERT_TRAVEL_MEAN))
            repair += travel + float(
                profile.manual_repair.sample(self.rng)) * tax
        return (diag + repair, escalated)

    # -- full pipelines --------------------------------------------------------------

    def resolve_manual(self, profile: CategoryProfile,
                       fault_time: float) -> Resolution:
        """Score one fault under the pre-agent pipeline."""
        detection = self.manual_detection_delay(fault_time,
                                                profile.detection_scale)
        repair, escalated = self.manual_repair_time(profile, fault_time)
        return Resolution(detection, repair, escalated=escalated)

    def resolve_agent(self, profile: CategoryProfile,
                      fault_time: float) -> Resolution:
        """Score one fault under the intelliagent pipeline.

        Prevention may stop the incident entirely (SLKT checks catching
        a bad config before it bites).  Otherwise detection happens on
        the cron grid; if the category is auto-fixable the agent repair
        usually works, and when automation fails the human fallback
        starts from a pinpointed diagnosis.
        """
        if profile.prevention_prob and self.rng.random() < profile.prevention_prob:
            return Resolution(0.0, 0.0, prevented=True)
        detection = self.agent_detection_delay(fault_time)
        if profile.auto_fixable and self.rng.random() < profile.auto_fix_prob:
            repair = float(profile.auto_repair.sample(self.rng))
            return Resolution(detection, repair, auto=True)
        human_start = fault_time + detection
        repair, escalated = self.manual_repair_time(
            profile, human_start, pinpointed=True)
        return Resolution(detection, repair, escalated=escalated)
