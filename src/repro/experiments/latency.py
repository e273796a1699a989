"""Fault-detection latency (§4 text).

"Faults however, were detected within the first 5 minutes of them
happening (the intelliagent run frequency), as opposed to about 1 hour
during day time, about 25 hours over the weekends and 10 hours from
overnight jobs (data provided by the customer using BMC Patrol)."

Two arms:

- **agents** -- full fidelity: faults are injected into a small live
  site on a schedule spanning day/overnight/weekend slots; detection is
  the first ``fault.detect`` trace span carrying the injected fault's
  id, so the measured bound is the real cron grid, not an assumption
  (``tests/integration/test_trace_correlation.py`` pins the span
  against the downtime ledger's flag-derived stamp).
- **manual** -- the operator-coverage model sampled at the same fault
  times (the paper's own baseline numbers came from BMC logs and human
  records, which is what the model encodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.experiments.report import table, trace_artifacts
from repro.experiments.runner import FidelityHarness
from repro.experiments.site import SiteConfig, build_site
from repro.faults.models import CATEGORY_PROFILES, Category
from repro.ops.operators import OperatorModel
from repro.sim.calendar import DAY, HOUR, period_of
from repro.trace import install_tracer

__all__ = ["LatencyResult", "PAPER_HOURS", "run", "format_result"]

#: the paper's detection numbers, hours, by period
PAPER_HOURS = {"day": 1.0, "overnight": 10.0, "weekend": 25.0}

WEEKS = 2       # the horizon, in weeks of fault slots
#: fault slots: (day offset within week, time of day) covering the
#: three coverage periods; the experiment tiles these over the horizon
_SLOTS = (
    (1, 10.5 * HOUR),     # Tuesday mid-morning      -> day
    (2, 14.0 * HOUR),     # Wednesday afternoon      -> day
    (0, 2.0 * HOUR),      # Monday small hours       -> overnight
    (3, 22.5 * HOUR),     # Thursday late evening    -> overnight
    (5, 11.0 * HOUR),     # Saturday                 -> weekend
    (6, 3.0 * HOUR),      # Sunday small hours       -> weekend
)


@dataclass
class LatencyResult:
    agent_by_period: Dict[str, float]     # mean hours, span-derived
    manual_by_period: Dict[str, float]
    agent_max_minutes: float
    samples: int
    #: the --timeline text and --trace note (:func:`trace_artifacts`)
    artifacts: str = ""


def run(seed: int = 0, *, trace: Optional[str] = None,
        timeline: bool = False) -> LatencyResult:
    site = build_site(SiteConfig.test_scale(
        seed=seed, with_workload=False))
    tracer = install_tracer(site.sim)
    harness = FidelityHarness(site)
    rs = site.streams
    ops = OperatorModel(rs.get("latency.ops"))
    profile = CATEGORY_PROFILES[Category.FRONT_END]

    agent_lat: Dict[str, List[float]] = {"day": [], "overnight": [],
                                         "weekend": []}
    manual_lat: Dict[str, List[float]] = {"day": [], "overnight": [],
                                          "weekend": []}
    targets = site.databases + site.frontends
    ti = 0
    for week in range(WEEKS):
        for day, tod in _SLOTS:
            fault_time = week * 7 * DAY + day * DAY + tod
            if fault_time <= site.sim.now:
                continue
            site.sim.run(until=fault_time)
            app = targets[ti % len(targets)]
            ti += 1
            if not app.is_running():
                continue
            if ti % 3 == 0:
                ev = harness.injector.app_hang(app)
            else:
                ev = harness.injector.app_crash(app)
            period = period_of(fault_time)
            # let the agents catch and heal it before the next slot
            site.sim.run(until=fault_time + 2 * 3600.0)
            # the measurement: the first fault.detect span stamped with
            # this fault's correlation id
            detects = tracer.spans_named("fault.detect",
                                         fault_id=ev.fault_id)
            if detects:
                agent_lat[period].append(
                    (min(s.start for s in detects) - fault_time) / 3600.0)
            # the manual arm is a model draw, so average plenty of them
            # per slot (the simulated clock is not consumed by this)
            manual_lat[period].extend(
                ops.manual_detection_delay(fault_time) / 3600.0
                for _ in range(25))

    def mean(d):
        return {k: float(np.mean(v)) if v else 0.0 for k, v in d.items()}

    all_agent = [x for v in agent_lat.values() for x in v]
    return LatencyResult(
        agent_by_period=mean(agent_lat),
        manual_by_period=mean(manual_lat),
        agent_max_minutes=float(np.max(all_agent)) * 60.0 if all_agent else 0.0,
        samples=ti,
        artifacts=trace_artifacts(tracer, trace, timeline))


def format_result(r: LatencyResult) -> str:
    paper_agent_bound_h = 5.0 / 60.0        # "within the first 5 minutes"
    rows = []
    for period in ("day", "overnight", "weekend"):
        rows.append((period, PAPER_HOURS[period],
                     round(r.manual_by_period[period], 2),
                     round(paper_agent_bound_h, 3),
                     round(r.agent_by_period[period], 3)))
    body = table(
        ["period", "paper manual (h)", "measured manual (h)",
         "paper agents (h)", "measured agents (h)"], rows,
        title="Detection latency reproduction (paper: <=5 min with "
              "agents vs 1 h / 10 h / 25 h manual)")
    return body + (f"\nworst agent detection: "
                   f"{r.agent_max_minutes:.1f} min "
                   f"(bound: agent period + run)") + r.artifacts
