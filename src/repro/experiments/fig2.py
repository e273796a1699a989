"""Figure 2: downtime hours by error category, before vs after.

The paper reports one production year before the agents (550 h across
eight categories, dominated by databases crashing mid-job) and one year
after (31 h).  The reproduction scores a calibrated year-long fault
campaign through both pipelines over the *same* fault draw, optionally
averaged over replications (each an independent draw), and prints the
paper-vs-measured rows.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.faults.campaign import Campaign
from repro.faults.models import Category, PAPER_FIG2_HOURS
from repro.experiments.report import mean_summary, table
from repro.sim import RandomStreams
from repro.sim.calendar import YEAR

__all__ = ["run_once", "run_replicated", "format_result"]


def run_once(seed: int = 0, *, horizon: float = YEAR) -> dict:
    """One fault draw scored through both pipelines: hours by category
    and mean detection hours by period, before and after."""
    rs = RandomStreams(seed)
    campaign = Campaign(rs.get("fig2.campaign"), horizon=horizon)
    before, after = campaign.run_pair(before_rng=rs.get("fig2.ops.before"),
                                      after_rng=rs.get("fig2.ops.after"))
    return {
        "before_hours": {c.value: h
                         for c, h in before.hours_by_category().items()},
        "after_hours": {c.value: h
                        for c, h in after.hours_by_category().items()},
        "detection_before": before.detection_by_period(),
        "detection_after": after.detection_by_period(),
        "replications": 1,
    }


def run_replicated(seed: int = 0, *, replications: int = 5,
                   horizon: float = YEAR,
                   processes: Optional[int] = None) -> dict:
    """Mean summary over independent fault draws."""
    return mean_summary(run_once, seed, replications, processes,
                        horizon=horizon)


def format_result(summary: Mapping) -> str:
    """Render a (possibly replicated) summary dict."""
    before, after = summary["before_hours"], summary["after_hours"]
    total_before, total_after = sum(before.values()), sum(after.values())
    rows = [(cat.value, *PAPER_FIG2_HOURS[cat],
             round(before[cat.value], 1), round(after[cat.value], 1))
            for cat in Category]
    # the paper *states* 31 h total after, but its own per-category
    # values sum to 39 h; we report the category sum for consistency
    rows.append(("TOTAL", 550.0, 39.0, round(total_before, 1),
                 round(total_after, 1)))
    body = table(
        ["category", "paper before (h)", "paper after (h)",
         "measured before (h)", "measured after (h)"],
        rows,
        title=(f"Figure 2 reproduction -- downtime by category "
               f"({summary['replications']} replication(s), "
               f"1 simulated year)"))
    tail = (f"\nimprovement factor: paper {550 / 39:.1f}x "
            f"(17.7x by the stated 31 h total), "
            f"measured {total_before / max(1e-9, total_after):.1f}x")
    return body + tail
