"""Figure 2: downtime hours by error category, before vs after.

The paper reports one production year before the agents (550 h across
eight categories, dominated by databases crashing mid-job) and one year
after (31 h).  The reproduction scores a calibrated year-long fault
campaign through both pipelines over the *same* fault draw, optionally
averaged over replications (each an independent draw), and prints the
paper-vs-measured rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.campaign import (Campaign, CampaignResult, PipelineParams,
                                   paper_comparison_rows)
from repro.faults.models import Category, PAPER_FIG2_HOURS
from repro.experiments.report import table
from repro.sim import RandomStreams
from repro.sim.calendar import YEAR

__all__ = ["Fig2Result", "run_once", "run_replicated", "format_result"]


@dataclass
class Fig2Result:
    """Mean measured hours per category for both pipelines."""

    before_hours: Dict[Category, float]
    after_hours: Dict[Category, float]
    replications: int
    detection_before: Dict[str, float]
    detection_after: Dict[str, float]

    @property
    def total_before(self) -> float:
        return sum(self.before_hours.values())

    @property
    def total_after(self) -> float:
        return sum(self.after_hours.values())

    @property
    def improvement_factor(self) -> float:
        return self.total_before / max(1e-9, self.total_after)

    def rows(self) -> List[Tuple]:
        out = []
        for cat in Category:
            pb, pa = PAPER_FIG2_HOURS[cat]
            out.append((cat.value, pb, pa,
                        round(self.before_hours[cat], 1),
                        round(self.after_hours[cat], 1)))
        # the paper *states* 31 h total after, but its own per-category
        # values sum to 39 h; we report the category sum for consistency
        out.append(("TOTAL", 550.0, 39.0,
                    round(self.total_before, 1),
                    round(self.total_after, 1)))
        return out


def run_once(seed: int = 0, *, horizon: float = YEAR
             ) -> Tuple[CampaignResult, CampaignResult]:
    """One fault draw scored through both pipelines."""
    rs = RandomStreams(seed)
    campaign = Campaign(rs.get("fig2.campaign"), horizon=horizon)
    return campaign.run_pair(before_rng=rs.get("fig2.ops.before"),
                             after_rng=rs.get("fig2.ops.after"))


def _replication_worker(seed: int, horizon: float = YEAR) -> tuple:
    """One replication, reduced to plain dicts (picklable: this is the
    unit of work the process pool ships around)."""
    before, after = run_once(seed, horizon=horizon)
    return (before.hours_by_category(), after.hours_by_category(),
            before.detection_by_period(), after.detection_by_period())


def run_replicated(seeds: List[int], *, horizon: float = YEAR,
                   processes: Optional[int] = None) -> Fig2Result:
    """Average the campaign over independent replications.

    The replications go through :func:`repro.parallel.replicate`
    (process pool when it pays, in-process otherwise or with
    ``processes=1``); results are identical either way because every
    replication derives its randomness from its own seed."""
    if not seeds:
        raise ValueError("need at least one seed")
    from repro.parallel import replicate   # pulls in multiprocessing
    worker = partial(_replication_worker, horizon=horizon)
    outcomes = replicate(worker, seeds, processes=processes, min_parallel=2)

    acc_b = {c: 0.0 for c in Category}
    acc_a = {c: 0.0 for c in Category}
    det_b: Dict[str, List[float]] = {"day": [], "overnight": [],
                                     "weekend": []}
    det_a: Dict[str, List[float]] = {"day": [], "overnight": [],
                                     "weekend": []}
    n = len(seeds)
    for hours_b, hours_a, detection_b, detection_a in outcomes:
        for cat, h in hours_b.items():
            acc_b[cat] += h / n
        for cat, h in hours_a.items():
            acc_a[cat] += h / n
        for k, v in detection_b.items():
            det_b[k].append(v)
        for k, v in detection_a.items():
            det_a[k].append(v)
    return Fig2Result(
        before_hours=acc_b, after_hours=acc_a, replications=n,
        detection_before={k: float(np.mean(v)) if v else 0.0
                          for k, v in det_b.items()},
        detection_after={k: float(np.mean(v)) if v else 0.0
                         for k, v in det_a.items()})


def format_result(result: Fig2Result) -> str:
    body = table(
        ["category", "paper before (h)", "paper after (h)",
         "measured before (h)", "measured after (h)"],
        result.rows(),
        title=(f"Figure 2 reproduction -- downtime by category "
               f"({result.replications} replication(s), 1 simulated year)"))
    tail = (f"\nimprovement factor: paper {550 / 39:.1f}x "
            f"(17.7x by the stated 31 h total), "
            f"measured {result.improvement_factor:.1f}x")
    return body + tail
