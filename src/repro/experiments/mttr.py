"""Manual troubleshooting cost (§4 text).

"It could take up to 2 hours at a time for a service or server restart,
as faults had to be diagnosed and that was difficult as services were
distributed ... The whole troubleshooting procedure (and subsequent
downtime) could take an average of 4 hours in such cases."

The experiment drills into single incidents per category: it samples
many independent resolutions through the operator model (manual arm)
and the agent pipeline (agent arm) and reports repair-time statistics,
checking the two textual claims: the *typical* manual restart is on the
order of 2 h (we report the median repair), and the escalated cases
average about 4 h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.experiments.report import table, trace_artifacts
from repro.faults.models import CATEGORY_PROFILES, Category
from repro.ops.operators import OperatorModel
from repro.sim import RandomStreams
from repro.sim.calendar import DAY, HOUR
from repro.trace import Tracer, span_durations

__all__ = ["MttrResult", "run", "format_result"]


@dataclass
class MttrResult:
    #: per category: (manual median h, manual escalated mean h, agent mean h)
    rows: Dict[Category, tuple]
    manual_median_repair_h: float
    manual_escalated_mean_h: float
    agent_mean_repair_h: float
    #: the --trace note (:func:`trace_artifacts`)
    artifacts: str = ""


def run(seed: int = 0, *, trace: Optional[str] = None) -> MttrResult:
    rs = RandomStreams(seed)
    ops = OperatorModel(rs.get("mttr.ops"))
    rng = rs.get("mttr.times")

    # each model draw becomes a recorded repair span; every statistic
    # below is then derived from the trace, so the numbers the table
    # reports and the spans a viewer shows are the same data
    tracer = Tracer()
    for cat, prof in CATEGORY_PROFILES.items():
        for _ in range(400):
            t = float(rng.uniform(0, 7 * DAY))
            manual = ops.resolve_manual(prof, t)
            det = t + manual.detection
            tracer.record_span("manual.repair", det, det + manual.repair,
                               category=cat.value,
                               escalated=manual.escalated)
            agent = ops.resolve_agent(prof, t)
            if not agent.prevented:
                det = t + agent.detection
                tracer.record_span("agent.repair", det, det + agent.repair,
                                   category=cat.value)

    rows: Dict[Category, tuple] = {}
    for cat in CATEGORY_PROFILES:
        manual_rep = span_durations(tracer, "manual.repair",
                                    category=cat.value)
        escal = span_durations(tracer, "manual.repair",
                               category=cat.value, escalated=True)
        agent_rep = span_durations(tracer, "agent.repair",
                                   category=cat.value)
        rows[cat] = (
            float(np.median(manual_rep)) / HOUR,
            float(np.mean(escal)) / HOUR if len(escal) else 0.0,
            float(np.mean(agent_rep)) / HOUR if len(agent_rep) else 0.0,
        )
    manual_all = span_durations(tracer, "manual.repair")
    escalated_all = span_durations(tracer, "manual.repair", escalated=True)
    agent_all = span_durations(tracer, "agent.repair")
    return MttrResult(
        rows=rows,
        manual_median_repair_h=float(np.median(manual_all)) / HOUR,
        manual_escalated_mean_h=float(np.mean(escalated_all)) / HOUR
        if len(escalated_all) else 0.0,
        agent_mean_repair_h=float(np.mean(agent_all)) / HOUR
        if len(agent_all) else 0.0,
        artifacts=trace_artifacts(tracer, trace, False))


def format_result(r: MttrResult) -> str:
    body_rows = []
    for cat, (med, esc, agent) in r.rows.items():
        body_rows.append((cat.value, round(med, 2), round(esc, 2),
                          round(agent, 3)))
    body = table(
        ["category", "manual median repair (h)",
         "manual escalated mean (h)", "agent mean repair (h)"],
        body_rows,
        title="MTTR reproduction (paper: restarts took up to ~2 h; "
              "escalated cases averaged ~4 h)")
    return body + (
        f"\noverall: manual median {r.manual_median_repair_h:.2f} h, "
        f"escalated mean {r.manual_escalated_mean_h:.2f} h, "
        f"agent mean {r.agent_mean_repair_h:.2f} h") + r.artifacts
