"""Performance intelliagents (§3.5).

"Performance intelliagents that collect performance and availability
logs.  These intelliagents can suggest what may be wrong during service
degradation and have limited troubleshooting capabilities."

Every wake samples all five measurement workgroups into the circular
logs (the store timelines are read back from), compares the fresh
snapshot against the baselines, and on a breach
notifies administrators with a *report* that narrows the candidate
causes ("created comprehensive reports about what may have caused a
performance related problem and helped narrow down various
possibilities").  Healing is left to the OS/resource agents -- this one
only suggests.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.filesystem import FsError
from repro.core.agent import Intelliagent
from repro.core.parts import Finding
from repro.core.reasoning import CausalRule, RuleEngine
from repro.core.thresholds import Baselines
from repro.metrics.accounting import ProcessAccountant
from repro.metrics.circular_log import CircularLog
from repro.metrics.samplers import SamplerSuite

__all__ = ["PerformanceAgent"]


def top_user_suspect(host, finding) -> bool:
    return ProcessAccountant(host).heaviest_user()[1] > 50.0


def paging_suspect(host, finding) -> bool:
    return finding.metric in ("scan_rate", "page_out", "free_mb",
                              "page_faults")


def io_suspect(host, finding) -> bool:
    return "asvc_t" in finding.metric or "busy" in finding.metric


class PerformanceAgent(Intelliagent):
    """One per host."""

    category = "performance"
    RUN_CPU_SECONDS = 0.035      # the full five-group sweep
    #: limited troubleshooting: suggestions only, no actions
    engine = RuleEngine((
        CausalRule("perf-threshold", "user-workload-spike",
                   top_user_suspect, ()),
        CausalRule("perf-threshold", "memory-pressure", paging_suspect, ()),
        CausalRule("perf-threshold", "io-bottleneck", io_suspect, ()),
    ))

    def __init__(self, host, *, baselines: Optional[Baselines] = None, **kw):
        self.baselines = baselines or Baselines.for_host(host)
        self.samplers = SamplerSuite(host)
        self.accountant = ProcessAccountant(host)
        super().__init__(host, "perf", **kw)
        self.report_log = CircularLog(
            host.fs, "/logs/intelliagents/perf/reports", maxlen=200)

    def monitor(self) -> List[Finding]:
        samples = self.samplers.sample_all()
        merged: Dict[str, float] = {}
        for s in samples:
            merged.update(s.metrics)
        findings: List[Finding] = []
        for breach in self.baselines.check(merged):
            findings.append(Finding(
                "perf-threshold", self.host.name,
                f"{breach.metric}={breach.value:.1f} "
                f"{breach.direction} of {breach.limit:.1f}",
                severity="warning",
                metric=breach.metric, value=breach.value))
        return findings

    def _escalate(self, diag, reason: str) -> None:
        """A breach escalation carries the narrowed-down report."""
        self._write_report(diag)
        super()._escalate(diag, reason)

    def _write_report(self, diag) -> None:
        top = self.accountant.per_user()[:3]
        lines = [f"{self.sim.now:.0f} REPORT {diag.finding.detail} "
                 f"suspect={diag.cause} "
                 f"top_users={','.join(r.key for r in top) or 'none'}"]
        try:
            for line in lines:
                self.report_log.append(line, now=self.sim.now)
        except FsError:
            pass

    def timeline(self, group: str, metric: str):
        """Administrators 'can generate timelines of system behaviour':
        the metric's history as the circular log retains it."""
        return self.samplers.get_series(group, metric)
