"""Resource intelliagents.

"Responsible for managing and configuring resources such as disks,
network cards, virtual memory etc."  This agent owns the disk estate:
filesystem fill levels (healed by pruning logs), failed spindles
(escalated to a field engineer), and I/O service-time blow-ups
(§3.6's asvc_t / wsvc_t watch).
"""

from __future__ import annotations

from typing import List

from repro.core.agent import Intelliagent
from repro.core.parts import Finding
from repro.core.reasoning import CausalRule, RuleEngine, always

__all__ = ["ResourceAgent"]


def logs_grew(host, finding) -> bool:
    # the usual culprit for a full filesystem is log growth
    return finding.subject in ("/logs", "/var")


def data_growth(host, finding) -> bool:
    return finding.subject in ("/data", "/apps")


def io_saturated(host, finding) -> bool:
    return host.io_pressure() > 0.8


class ResourceAgent(Intelliagent):
    """One per host."""

    category = "resource"
    RUN_CPU_SECONDS = 0.015

    #: filesystem fill threshold, %
    FS_LIMIT = 90.0
    #: disk service time threshold, ms (30 s iostat intervals, §3.6)
    SVC_LIMIT = 60.0

    engine = RuleEngine((
        CausalRule("fs-full", "log-growth", logs_grew, ("clean_logs",)),
        # /data filling is real growth: capacity decision for humans
        CausalRule("fs-full", "data-growth", data_growth, ()),
        CausalRule("fs-offline", "dead-spindle-or-controller", always,
                   ("request_field_engineer",)),
        CausalRule("disk-failed", "dead-spindle", always,
                   ("request_field_engineer",)),
        CausalRule("disk-slow", "io-saturation", io_saturated, ()),
    ))

    def __init__(self, host, **kw):
        super().__init__(host, "resource", **kw)

    def monitor(self) -> List[Finding]:
        findings: List[Finding] = []
        for mount in self.host.fs.df():
            if not mount.online:
                findings.append(Finding("fs-offline", mount.point,
                                        "filesystem unavailable"))
            elif mount.pct_used > self.FS_LIMIT:
                findings.append(Finding(
                    "fs-full", mount.point,
                    f"{mount.pct_used:.0f}% used",
                    metric="fs_pct", value=mount.pct_used))
        for row in self.host.disk_metrics():
            if row["failed"]:
                findings.append(Finding("disk-failed",
                                        f"{self.host.name}:{row['device']}",
                                        "device not responding"))
            elif row["asvc_t"] > self.SVC_LIMIT:
                findings.append(Finding(
                    "disk-slow", f"{self.host.name}:{row['device']}",
                    f"asvc_t {row['asvc_t']:.1f} ms",
                    severity="warning",
                    metric="asvc_t", value=row["asvc_t"]))
        return findings
