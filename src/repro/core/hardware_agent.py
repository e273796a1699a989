"""Hardware intelliagents.

"Hardware agents that look after hardware components (CPU, memory,
boards etc)."  Detection and pinpointing only: §4 concedes the software
"was unable to take care of ... hardware related errors", so the heal
path is a field-engineer request plus an immediate critical
notification -- the value is that the failed FRU is named within one
agent period instead of after hours of manual triage.
"""

from __future__ import annotations

from typing import List

from repro.core.agent import Intelliagent
from repro.core.parts import Finding
from repro.core.reasoning import CausalRule, RuleEngine, always

__all__ = ["HardwareAgent"]


class HardwareAgent(Intelliagent):
    """One per host."""

    category = "hardware"
    RUN_CPU_SECONDS = 0.012
    engine = RuleEngine((
        CausalRule("hw-failed", "failed-fru", always,
                   ("request_field_engineer",)),
        CausalRule("hw-degraded", "failing-fru", always,
                   ("request_field_engineer",)),
    ))

    def __init__(self, host, **kw):
        super().__init__(host, "hardware", **kw)

    def monitor(self) -> List[Finding]:
        findings: List[Finding] = []
        res = self.host.shell.run("prtdiag")
        if res.ok:
            return findings
        # non-zero exit: parse the ASCII for the failed/degraded FRUs
        for line in res.stdout:
            name, _, state = line.partition(" ")
            if state == "failed":
                findings.append(Finding("hw-failed",
                                        f"{self.host.name}:{name}",
                                        "component failed"))
            elif state == "degraded":
                findings.append(Finding("hw-degraded",
                                        f"{self.host.name}:{name}",
                                        "correctable errors accumulating",
                                        severity="warning"))
        return findings
