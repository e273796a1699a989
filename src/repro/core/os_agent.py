"""Operating system / network intelliagents.

Watches the §3.6 OS measurements (scan rate, page-outs, faults, free
memory, run queue, idle %, blocked processes) against the host's
baselines, plus the network items (interface errors, reachability of
the administration servers over the private network, name-server
response).

Memory and CPU anomalies are diagnosed down to leaking/runaway
processes and healed; network anomalies are detect-and-notify only --
the paper is explicit that the approach "cannot cater for network ...
errors".
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.agent import Intelliagent
from repro.core.parts import Finding
from repro.core.reasoning import CausalRule, RuleEngine, always
from repro.core.thresholds import Baselines

__all__ = ["OsNetworkAgent"]


def leaking_process(host, finding) -> bool:
    if finding.metric not in ("free_mb", "scan_rate", "page_out",
                              "page_faults"):
        return False
    ram = host.effective_ram_mb()
    return any(p.mem_mb > 0.3 * ram for p in host.ptable
               if p.user != "root")


def runaway_process(host, finding) -> bool:
    if finding.metric not in ("run_queue", "cpu_idle", "load_avg"):
        return False
    return any(p.cpu_pct > 90.0 for p in host.ptable
               if p.user not in ("root", "daemon"))


def memory_pressure_real(host, finding) -> bool:
    # genuine demand (no single culprit): notify capacity people
    return finding.metric in ("free_mb", "scan_rate", "page_out")


def hog_is_cpu(host, finding) -> bool:
    return finding.metric == "proc_cpu"


def hog_is_mem(host, finding) -> bool:
    return finding.metric == "proc_mem"


class OsNetworkAgent(Intelliagent):
    """One per host."""

    category = "os-network"
    RUN_CPU_SECONDS = 0.022      # vmstat+netstat+ping sweep
    engine = RuleEngine((
        CausalRule("proc-hog", "runaway-process",
                   hog_is_cpu, ("kill_runaway",)),
        CausalRule("proc-hog", "memory-leak",
                   hog_is_mem, ("kill_leaky",)),
        CausalRule("os-threshold", "memory-leak",
                   leaking_process, ("kill_leaky",)),
        CausalRule("os-threshold", "runaway-process",
                   runaway_process, ("kill_runaway",)),
        CausalRule("os-threshold", "genuine-memory-demand",
                   memory_pressure_real, ()),
        # network: detect, pinpoint, notify -- never auto-fix
        CausalRule("nic-failed", "interface-hardware", always, ()),
        CausalRule("nic-errors", "cabling-or-duplex", always, ()),
        CausalRule("net-unreachable", "lan-or-firewall", always, ()),
        CausalRule("dns-down", "name-server-outage", always, ()),
        CausalRule("dns-slow", "name-server-degraded", always, ()),
    ))

    def __init__(self, host, *, baselines: Optional[Baselines] = None,
                 nameservice=None, **kw):
        self.baselines = baselines or Baselines.for_host(host)
        self.nameservice = nameservice
        super().__init__(host, "osnet", **kw)

    # -- monitoring ---------------------------------------------------------------

    def monitor(self) -> List[Finding]:
        findings: List[Finding] = []
        for breach in self.baselines.check(self.host.os_metrics()):
            findings.append(Finding(
                "os-threshold", self.host.name,
                f"{breach.metric}={breach.value:.1f} "
                f"{breach.direction} of {breach.limit:.1f}",
                metric=breach.metric, value=breach.value))
        findings.extend(self._check_processes())
        findings.extend(self._check_network())
        return findings

    def _check_processes(self) -> List[Finding]:
        """§3.6 item 5: per-process CPU and memory utilisation."""
        findings: List[Finding] = []
        ram = self.host.effective_ram_mb()
        for proc in self.host.ptable:
            if proc.user in ("root", "daemon"):
                continue
            if proc.cpu_pct > 90.0:
                findings.append(Finding(
                    "proc-hog", f"{self.host.name}:{proc.command}",
                    f"pid {proc.pid} ({proc.user}) at "
                    f"{proc.cpu_pct:.0f}% cpu",
                    metric="proc_cpu", value=proc.cpu_pct))
            elif proc.mem_mb > 0.3 * ram:
                findings.append(Finding(
                    "proc-hog", f"{self.host.name}:{proc.command}",
                    f"pid {proc.pid} ({proc.user}) holds "
                    f"{proc.mem_mb:.0f} MB",
                    metric="proc_mem", value=proc.mem_mb))
        return findings

    def _check_network(self) -> List[Finding]:
        findings: List[Finding] = []
        for nic in self.host.nics.values():
            if not nic.ok:
                findings.append(Finding("nic-failed",
                                        f"{self.host.name}:{nic.ifname}",
                                        "interface not responding"))
            elif nic.errors_in + nic.errors_out > 50:
                findings.append(Finding("nic-errors",
                                        f"{self.host.name}:{nic.ifname}",
                                        f"{nic.errors_in + nic.errors_out} "
                                        "errors", severity="warning"))
        # reachability of the coordinators over the agent network
        for target in self.admin_targets:
            res = self.host.shell.run(f"ping {target}")
            if not res.ok:
                findings.append(Finding("net-unreachable", target,
                                        "admin server unreachable"))
                break       # one is enough evidence of network trouble
        if self.nameservice is not None:
            ms = self.nameservice.response_ms()
            if ms < 0:
                findings.append(Finding("dns-down", "nameservice",
                                        "no answer from name server"))
            elif ms > 50.0:
                findings.append(Finding("dns-slow", "nameservice",
                                        f"response {ms:.0f} ms",
                                        severity="warning"))
        return findings
