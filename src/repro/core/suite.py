"""Per-host agent complement.

"For each component there is one special intelliagent (such as one for
the CPU, one for the network card etc) ... All intelliagents run in
parallel, in a distributed manner and do not depend on each other."

The suite installs the standard complement on a host -- hardware, OS/
network, resource, performance, status, plus one service agent per
installed application -- staggered across the cron grid so wakes do not
pile up, and owns the Figures 3/4 overhead accounting: amortised CPU
(cron-run, non-resident) and the flat ~1.6 MB run-time footprint.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.agent import AGENT_PROC_MEM_MB, Intelliagent
from repro.core.hardware_agent import HardwareAgent
from repro.core.os_agent import OsNetworkAgent
from repro.core.performance_agent import PerformanceAgent
from repro.core.resource_agent import ResourceAgent
from repro.core.service_agent import ServiceAgent
from repro.core.status_agent import StatusAgent
from repro.core.thresholds import Baselines
from repro.ontology.slkt import build_slkt
from repro.persist.core import Persistent, part
from repro.wake import TriggerBus

__all__ = ["AgentSuite"]


class AgentSuite(Persistent):
    """All intelliagents installed on one host."""

    _persist = (part("agents", lambda suite: {a.name: a
                                              for a in suite.agents}),
                part("triggers"))

    def __init__(self, host, *, period: float = 300.0, channel=None,
                 admin_targets: Optional[List[str]] = None,
                 notifications=None, nameservice=None,
                 deliver_dlsp: Optional[Callable] = None,
                 ledger=None,
                 wake_policy: str = "fixed",
                 wake_max_period: float = 1800.0):
        self.host = host
        self.period = float(period)
        self.wake_policy = wake_policy
        #: the host's static template, captured at installation time
        #: from the known-good build
        self.slkt = build_slkt(host)
        self.baselines = Baselines.for_host(host)
        self.agents: List[Intelliagent] = []

        common = dict(period=period, channel=channel,
                      admin_targets=admin_targets,
                      notifications=notifications, ledger=ledger,
                      wake_policy=wake_policy,
                      wake_max_period=wake_max_period)
        self.hardware = HardwareAgent(host, **common)
        self.osnet = OsNetworkAgent(host, baselines=self.baselines,
                                    nameservice=nameservice, **common)
        self.resource = ResourceAgent(host, baselines=self.baselines,
                                      **common)
        self.perf = PerformanceAgent(host, baselines=self.baselines,
                                     **common)
        self.status = StatusAgent(host, deliver=deliver_dlsp, **common)
        self.agents.extend([self.hardware, self.osnet, self.resource,
                            self.perf, self.status])
        self.service_agents: Dict[str, ServiceAgent] = {}
        for app_name in sorted(host.apps):
            agent = ServiceAgent(host, app_name, slkt=self.slkt, **common)
            self.service_agents[app_name] = agent
            self.agents.append(agent)
        self._stagger()
        #: host-local trigger bus (adaptive wakes only: the fixed grid
        #: is the A/B baseline and must keep pre-refactor behaviour)
        self.triggers: Optional[TriggerBus] = None
        if wake_policy == "adaptive":
            self.triggers = TriggerBus(host)
            self._wire_triggers()

    def _stagger(self) -> None:
        """Spread wakes across the grid; keeps each agent's detection
        bound at one period while avoiding a thundering herd."""
        n = len(self.agents)
        for i, agent in enumerate(self.agents):
            offset = (i * self.period / n) // 1.0
            self.host.crond.register(agent.name, agent.period, agent.run,
                                     offset=offset)
            agent.cron_job = self.host.crond.jobs[agent.name]

    def _wire_triggers(self) -> None:
        """Route each host-local signal class to the agents that own
        that aspect.  Predicates run in subscription order; dispatch is
        a demand-wake, de-bounced by the bus's per-agent cooldown."""
        bus = self.triggers
        bus.attach_syslog()
        bus.watch_process_exits()
        for app in self.host.apps.values():
            bus.watch_app(app)
        bus.subscribe(self.hardware,
                      lambda t: t.kind == "syslog" and t.facility == "kern")
        bus.subscribe(self.osnet, lambda t: t.kind == "syslog")
        bus.subscribe(self.resource,
                      lambda t: t.kind in ("proc_exit", "threshold"))
        bus.subscribe(self.perf,
                      lambda t: t.kind in ("threshold",)
                      or (t.kind == "state" and t.detail == "degraded"))
        bus.subscribe(self.status,
                      lambda t: t.kind in ("state", "proc_exit"))
        for app_name, agent in self.service_agents.items():
            bus.subscribe(agent, lambda t, name=app_name: t.subject == name)

    def demand_wake_all(self) -> int:
        """The admin watchdog's troubleshooting knock: wake the whole
        complement now.  Returns how many agents accepted the wake."""
        return sum(1 for agent in self.agents if agent.demand_wake())

    # -- Figures 3/4 accounting -------------------------------------------------------

    def cpu_pct(self) -> float:
        """Amortised CPU share of one CPU, percent: the sum of each
        agent's per-wake cost spread over its period, plus the cron
        dispatch overhead.  This is Fig. 3's intelliagent series."""
        cron_overhead = 0.002
        return sum(a.amortized_cpu_pct() for a in self.agents) + cron_overhead

    def memory_mb(self) -> float:
        """Run-time footprint: every agent process is tiny and short
        lived; the worst case is the whole complement awake at once.
        This is Fig. 4's flat intelliagent series (~1.6 MB for the
        standard 8-agent complement)."""
        return len(self.agents) * AGENT_PROC_MEM_MB

    # -- aggregate statistics -------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        out = {"runs": 0, "skipped": 0, "faults_found": 0,
               "heals_attempted": 0, "heals_succeeded": 0,
               "escalations": 0, "demand_wakes": 0, "cpu_seconds": 0.0}
        for a in self.agents:
            s = a.stats
            out["runs"] += s.runs
            out["skipped"] += s.skipped
            out["faults_found"] += s.faults_found
            out["heals_attempted"] += s.heals_attempted
            out["heals_succeeded"] += s.heals_succeeded
            out["escalations"] += s.escalations
            out["demand_wakes"] += s.demand_wakes
            out["cpu_seconds"] += s.cpu_seconds
        return out
