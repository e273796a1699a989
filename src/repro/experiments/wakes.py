"""Adaptive, event-triggered agent wakes vs the fixed cron grid.

The paper wakes every intelliagent every X minutes regardless of what
is happening.  The adaptive wake policy lets a clean agent back its
period off (multiplicatively, capped) while syslog errors, process
exits and state changes snap it back and demand-wake the owning agent
immediately.  This experiment prices the trade on both axes:

- **quiescent cost** -- wakes and amortised CPU per agent over a
  steady-state window on a healthy fleet (warmed past the back-off
  ramp, where a real fleet spends almost all of its time);
- **reactivity** -- detection latency for injected faults, measured
  from injection to the owning agent's first ``fault`` flag.  Adaptive
  must be no worse than the fixed grid (it is, in fact, usually
  instant: the trigger fires at the fault).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.database import Database
from repro.cluster.datacenter import Datacenter
from repro.core.suite import AgentSuite
from repro.experiments.report import table
from repro.net.network import Lan
from repro.sim import RandomStreams, Simulator

__all__ = ["WakesResult", "build_fleet", "steady_state",
           "detection_campaign", "run", "format_result"]

BASE_PERIOD = 300.0
MAX_PERIOD = 1800.0
#: past the 300->600->1200->1800 back-off ramp, with margin
WARM_SECONDS = 2 * MAX_PERIOD + 4 * BASE_PERIOD
#: databases the detection campaign crashes
FAULTS = 8


@dataclass
class WakesResult:
    n_hosts: int
    window_hours: float
    #: per-agent wakes over the window, by policy
    wakes: Dict[str, float] = field(default_factory=dict)
    #: summed agent CPU seconds over the window, by policy
    cpu_seconds: Dict[str, float] = field(default_factory=dict)
    #: detection latency stats, by policy
    latency_mean: Dict[str, float] = field(default_factory=dict)
    latency_max: Dict[str, float] = field(default_factory=dict)
    #: crashes the owning agent never flagged, by policy
    missed: Dict[str, int] = field(default_factory=dict)
    demand_wakes: int = 0

    @property
    def wake_ratio(self) -> float:
        return self.wakes["fixed"] / max(1e-9, self.wakes["adaptive"])

    @property
    def cpu_ratio(self) -> float:
        return (self.cpu_seconds["fixed"]
                / max(1e-9, self.cpu_seconds["adaptive"]))


def build_fleet(n_hosts: int, wake_policy: str, *, seed: int = 0):
    """A standalone fleet: one database server per host, the standard
    agent complement on each, no coordinators (wake accounting and
    trigger dispatch are host-local)."""
    sim = Simulator()
    dc = Datacenter(sim, RandomStreams(seed), "wake-fleet")
    dc.add_lan(Lan(sim, "public0"))
    suites = []
    for i in range(n_hosts):
        host = dc.add_host(f"w{i:04d}", "linux-x86", group="db")
        dc.connect(host.name, "public0")
        db = Database(host, f"oracle_{host.name}", db_type="oracle")
        db.start()
        suites.append(AgentSuite(host, period=BASE_PERIOD,
                                 wake_policy=wake_policy,
                                 wake_max_period=MAX_PERIOD))
    sim.run(until=sim.now + 400.0)      # everything RUNNING
    return sim, dc, suites


def _fleet_totals(suites) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for suite in suites:
        for k, v in suite.totals().items():
            out[k] = out.get(k, 0.0) + v
    return out


def steady_state(wake_policy: str, *, n_hosts: int,
                 window: float, seed: int = 0) -> Dict[str, float]:
    """Warm a healthy fleet past the back-off ramp, then measure wakes
    and CPU across ``window`` seconds of steady state."""
    sim, dc, suites = build_fleet(n_hosts, wake_policy, seed=seed)
    sim.run(until=sim.now + WARM_SECONDS)
    before = _fleet_totals(suites)
    sim.run(until=sim.now + window)
    after = _fleet_totals(suites)
    n_agents = sum(len(s.agents) for s in suites)
    return {
        "wakes_per_agent": (after["runs"] - before["runs"]) / n_agents,
        "cpu_seconds": after["cpu_seconds"] - before["cpu_seconds"],
        "demand_wakes": after["demand_wakes"] - before["demand_wakes"],
    }


def _first_fault_flag(agent, since: float) -> Optional[float]:
    for flag in agent.flags.flags():
        if flag.status in ("fault", "fixed", "failed") \
                and flag.time >= since:
            return flag.time
    return None


def detection_campaign(wake_policy: str, *, seed: int = 1) -> List[float]:
    """Crash databases at off-grid instants on a fully backed-off
    12-host fleet (the adaptive policy's worst case) and measure
    injection-to-fault-flag latency at the owning service agent."""
    sim, dc, suites = build_fleet(12, wake_policy, seed=seed)
    sim.run(until=sim.now + WARM_SECONDS)
    latencies = []
    for k in range(FAULTS):
        suite = suites[k % len(suites)]
        app = next(iter(suite.host.apps.values()))
        # desynchronise the fault from every wake grid
        sim.run(until=sim.now + 211.0 + 97.0 * (k % 5))
        t0 = sim.now
        app.crash("detection-campaign")
        sim.run(until=t0 + MAX_PERIOD + 2 * BASE_PERIOD)
        detected = _first_fault_flag(suite.service_agents[app.name], t0)
        if detected is not None:
            latencies.append(detected - t0)
    return latencies


def run(seed: int = 0) -> WakesResult:
    """The A/B on 200 hosts over a two-hour steady-state window."""
    n_hosts, window = 200, 2 * 3600.0
    result = WakesResult(n_hosts=n_hosts, window_hours=window / 3600.0)
    for policy in ("fixed", "adaptive"):
        steady = steady_state(policy, n_hosts=n_hosts, window=window,
                              seed=seed)
        result.wakes[policy] = steady["wakes_per_agent"]
        result.cpu_seconds[policy] = steady["cpu_seconds"]
        lat = detection_campaign(policy, seed=seed + 1)
        result.latency_mean[policy] = sum(lat) / max(1, len(lat))
        result.latency_max[policy] = max(lat) if lat else 0.0
        result.missed[policy] = FAULTS - len(lat)
        if policy == "adaptive":
            result.demand_wakes = int(steady["demand_wakes"])
    return result


def format_result(result: WakesResult) -> str:
    rows = []
    for policy in ("fixed", "adaptive"):
        rows.append((policy,
                     round(result.wakes[policy], 1),
                     round(result.cpu_seconds[policy], 2),
                     round(result.latency_mean[policy], 1),
                     round(result.latency_max[policy], 1)))
    body = table(
        ["policy", "wakes/agent", "agent CPU s",
         "detect mean s", "detect max s"], rows,
        title=f"Agent wake A/B -- {result.n_hosts} healthy hosts, "
              f"{result.window_hours:.1f} h steady-state window")
    return (body
            + f"\nwake reduction: {result.wake_ratio:.1f}x fewer wakes, "
              f"{result.cpu_ratio:.1f}x less agent CPU; "
              f"{result.demand_wakes} demand wakes during the window")
