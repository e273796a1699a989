"""Figures 3 and 4: monitoring overhead, BMC Patrol vs intelliagents.

"Figures 3 and 4 show respectively the average CPU and memory
utilisation per system by intelliagents as opposed to BMC Patrol ...
Measurements every half hour for 4 hours" on a server *at peak time*.

Paper series:

- Fig. 3 CPU %: BMC [0.33 0.30 0.50 0.58 0.47 1.10 0.20 0.17],
  intelliagents [0.045 0.047 0.043 0.045 0.045 0.046 0.046 0.042].
- Fig. 4 memory MB: BMC [32 46 45 37 50 58 38 51], agents 1.6 flat.

The reproduction boots one database server, loads it with batch jobs
(peak), installs both the BMC-style resident monitor and the agent
suite, and samples both every 30 minutes for 4 hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.batch.jobs import BatchJob
from repro.core.suite import AgentSuite
from repro.experiments.report import table
from repro.experiments.site import HostRow, SiteConfig, build_site
from repro.ops.bmc import BaselineMonitor

__all__ = ["OverheadResult", "PAPER_FIG3_BMC", "PAPER_FIG3_AGENT",
           "PAPER_FIG4_BMC", "PAPER_FIG4_AGENT", "run", "format_cpu",
           "format_memory"]

PAPER_FIG3_BMC = (0.33, 0.30, 0.50, 0.58, 0.47, 1.10, 0.20, 0.17)
PAPER_FIG3_AGENT = (0.045, 0.047, 0.043, 0.045, 0.045, 0.046, 0.046, 0.042)
PAPER_FIG4_BMC = (32.0, 46.0, 45.0, 37.0, 50.0, 58.0, 38.0, 51.0)
PAPER_FIG4_AGENT = (1.6,) * 8

SAMPLE_PERIOD = 1800.0      # every half hour
N_SAMPLES = 8               # for 4 hours


@dataclass
class OverheadResult:
    bmc_cpu: List[float]
    agent_cpu: List[float]
    bmc_mem: List[float]
    agent_mem: List[float]


def _build_peak_host():
    """One busy database server with fluctuating batch load."""
    return build_site(
        SiteConfig(agents=False, with_workload=False, seed=20),
        [HostRow("db-peak", "sun-e4500", "db", ("public0", "agentnet"), (
            ("db", "oracle_peak", {"max_job_slots": 8}),
            ("web", "httpd_peak", {}),
            ("fe", "finapp_peak", {"backend": "oracle_peak"})))])


def _load_pulse(sim, rng, db):
    """Batch jobs arriving and leaving: the 'peak time' load whose
    swings drive the BMC cost series up and down."""
    def pulse():
        while True:
            n = int(rng.integers(2, 7))
            jobs = []
            for i in range(n):
                job = BatchJob(f"peak{i}", "analyst", duration=1e9,
                               cpu_slots=int(rng.integers(2, 6)),
                               io_demand=0.3)
                if db.attach_job(job):
                    jobs.append(job)
            # user session churn changes the process table size too
            for u in range(int(rng.integers(5, 90))):
                db.host.ptable.spawn(f"user{u % 20:02d}", "sqlplus",
                                  cpu_pct=float(rng.uniform(1, 20)),
                                  mem_mb=24.0, now=sim.now)
            yield float(rng.uniform(0.4, 1.0)) * SAMPLE_PERIOD
            for job in jobs:
                db.detach_job(job)
            db.host.ptable.kill_command("sqlplus")
            yield float(rng.uniform(0.05, 0.3)) * SAMPLE_PERIOD

    sim.spawn(pulse(), name="load-pulse")


def run(seed: int = 20) -> OverheadResult:
    site = _build_peak_host()
    sim, (db,) = site.sim, site.databases
    rng = site.streams.get(f"overhead.load.{seed}")
    bmc = BaselineMonitor(db.host, notifications=site.notifications)
    suite = AgentSuite(db.host, notifications=site.notifications)
    _load_pulse(sim, rng, db)
    # warm the monitor's history cache so the sawtooth is under way
    sim.run(until=sim.now + 2 * 3600.0)

    result = OverheadResult([], [], [], [])
    for _ in range(N_SAMPLES):
        sim.run(until=sim.now + SAMPLE_PERIOD)
        result.bmc_cpu.append(round(bmc.cpu_pct(), 3))
        result.agent_cpu.append(round(suite.cpu_pct(), 4))
        result.bmc_mem.append(round(bmc.memory_mb(), 1))
        result.agent_mem.append(round(suite.memory_mb(), 2))
    return result


def _render(title: str, unit: str, paper_bmc: Sequence[float],
            paper_agent: Sequence[float], bmc: List[float],
            agent: List[float]) -> str:
    """One figure: the paper's BMC and agent series beside ours."""
    body = table(
        ["sample", f"paper BMC {unit}", f"paper agent {unit}",
         f"measured BMC {unit}", f"measured agent {unit}"],
        [(i + 1, paper_bmc[i], paper_agent[i], bmc[i], agent[i])
         for i in range(N_SAMPLES)],
        title=f"{title} at peak, {N_SAMPLES} half-hour samples")
    ratio = (sum(bmc) / len(bmc)) / max(1e-9, sum(agent) / len(agent))
    return (body + f"\nmean BMC/agent ratio: paper "
            f"{sum(paper_bmc)/sum(paper_agent):.1f}x, measured {ratio:.1f}x")


def format_cpu(result: OverheadResult) -> str:
    return _render("Figure 3 reproduction -- CPU utilisation", "%",
                   PAPER_FIG3_BMC, PAPER_FIG3_AGENT,
                   result.bmc_cpu, result.agent_cpu)


def format_memory(result: OverheadResult) -> str:
    return _render("Figure 4 reproduction -- memory consumed", "MB",
                   PAPER_FIG4_BMC, PAPER_FIG4_AGENT,
                   result.bmc_mem, result.agent_mem)
