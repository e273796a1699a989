"""Ablations over the design choices DESIGN.md calls out.

- **A-freq**  -- the agent wake frequency X ("adjustable parameter",
  §3.3): downtime vs X.
- **A-resub** -- placement policy for failed-job resubmission (§4's
  argument for DGSPL-informed selection): none / random / DGSPL,
  full fidelity.
- **A-net**   -- private agent network with public-LAN fallback (§3.3).
- **A-local** -- local agents vs a centralised resident monitor as the
  fleet grows (§3.4: "centralised management methodologies have been
  proven unsuccessful in big complex environments").
- **A-ckpt**  -- job checkpointing under DGSPL rescue (extension; the
  related-work technique [18]): rescue turnaround vs interval.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.experiments.report import table
from repro.experiments.site import SiteConfig, build_site
from repro.faults.campaign import Campaign, PipelineParams
from repro.sim import RandomStreams
from repro.sim.calendar import DAY, HOUR, MINUTE, YEAR

__all__ = ["frequency_sweep", "format_frequency",
           "resubmission_comparison", "format_resubmission",
           "network_failover", "format_network",
           "centralised_comparison", "format_centralised",
           "checkpointing_comparison", "format_checkpointing"]


# ---------------------------------------------------------------- A-freq --

def frequency_sweep(seed: int = 0) -> List[dict]:
    """Total agent-pipeline downtime for each wake period X, over
    three replications."""
    rows = []
    for period_min in (1, 5, 15, 30, 60):
        totals = []
        detections = []
        for rep in range(3):
            rs = RandomStreams(seed * 1000 + rep)
            campaign = Campaign(rs.get("afreq.campaign"))
            result = campaign.run(
                PipelineParams(True, period_min * MINUTE,
                               f"X={period_min}min"),
                operator_rng=rs.get("afreq.ops"))
            totals.append(result.total_hours())
            det = result.detection_by_period()
            detections.append(np.mean(list(det.values())))
        rows.append({
            "period_min": period_min,
            "downtime_h": float(np.mean(totals)),
            "mean_detection_h": float(np.mean(detections)),
        })
    return rows


def format_frequency(rows: List[dict]) -> str:
    return table(
        ["X (min)", "downtime (h/yr)", "mean detection (h)"],
        [(r["period_min"], round(r["downtime_h"], 1),
          round(r["mean_detection_h"], 3)) for r in rows],
        title="A-freq: agent wake period vs yearly downtime "
              "(paper default X = 5 min)")


# --------------------------------------------------------------- A-resub --

def resubmission_comparison(seed: int = 0) -> List[dict]:
    """Full-fidelity: same site and workload, three resubmission arms,
    three simulated days each.

    The crash coupling is raised above the fig2-calibrated default so
    that placement quality is actually exercised within a few simulated
    days (a re-placed job on an already-loaded server is likely to
    crash it again; the DGSPL shortlist avoids exactly that)."""
    arms = ("none", "random", "dgspl")
    out = []
    for arm in arms:
        site = build_site(SiteConfig.test_scale(
            seed=seed, db_servers=6, jobs_per_night=45,
            crash_coupling=0.06))
        if arm != "dgspl":
            # unplug the job manager's resubmission (keep its checks)
            site.lsf._exit_listeners = [
                fn for fn in site.lsf._exit_listeners
                if getattr(fn, "__self__", None) is not site.jobmgr]
        if arm == "random":
            rng = site.streams.get("aresub.random")

            def random_resubmit(job, site=site, rng=rng):
                from repro.batch.jobs import JobState
                if job.state is not JobState.FAILED or job.resubmits >= 3:
                    return
                healthy = [db for db in site.lsf.servers if db.is_healthy()]
                if not healthy:
                    return
                pick = healthy[int(rng.integers(len(healthy)))]
                job.requested_server = pick.host.name
                site.lsf.resubmit(job)

            site.lsf.on_job_exit(random_resubmit)
        site.run(3.0 * DAY)
        stats = site.workload.completion_stats()
        q = site.lsf.queue_stats()
        rescued = [j for j in site.workload.submitted if j.resubmits > 0]
        recrashed = [j for j in rescued if j.failures > 1]
        turnarounds = [j.finished_at - j.submitted_at for j in rescued
                       if j.state.value == "DONE"
                       and j.finished_at is not None]
        out.append({
            "arm": arm,
            "submitted": stats["submitted"],
            "done": stats["done"],
            "failed_final": sum(
                1 for j in site.workload.submitted
                if j.state.value == "EXIT"),
            "completion_rate": stats["completion_rate"],
            "db_crashes": q["db_crashes_caused"],
            "rescued": len(rescued),
            "recrash_rate": (len(recrashed) / len(rescued)
                             if rescued else 0.0),
            "rescue_turnaround_h": (float(np.mean(turnarounds)) / 3600.0
                                    if turnarounds else 0.0),
        })
    return out


def format_resubmission(rows: List[dict]) -> str:
    return table(
        ["policy", "submitted", "done", "failed", "completion rate",
         "db crashes", "rescued", "re-crash rate", "rescue turnaround (h)"],
        [(r["arm"], r["submitted"], r["done"], r["failed_final"],
          round(r["completion_rate"], 3), r["db_crashes"],
          r["rescued"], round(r["recrash_rate"], 3),
          round(r["rescue_turnaround_h"], 2)) for r in rows],
        title="A-resub: failed-job resubmission policy (paper: DGSPL "
              "shortlist, best first)")


# ---------------------------------------------------------------- A-ckpt --

def checkpointing_comparison(seed: int = 0) -> List[dict]:
    """Extension ablation: job checkpointing ([18] in the paper's
    related work) under the DGSPL rescue pipeline.

    Interval 0 = no checkpointing (a rescued job restarts from
    scratch).  Smaller intervals cap the work lost per mid-job crash,
    so rescue turnaround should fall monotonically."""
    out = []
    for interval in (0.0, 7200.0, 1800.0, 600.0):
        site = build_site(SiteConfig.test_scale(
            seed=seed, db_servers=6, jobs_per_night=45, crash_coupling=0.06))
        wl = site.workload

        # wrap the workload's job factory to stamp the interval
        original_make = wl.make_job

        def make_with_ckpt(*a, _orig=original_make,
                           _interval=interval, **kw):
            job = _orig(*a, **kw)
            job.checkpoint_interval = _interval
            return job

        wl.make_job = make_with_ckpt
        site.run(3.0 * DAY)

        rescued = [j for j in wl.submitted if j.resubmits > 0]
        turnarounds = [j.finished_at - j.submitted_at for j in rescued
                       if j.state.value == "DONE"
                       and j.finished_at is not None]
        lost_work = [j.failures * j.duration - j.checkpointed_work
                     for j in rescued]
        stats = wl.completion_stats()
        out.append({
            "interval_min": interval / 60.0,
            "completion_rate": stats["completion_rate"],
            "rescued": len(rescued),
            "rescue_turnaround_h": (float(np.mean(turnarounds)) / 3600.0
                                    if turnarounds else 0.0),
            "mean_banked_h": (float(np.mean(
                [j.checkpointed_work for j in rescued])) / 3600.0
                if rescued else 0.0),
        })
    return out


def format_checkpointing(rows: List[dict]) -> str:
    return table(
        ["checkpoint interval (min)", "completion rate", "rescued",
         "rescue turnaround (h)", "mean banked work (h)"],
        [("none" if r["interval_min"] == 0 else round(r["interval_min"], 0),
          round(r["completion_rate"], 3), r["rescued"],
          round(r["rescue_turnaround_h"], 2),
          round(r["mean_banked_h"], 2)) for r in rows],
        title="A-ckpt: job checkpointing under DGSPL rescue "
              "(related-work technique [18])")


# ----------------------------------------------------------------- A-net --

def network_failover(seed: int = 0) -> dict:
    """Fail the private agent LAN two hours in; for the two hours
    after, agent traffic must reroute."""
    site = build_site(SiteConfig.test_scale(seed=seed, with_workload=False))
    ch = site.channel
    site.run(2.0 * HOUR)
    before = dict(ch.stats())
    site.dc.lan("agentnet").fail()
    site.run(2.0 * HOUR)
    after = ch.stats()
    return {
        "before": before,
        "after": after,
        "delta_delivered": after["delivered"] - before["delivered"],
        "delta_rerouted": after["rerouted"] - before["rerouted"],
        "delta_failed": after["failed"] - before["failed"],
        "public_bytes_delta": after["bytes_public"] - before["bytes_public"],
    }


def format_network(r: dict) -> str:
    rows = [
        ("delivered", r["before"]["delivered"], r["after"]["delivered"]),
        ("rerouted", r["before"]["rerouted"], r["after"]["rerouted"]),
        ("failed", r["before"]["failed"], r["after"]["failed"]),
        ("bytes on public LANs", r["before"]["bytes_public"],
         r["after"]["bytes_public"]),
    ]
    return table(["counter", "before failure", "after failure"], rows,
                 title="A-net: private agent LAN failure at t=half "
                       "(paper: agents reroute over the public LAN)")


# --------------------------------------------------------------- A-local --

def centralised_comparison(seed: int = 0) -> List[dict]:
    """Cost model comparison: per-host resident monitor + central
    console vs cron-run local agents + light coordinators.  A closed
    form: it draws nothing, so ``seed`` changes nothing.

    The centralised console pays O(fleet) work per poll cycle (it walks
    every host's entities); the agent coordinators only watch flag
    freshness (a per-host timestamp).  Per-host cost is the Figures 3/4
    story; this ablation is about the *coordinator* blow-up.
    """
    from repro.ops.bmc import BaselineMonitor
    rows = []
    entities_per_host = 60.0
    for n in (10, 50, 100, 200):
        # central console: per-entity evaluation each 30 s cycle (same
        # per-entity cost the per-host BaselineMonitor model uses)
        console_ms_per_cycle = 40.0 + 1.2 * entities_per_host * n
        console_cpu = (console_ms_per_cycle / 10.0) / BaselineMonitor.POLL_INTERVAL
        console_mem = 28.0 + 0.12 * entities_per_host * n
        # coordinators: one flag-freshness check per host per X+5 cycle
        watchdog_ms = 5.0 * n
        admin_cpu = (watchdog_ms / 10.0) / 600.0
        admin_mem = 16.0 + 0.01 * n
        rows.append({
            "fleet": n,
            "console_cpu_pct": console_cpu,
            "console_mem_mb": console_mem,
            "admin_cpu_pct": admin_cpu,
            "admin_mem_mb": admin_mem,
        })
    return rows


def format_centralised(rows: List[dict]) -> str:
    return table(
        ["fleet size", "central console CPU %", "central console MB",
         "agent coordinator CPU %", "agent coordinator MB"],
        [(r["fleet"], round(r["console_cpu_pct"], 2),
          round(r["console_mem_mb"], 1), round(r["admin_cpu_pct"], 4),
          round(r["admin_mem_mb"], 1)) for r in rows],
        title="A-local: centralised monitor vs local agents as the "
              "fleet grows")

