"""The ``metrics`` row: what a short fault storm leaves in the books.

- :func:`run` -- a short full-fidelity fault storm on the test-scale
  site, then the metrics registry and the wake accounting;
- :func:`run_federation` -- the three-site federation after a
  site-loss storm, per site, and the operator board.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.report import metrics_summary, table, trace_artifacts
from repro.experiments.runner import FidelityHarness
from repro.experiments.site import SiteConfig, build_site
from repro.federation import build_federation
from repro.federation.config import three_site_config
from repro.ops.console import OperatorConsole
from repro.trace import install_tracer

__all__ = ["run", "format_result", "run_federation", "format_federation"]


def run(seed: int = 0, *, trace: Optional[str] = None,
        timeline: bool = False) -> dict:
    """Two hours of a database crash, a hung front end and a runaway
    process: the metrics snapshot and the operator-facing wake, skip
    and missed totals across every suite."""
    site = build_site(SiteConfig.test_scale(
        seed=seed, with_workload=False))
    tracer = install_tracer(site.sim)
    harness = FidelityHarness(site)
    site.run(1800.0)
    inj = harness.injector
    inj.db_crash(site.databases[0])
    inj.app_hang(site.frontends[0])
    inj.runaway_process(site.databases[1].host)
    site.run(2 * 3600.0)
    harness.scan_flags_for_detection()

    wakes = {"runs": 0, "skipped": 0, "demand_wakes": 0}
    for suite in site.suites.values():
        totals = suite.totals()
        for key in wakes:
            wakes[key] += totals[key]
    wakes["missed"] = sum(job.missed for host in site.dc.all_hosts()
                          for job in host.crond.jobs.values())
    return {"metrics": tracer.metrics.snapshot(), "wakes": wakes,
            "wake_policy": site.config.wake_policy,
            "artifacts": trace_artifacts(tracer, trace, timeline)}


def format_result(result: dict) -> str:
    w = result["wakes"]
    return (metrics_summary(result["metrics"],
                            title="Site metrics after a 2 h storm run")
            + "\n\nWake accounting\n"
            f"  agent runs         {w['runs']}\n"
            f"  runs skipped       {w['skipped']}\n"
            f"  demand wakes       {w['demand_wakes']}\n"
            f"  cron grid missed   {w['missed']}\n"
            f"  wake policy        {result['wake_policy']}"
            + result["artifacts"])


def run_federation(seed: int = 0) -> dict:
    """Three sites, 120 000 users, New York lost two hours in and
    watched for two more: each site's summary and the board."""
    fed = build_federation(three_site_config(population=120_000, seed=seed))
    lon = fed.sites["lon"]
    console = OperatorConsole(lon.notifications, lon.sim)
    console.attach_federation(fed)
    fed.start_traffic()
    fed.run(2 * 3600.0)
    nyc = fed.sites["nyc"]
    for name in sorted(nyc.dc.hosts):
        nyc.dc.hosts[name].crash()
    fed.run(2 * 3600.0)
    return {"sites": {name: fed.site_summary(name)
                      for name in sorted(fed.sites)},
            "board": console.board(fed.now)}


def format_federation(result: dict) -> str:
    rows = [[name, "LOST" if s["lost"] else "up",
             f"{s['hosts_up']}/{s['hosts_total']}",
             s["open_conditions"], int(s.get("served", 0)),
             f"{s.get('user_minutes_lost', 0.0):.1f}",
             s.get("takeovers_hosted", 0)]
            for name, s in result["sites"].items()]
    return table(["site", "state", "hosts up", "open cond", "served",
                  "user-min lost", "takeovers"],
                 rows, title="Federation metrics after a 4 h "
                             "site-loss run (nyc lost at t+2h)") \
        + "\n\n" + result["board"]
