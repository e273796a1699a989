#!/usr/bin/env python
"""Quickstart: watch an intelliagent heal a crashed database.

Builds a small simulated datacentre (four database servers, two
transaction-processing hosts, two front-ends, an HA admin pair, LSF),
deploys the intelliagent stack, kills a database, and narrates the
recovery using the flags the agent wrote.

Run:  python examples/quickstart.py
"""

from repro.core.agent import AGENT_PERIOD
from repro.core.flags import FlagStore
from repro.experiments.site import SiteConfig, build_site
from repro.sim.calendar import format_time


def main() -> None:
    print("building the site (test scale) ...")
    site = build_site(SiteConfig.test_scale(seed=42,
                                            with_workload=False))
    db = site.databases[0]
    host = db.host
    print(f"  {len(site.dc.hosts)} hosts; watching {db.name} "
          f"on {host.name} ({host.spec.model})")

    # give the agents a couple of cron cycles of quiet operation
    site.run(700.0)
    print(f"[{format_time(site.sim.now)}] all quiet; "
          f"{db.name} healthy: {db.is_healthy()}")

    t_crash = site.sim.now
    db.crash("ORA-00600: internal error")
    print(f"[{format_time(site.sim.now)}] !!! {db.name} crashed")

    # one agent period is all detection needs; the restart takes a
    # couple of minutes more
    site.run(1200.0)
    print(f"[{format_time(site.sim.now)}] {db.name} healthy again: "
          f"{db.is_healthy()} (restart #{db.restart_count})")

    print("\nwhat the service agent's flag directory recorded:")
    store = FlagStore(host.fs, f"svc_{db.name}")
    for flag in store.flags():
        if flag.time >= t_crash - 400:
            detail = f"  ({flag.detail})" if flag.detail else ""
            print(f"  t={flag.time:9.1f}  {flag.status:<8s}{detail}")

    downtime = next(
        (f.time for f in store.flags() if f.status == "fixed"),
        site.sim.now) - t_crash
    print(f"\nfault-to-repair-action time: {downtime / 60:.1f} minutes "
          f"(agent wake period: {AGENT_PERIOD / 60:.0f} min)")
    print("the paper's pre-agent baseline for the same fault: "
          "hours (operator detection) + a manual restart.")


if __name__ == "__main__":
    main()
