#!/usr/bin/env python
"""User traffic: what a crash feels like from the outside.

Drives a diurnal flow of user demand (web GETs, analyst queries,
database transactions) through the QoS-aware front door against a
small live site, crashes a web server at the late-morning peak, and
shows what users saw: availability dips while traffic keeps hitting
the dead server under round-robin, then recovers the moment the front
door sheds it.  Ends with the year-scale view -- the same 1 h outage
priced at peak vs overnight -- and points at `repro-exp userqos` for
the full before/after campaign.

Run:  python examples/user_traffic.py
"""

from repro.experiments.site import SiteConfig, build_site
from repro.sim.calendar import DAY, HOUR, format_time
from repro.traffic import (FluidTrafficEngine, doors_for_site,
                           financial_curve)


def main() -> None:
    print("building the site (test scale, no agents) ...")
    site = build_site(SiteConfig.test_scale(
        seed=5, agents=False, with_workload=False))

    curve = financial_curve(population=250_000)
    doors = doors_for_site(site, use_dgspl=False)   # plain round-robin
    engine = FluidTrafficEngine(site.sim, curve, doors, site.streams,
                                step=300.0)
    engine.start()

    # run to Tuesday 10:00, near the morning peak
    site.run(DAY + 10 * HOUR - site.sim.now)
    web = engine.slis["web"]
    print(f"[{format_time(site.sim.now)}] peak traffic; web availability "
          f"so far: {web.availability:.4%} "
          f"({web.attempted:,.0f} requests attempted)")

    victim = site.webservers[0]
    victim.crash("segfault under load")
    print(f"[{format_time(site.sim.now)}] !!! {victim.name} crashed "
          f"at the peak -- round-robin keeps sending it users")
    site.run(HOUR)
    print(f"[{format_time(site.sim.now)}] one hour later: web "
          f"availability {web.availability:.4%}, "
          f"failed {web.failed:,.0f} requests")

    # the front door learns (an agent flag would drive this) and sheds
    doors["web"].flag_down(victim.host.name)
    failed_before_shed = web.failed
    site.run(HOUR)
    print(f"[{format_time(site.sim.now)}] after shedding the dead "
          f"server: {web.failed - failed_before_shed:,.0f} further "
          f"failures (live servers absorb the load)")

    victim.restart()
    site.run(600.0)
    doors["web"].flag_up(victim.host.name)

    print(f"\nlatency p50 {web.latency_quantile(0.5):.0f} ms, "
          f"p99 {web.latency_quantile(0.99):.0f} ms over "
          f"{web.served:,.0f} served requests")

    # the year-scale punchline: when you crash matters
    peak = curve.incident_user_minutes(DAY + 11 * HOUR, HOUR)
    night = curve.incident_user_minutes(DAY + 3 * HOUR, HOUR)
    print(f"\nthe same 1 h outage costs {peak:,.0f} user-minutes at "
          f"11:00 but {night:,.0f} at 03:00 ({peak / night:.1f}x) -- "
          f"downtime hours alone cannot see this.")
    print("run `repro-exp userqos` for the full year, before vs after "
          "the intelliagents on the same faults.")


if __name__ == "__main__":
    main()
