#!/usr/bin/env python
"""A frontend server dies; its services are relocated, nobody is paged.

The escalation tiers in action: local healing cannot fix a dead host,
so the administration servers hand the incident to the relocation
orchestrator -- plan (constraint search over spares + DGSPL peers),
drain, cold-start on the spare or warm takeover by a peer, verify,
cutover.  Only if *that* fails does the on-call human get an SMS.

Run:  python examples/service_relocation.py
"""

from repro.experiments.site import SiteConfig, build_site
from repro.sim.calendar import format_time
from repro.trace import format_timeline, install_tracer


def main() -> None:
    site = build_site(SiteConfig.test_scale(seed=11, spare_servers=1,
                                            with_workload=False))
    tracer = install_tracer(site.sim)
    print(f"site up: {len(site.dc.hosts)} hosts, spare pool = "
          f"{site.spares.available()}")
    site.run(1200.0)        # let the watchdog pass its warm-up grace

    victim = site.dc.host("fe000")
    apps = [a.name for a in victim.apps.values() if a.is_running()]
    print(f"\n[{format_time(site.sim.now)}] !!! {victim.name} loses power "
          f"(running: {', '.join(apps)})\n")
    # stamp the incident the way the fault injector does, so every
    # relocate.* span lands in one correlated trace tree
    fid = tracer.new_fault_id()
    tracer.correlate(victim.name, fid)
    tracer.instant("fault.inject", fault_id=fid, kind="host-crash",
                   target=victim.name)
    victim.crash("power supply failure")
    site.run(3 * site.admin.watch_period)

    print("relocation ledger:")
    for rec in site.relocator.records:
        where = "cold-start on spare" if rec.cold else "warm takeover by"
        state = "OK" if rec.success else f"ROLLED BACK ({rec.reason})"
        print(f"  {rec.subject:<22} -> {where} {rec.target_host:<6} "
              f"in {rec.duration:.0f} s   {state}")

    pages = [n for n in site.notifications.sent if n.medium == "sms"]
    print(f"\nhumans paged: {len(pages)}   "
          f"(the relocation tier absorbed the incident)")
    print(f"spare claims: {site.spares.claims}")

    print("\n" + format_timeline(tracer))


if __name__ == "__main__":
    main()
