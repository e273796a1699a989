#!/usr/bin/env python
"""The private agent network fails; agent traffic reroutes.

§3.3: all agent communication rides a dedicated private LAN so it never
loads the public LANs; if the private network fails, agents reroute
over the public side automatically.  This drill fails the private LAN
mid-run, shows the reroute, proves healing still works, then repairs
the LAN and shows traffic returning home.

Run:  python examples/network_failover.py
"""

from repro.experiments.site import SiteConfig, build_site
from repro.sim.calendar import format_time


def show(site, label: str) -> None:
    s = site.channel.stats()
    print(f"[{format_time(site.sim.now)}] {label}")
    print(f"    delivered={s['delivered']} rerouted={s['rerouted']} "
          f"failed={s['failed']}")
    print(f"    bytes: private={s['bytes_private']:,} "
          f"public={s['bytes_public']:,}")


def main() -> None:
    site = build_site(SiteConfig.test_scale(seed=5,
                                            with_workload=False))
    site.run(2 * 3600.0)
    show(site, "two quiet hours: everything on the private LAN")

    print("\n!!! private agent LAN fails\n")
    site.dc.lan("agentnet").fail()
    site.run(2 * 3600.0)
    show(site, "two hours with the private LAN down: rerouted")

    db = site.databases[0]
    db.crash("crash during the network outage")
    site.run(1200.0)
    print(f"\n    healing still works over the reroute: "
          f"{db.name} healthy={db.is_healthy()}\n")

    print("--- private LAN repaired\n")
    site.dc.lan("agentnet").repair()
    before_private = site.channel.stats()["bytes_private"]
    site.run(2 * 3600.0)
    show(site, "two hours after repair: traffic back on the private LAN")
    after_private = site.channel.stats()["bytes_private"]
    print(f"    private-LAN bytes resumed: +{after_private - before_private:,}")


if __name__ == "__main__":
    main()
