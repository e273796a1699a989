#!/usr/bin/env python
"""A bad night at the datacentre: a storm of simultaneous faults.

Injects one fault of every flavour the agents can meet -- database
crash, latent hang, configuration corruption, runaway process, memory
leak, full filesystem, LSF master crash, dead crond, failed disk --
then lets the system run and prints the incident ledger: what healed
itself, how fast, and what was escalated to humans (network and
hardware, per the paper's own limits).

Run:  python examples/fault_storm.py [--trace storm.json] [--timeline]

``--trace`` writes a Chrome ``trace_event`` JSON of the whole night
(open in chrome://tracing or Perfetto): one lane per host, every fault
correlated by id from injection through detection, diagnosis and
repair.  ``--timeline`` prints the same incidents as a flat-ASCII
timeline.
"""

import argparse

from repro.cluster.hardware import ComponentKind
from repro.experiments.runner import FidelityHarness
from repro.experiments.site import SiteConfig, build_site
from repro.sim.calendar import format_time
from repro.trace import format_timeline, install_tracer, write_chrome_trace


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a Chrome trace_event JSON here")
    parser.add_argument("--timeline", action="store_true",
                        help="print the per-fault incident timeline")
    args = parser.parse_args(argv)

    site = build_site(SiteConfig.test_scale(seed=31,
                                            with_workload=False))
    tracer = install_tracer(site.sim)
    harness = FidelityHarness(site)
    site.run(1500.0)

    inj = harness.injector
    print(f"[{format_time(site.sim.now)}] injecting the storm:")
    faults = [
        inj.db_crash(site.databases[0]),
        inj.app_hang(site.frontends[0]),
        inj.config_corruption(site.databases[1]),
        inj.runaway_process(site.databases[2].host),
        inj.memory_leak(site.frontends[1].host),
        inj.disk_fill(site.databases[3].host, "/logs", 0.98),
        inj.lsf_crash(site.lsf_master),
        inj.cron_death(site.databases[2].host),
        inj.component_failure(site.frontends[0].host,
                              ComponentKind.DISK),
    ]
    for ev in faults:
        print(f"    {ev.category.value:<16s} {ev.kind:<18s} -> {ev.target}")

    print("\nletting the agents work for two simulated hours ...")
    site.run(2 * 3600.0)
    harness.scan_flags_for_detection()

    print(f"\n[{format_time(site.sim.now)}] incident ledger:")
    for inc in harness.ledger.incidents:
        state = ("OPEN" if inc.open
                 else f"closed after {inc.duration / 60:.1f} min")
        det = ("" if inc.detection_latency is None
               else f", detected in {inc.detection_latency / 60:.1f} min")
        print(f"    {inc.category.value:<16s} {inc.target:<28s} "
              f"{state}{det}")

    print("\nsystem state:")
    print(f"    databases healthy: "
          f"{[d.is_healthy() for d in site.databases]}")
    print(f"    frontends healthy: "
          f"{[f.is_healthy() for f in site.frontends]}")
    print(f"    LSF up: {site.lsf.up}; "
          f"crond repaired: {site.admin.cron_repairs}")
    print(f"    escalations to humans: "
          f"{len([n for n in site.notifications.sent if n.severity == 'critical'])} "
          "critical notifications")
    for n in site.notifications.sent:
        if n.severity == "critical":
            print(f"      - {n.sender}: {n.subject}")

    if args.timeline:
        print()
        print(format_timeline(tracer))
    if args.trace:
        write_chrome_trace(tracer, args.trace)
        print(f"\nchrome trace written to {args.trace} "
              f"(open in chrome://tracing)")


if __name__ == "__main__":
    main()
