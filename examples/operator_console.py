#!/usr/bin/env python
"""The operators' view: a SystemEdge-style console plus performance
timelines.

Runs a morning at the site with a few faults, showing what a human
operator would actually look at: the alarm board (deduplicated,
severity-ordered, ack-able) and ASCII timelines of the performance
series the agents collected.

Run:  python examples/operator_console.py
"""

from repro.cluster.hardware import ComponentKind
from repro.experiments.runner import FidelityHarness
from repro.experiments.site import SiteConfig, build_site
from repro.metrics.timeline import render_dashboard
from repro.ops.console import OperatorConsole
from repro.sim.calendar import HOUR


def main() -> None:
    site = build_site(SiteConfig.test_scale(seed=19,
                                            with_workload=False))
    console = OperatorConsole(site.notifications, site.sim)
    harness = FidelityHarness(site)

    # a quiet first hour, then trouble
    site.run(1 * HOUR)
    harness.injector.component_failure(site.databases[0].host,
                                       ComponentKind.DISK)
    harness.injector.runaway_process(site.databases[1].host)
    site.run(1 * HOUR)
    site.dc.lan("public0").fail()
    site.dc.lan("public1").fail()
    site.run(2 * HOUR)

    print(console.board())
    print()

    # the operator acknowledges the network problem and clears the
    # alarms for things the agents already fixed
    for alarm in console.active():
        if "end-to-end" in alarm.subject:
            console.ack(alarm.subject, "operator-on-duty")
    healed = console.clear_matching("db001")    # the runaway: long gone
    print(f"(operator acked the network outage, cleared {healed} "
          "already-healed alarm(s))\n")
    print(console.board())

    # the §3.5 timelines, from the performance agent's own series
    host = site.databases[1].host
    perf = site.suite_for(host.name).perf
    print(f"\nperformance timelines for {host.name} "
          "(4 h, one sample per agent wake):")
    series = {
        "cpu_idle_%": perf.timeline("os", "cpu_idle"),
        "run_queue": perf.timeline("os", "run_queue"),
        "free_mem_MB": perf.timeline("os", "free_mb"),
        "worst_asvc_ms": perf.timeline("disks", "worst_asvc_t"),
    }
    print(render_dashboard({k: v for k, v in series.items()
                            if v is not None}, width=56))


if __name__ == "__main__":
    main()
