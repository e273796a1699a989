#!/usr/bin/env python
"""The §4 batch-rescue story, narrated step by step.

An analyst pins an overnight data-mining job to their habitual (weak)
database server.  The server crashes mid-job.  The administration
servers catch the failure, consult the DGSPL, and resubmit the job to
an equal-or-stronger server; the service agent restarts the crashed
database in parallel.

Run:  python examples/batch_rescue.py
"""

from repro.batch.jobs import BatchJob
from repro.experiments.site import SiteConfig, build_site
from repro.sim.calendar import format_time


def say(site, msg: str) -> None:
    print(f"[{format_time(site.sim.now)}] {msg}")


def main() -> None:
    site = build_site(SiteConfig.test_scale(seed=7,
                                            with_workload=False))
    say(site, f"site up: {len(site.databases)} database servers "
              f"{[d.host.name for d in site.databases]}")

    site.run(1800.0)        # let the DGSPL warm up
    dgspl = site.admin.current_dgspl()
    say(site, f"DGSPL generation #{site.admin.dgspl_generations}: "
              f"{len(dgspl.services_of_type('database'))} database "
              "services advertised")

    weak = min(site.databases, key=lambda d: d.host.spec.power)
    say(site, "analyst submits 'datamine-overnight' pinned to their "
              f"habitual server {weak.host.name} "
              f"({weak.host.spec.model})")
    job = BatchJob("datamine-overnight", "analyst07",
                   duration=4 * 3600.0, cpu_slots=2,
                   requested_server=weak.host.name)
    site.lsf.submit(job)
    say(site, f"job {job.job_id} dispatched to "
              f"{job.database.host.name}; "
              f"{job.time_left(site.sim.now) / 3600:.1f} h of work")

    site.run(3600.0)
    say(site, f"one hour in; {job.time_left(site.sim.now) / 3600:.1f} h "
              "left ... and the database dies:")
    weak.crash("overload: batch job storm")

    say(site, f"  job state: {job.state.value}; failed on "
              f"{job.failed_on}")
    say(site, f"  job manager resubmitted={site.jobmgr.resubmitted}, "
              f"new target: {job.requested_server}")
    powers = {d.host.name: d.host.spec.power for d in site.databases}
    say(site, f"  power rule: {job.requested_server} "
              f"({powers[job.requested_server]:.0f}) >= "
              f"{weak.host.name} ({powers[weak.host.name]:.0f})")

    site.run(1200.0)
    say(site, f"meanwhile the service agent restarted {weak.name}: "
              f"healthy={weak.is_healthy()}")

    site.run(4 * 3600.0)
    say(site, f"job {job.job_id} finished: {job.state.value} "
              f"(resubmits: {job.resubmits})")

    print("\nnotifications sent along the way:")
    for n in site.notifications.sent:
        print(f"  [{n.medium}] {n.sender} -> {n.recipient}: {n.subject}")


if __name__ == "__main__":
    main()
