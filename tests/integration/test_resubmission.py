"""Integration test: the §4 batch-rescue story end to end.

A manually-targeted overnight job crashes its database mid-run; the
administration servers resubmit it from the DGSPL shortlist onto an
equal-or-stronger server; the job completes; the crashed database is
restarted by its service agent.
"""

import pytest

from repro.batch.jobs import BatchJob, JobState
from repro.experiments.site import SiteConfig, build_site


@pytest.fixture
def site():
    return build_site(SiteConfig.test_scale(seed=17,
                                            with_workload=False))


def test_batch_rescue_story(site):
    site.run(1800.0)        # DGSPL warm
    assert site.admin.dgspl is not None

    weak = min(site.databases, key=lambda d: d.host.spec.power)
    job = BatchJob("datamine-night", "analyst7", duration=4 * 3600.0,
                   cpu_slots=2, requested_server=weak.host.name)
    site.lsf.submit(job)
    assert job.database is weak

    weak.crash("overload mid-job")

    # resubmission is synchronous with the crash
    assert site.jobmgr.resubmitted == 1
    new_server = job.requested_server
    assert new_server != weak.host.name
    powers = {db.host.name: db.host.spec.power for db in site.databases}
    assert powers[new_server] >= powers[weak.host.name]

    # the job finishes on the new server...
    site.run(4 * 3600.0 + 1200.0)
    assert job.state is JobState.DONE
    # ...and the crashed database was healed by its agent meanwhile
    assert weak.is_healthy()


def test_rescue_avoids_server_job_failed_on(site):
    site.run(1800.0)
    victim = site.databases[0]
    job = BatchJob("j", "u", duration=3600.0,
                   requested_server=victim.host.name)
    site.lsf.submit(job)
    victim.crash("x")
    assert victim.host.name in job.failed_on
    assert job.requested_server != victim.host.name


def test_rescue_counts_in_daily_summary(site):
    from repro.sim.calendar import DAY
    site.run(1800.0)
    db = site.databases[0]
    job = BatchJob("j", "u", duration=1800.0,
                   requested_server=db.host.name)
    site.lsf.submit(job)
    db.crash("x")
    site.run(DAY)
    summaries = [n for n in site.notifications.sent
                 if n.subject == "daily batch summary"]
    assert summaries
    assert "resubmitted=1" in summaries[-1].body
