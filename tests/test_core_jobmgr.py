"""Unit tests for the DGSPL-driven job manager."""

import pytest

from repro.apps.database import Database
from repro.batch.jobs import BatchJob, JobState
from repro.batch.lsf import LsfCluster, LsfMaster
from repro.core.admin import AdministrationServers
from repro.core.jobmgr import JobManager
from repro.core.suite import AgentSuite


@pytest.fixture
def rig(dc, sim, rs, channel, notifications, pool):
    """Two databases (weak db01, strong big01), admin pair, LSF,
    job manager."""
    big_host = dc.add_host("big01", "sun-e10k")
    dc.connect("big01", "public0")
    dc.connect("big01", "agentnet")
    weak = Database(dc.host("db01"), "ora_weak", max_job_slots=4)
    strong = Database(big_host, "ora_strong", max_job_slots=6)
    master = LsfMaster(dc.host("adm01"))
    for app in (weak, strong, master):
        app.start()
    sim.run(until=sim.now + 300.0)
    admin = AdministrationServers(dc, dc.host("adm01"), dc.host("adm02"),
                                  pool, channel=channel,
                                  notifications=notifications)
    for hostname in ("db01", "big01"):
        suite = AgentSuite(dc.host(hostname), channel=channel,
                           admin_targets=["adm01", "adm02"],
                           notifications=notifications,
                           deliver_dlsp=admin.receive_dlsp)
        admin.register_suite(suite)
    lsf = LsfCluster(dc, master, rng=rs.get("lsf"), base_crash_prob=0.0)
    lsf.register_server(weak)
    lsf.register_server(strong)
    mgr = JobManager(admin, lsf, notifications=notifications)
    # let status agents ship DLSPs and the admin build a DGSPL
    sim.run(until=sim.now + 1000.0)
    assert admin.dgspl is not None
    return admin, lsf, mgr, weak, strong


def test_failed_job_resubmitted_to_stronger_server(rig, sim):
    admin, lsf, mgr, weak, strong = rig
    job = BatchJob("overnight", "analyst", duration=7200.0,
                   requested_server="db01")
    lsf.submit(job)
    assert job.database is weak
    weak.crash("mid-job")
    # exit hook fires synchronously: the job is already requeued
    assert mgr.resubmitted == 1
    assert job.requested_server == "big01"    # equal-or-higher power
    sim.run(until=sim.now + 120.0)
    assert job.state is JobState.RUNNING
    assert job.database is strong


def test_max_resubmits_then_give_up(rig, sim, notifications):
    admin, lsf, mgr, weak, strong = rig
    job = BatchJob("cursed", "analyst", duration=7200.0,
                   requested_server="db01")
    job.resubmits = mgr.MAX_RESUBMITS
    lsf.submit(job)
    (job.database).crash("boom")
    assert mgr.gave_up == 1
    assert any("manual handling" in n.subject for n in notifications.sent)


def test_gives_up_without_dgspl(rig, sim, notifications):
    admin, lsf, mgr, weak, strong = rig
    admin.dgspl = None
    job = BatchJob("j", "u", duration=7200.0, requested_server="db01")
    lsf.submit(job)
    weak.crash("x")
    assert mgr.gave_up == 1


def test_no_action_when_coordinators_down(rig, sim):
    admin, lsf, mgr, weak, strong = rig
    admin.primary.crash("x")
    admin.standby.crash("x")
    job = BatchJob("j", "u", duration=7200.0, requested_server="big01")
    lsf.submit(job)
    strong.crash("x")
    assert mgr.resubmitted == 0 and mgr.gave_up == 0


def test_double_checks_dgspl_against_live_state(rig, sim):
    """The DGSPL can lag a crash; the manager must not pin a job to a
    server that just died."""
    admin, lsf, mgr, weak, strong = rig
    job = BatchJob("j", "u", duration=7200.0, requested_server="db01")
    lsf.submit(job)
    # both servers die: the shortlist (stale) still lists big01
    weak.crash("x")        # fires resubmission logic
    # job went to big01 or gave up; now crash big01 too before dispatch
    if job.state is JobState.RUNNING:
        strong.crash("x")
    assert mgr.gave_up >= 1 or job.resubmits >= 1


def test_five_minute_checks_restart_lsf(rig, sim):
    admin, lsf, mgr, weak, strong = rig
    lsf.master.crash("x")
    sim.run(until=sim.now + 600.0 + lsf.master.startup_duration())
    assert lsf.up
    # the five-minute check found it down and asked for the restart
    assert f"{lsf.master.name}_ctl start" in lsf.master.host.shell.history


def test_daily_summary_email(rig, sim, notifications):
    admin, lsf, mgr, weak, strong = rig
    from repro.sim.calendar import DAY
    sim.run(until=sim.now + DAY + 3600.0)
    reports = [n for n in notifications.sent
               if n.subject == "daily batch summary"]
    assert reports
    assert all(n.body.startswith("done=") for n in reports)
