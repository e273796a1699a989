"""Unit tests for the LSF-like scheduler."""

import pytest

from repro.apps.database import Database
from repro.batch.jobs import BatchJob, JobState
from repro.batch.lsf import LsfCluster, LsfMaster


@pytest.fixture
def lsf(dc, sim, rs):
    master = LsfMaster(dc.host("adm01"))
    master.start()
    dbs = []
    for hostname, name in (("db01", "ora01"), ("fe01", "ora02")):
        db = Database(dc.host(hostname), name, max_job_slots=2)
        db.start()
        dbs.append(db)
    sim.run(until=sim.now + 200.0)
    cluster = LsfCluster(dc, master, rng=rs.get("lsf"),
                         base_crash_prob=0.0)
    for db in dbs:
        cluster.register_server(db)
    return cluster


def _job(duration=100.0, target="db01"):
    return BatchJob("j", "analyst", duration=duration,
                    requested_server=target)


def test_submit_dispatch_complete(sim, lsf):
    job = _job(duration=50.0)
    assert lsf.submit(job)
    assert job.state is JobState.RUNNING
    sim.run(until=sim.now + 60.0)
    assert job.state is JobState.DONE
    assert lsf.jobs_done == 1


def test_slot_limit_queues_excess(sim, lsf):
    jobs = [_job(duration=1000.0, target=("db01", "fe01")[i % 2])
            for i in range(6)]
    for j in jobs:
        lsf.submit(j)
    running = [j for j in jobs if j.state is JobState.RUNNING]
    pending = [j for j in jobs if j.state is JobState.PENDING]
    assert len(running) == 4          # 2 servers x 2 slots
    assert len(pending) == 2
    # slots free up as jobs finish
    sim.run(until=sim.now + 1100.0)
    assert all(j.state is JobState.DONE for j in jobs[:4])


def test_pinned_job_waits_for_its_server(sim, lsf):
    blockers = [_job(duration=500.0, target="db01") for _ in range(2)]
    for b in blockers:
        lsf.submit(b)
    pinned = _job(duration=50.0, target="db01")
    lsf.submit(pinned)
    assert pinned.state is JobState.PENDING
    sim.run(until=sim.now + 700.0)
    assert pinned.state is JobState.DONE
    assert pinned.database is None


def test_submission_bounces_when_master_down(sim, lsf):
    lsf.master.crash("x")
    assert not lsf.up
    assert not lsf.submit(_job())


def test_dispatch_pauses_while_master_down(sim, lsf):
    lsf.master.crash("x")
    # master comes back, queued work proceeds
    lsf.master.restart()
    sim.run(until=sim.now + lsf.master.startup_duration() + 70.0)
    job = _job(duration=50.0)
    assert lsf.submit(job)
    sim.run(until=sim.now + 120.0)
    assert job.state is JobState.DONE


def test_db_crash_fails_running_jobs(sim, lsf):
    job = _job(duration=1000.0, target="db01")
    lsf.submit(job)
    assert job.state is JobState.RUNNING
    job.database.crash("mid-job")
    assert job.state is JobState.FAILED
    assert lsf.jobs_failed == 1


def test_crash_coupling_under_overload(sim, dc, rs):
    """With a high base crash probability, dispatching onto a loaded
    server eventually kills it."""
    master = LsfMaster(dc.host("adm01"))
    master.start()
    db = Database(dc.host("db01"), "fragile", max_job_slots=12)
    db.start()
    sim.run(until=sim.now + 200.0)
    cluster = LsfCluster(dc, master, rng=rs.get("x"), base_crash_prob=0.5)
    cluster.register_server(db)
    for _ in range(12):
        cluster.submit(BatchJob("j", "u", duration=3600.0, cpu_slots=8,
                                requested_server="db01"))
    sim.run(until=sim.now + 4000.0)
    assert cluster.crashes_caused >= 1
    assert cluster.jobs_failed >= 1


def test_resubmit_runs_again(sim, lsf):
    job = _job(duration=100.0, target="db01")
    lsf.submit(job)
    job.database.crash("x")
    assert job.state is JobState.FAILED
    job.requested_server = "fe01"     # place it on the healthy server
    assert lsf.resubmit(job)
    sim.run(until=sim.now + 200.0)
    assert job.state is JobState.DONE
    assert job.resubmits == 1


def test_jobs_on_and_queue_stats(sim, lsf):
    a = _job(duration=500.0, target="db01")
    b = _job(duration=500.0, target="fe01")
    lsf.submit(a)
    lsf.submit(b)
    assert [j.database.host.name
            for j in lsf.running.values()].count("db01") == 1
    stats = lsf.queue_stats()
    assert stats["running"] == 2 and stats["dispatches"] == 2


def test_duplicate_server_registration_rejected(lsf):
    with pytest.raises(ValueError):
        lsf.register_server(lsf.servers[0])
