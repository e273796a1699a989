"""Unit tests for job checkpointing (related-work technique [18]).

A checkpointing job banks completed work at every interval; a
resubmission resumes from the last checkpoint instead of restarting
from scratch, which caps the work lost to a mid-job database crash.
"""

import pytest

from repro.apps.database import Database
from repro.batch.jobs import BatchJob, JobState
from repro.batch.lsf import LsfCluster, LsfMaster


@pytest.fixture
def lsf(dc, sim, rs):
    master = LsfMaster(dc.host("adm01"))
    master.start()
    dbs = [Database(dc.host("db01"), "a", max_job_slots=4),
           Database(dc.host("fe01"), "b", max_job_slots=4)]
    for db in dbs:
        db.start()
    sim.run(until=sim.now + 200.0)
    cluster = LsfCluster(dc, master, rng=rs.get("lsf"),
                         base_crash_prob=0.0)
    for db in dbs:
        cluster.register_server(db)
    return cluster


def _checkpointing_job(duration, interval):
    job = BatchJob("ckpt", "u", duration=duration, requested_server="db01")
    job.checkpoint_interval = interval
    return job


def test_checkpoints_bank_work_on_failure(sim, lsf):
    job = _checkpointing_job(3600.0, 600.0)
    lsf.submit(job)
    sim.run(until=sim.now + 1550.0)       # 2 full checkpoints + change
    job.database.crash("mid-job")
    assert job.state is JobState.FAILED
    assert job.checkpointed_work == 1200.0
    assert job.remaining_work == 2400.0


def test_resumed_job_finishes_early(sim, lsf):
    job = _checkpointing_job(3600.0, 600.0)
    lsf.submit(job)
    sim.run(until=sim.now + 1900.0)
    job.database.crash("x")
    assert job.checkpointed_work == 1800.0
    job.requested_server = "fe01"
    t_resume = sim.now
    lsf.resubmit(job)
    sim.run(until=sim.now + 1850.0)
    assert job.state is JobState.DONE
    # only the remaining half ran after the resume
    assert job.finished_at - t_resume == pytest.approx(1800.0)


def test_non_checkpointing_job_restarts_from_scratch(sim, lsf):
    job = BatchJob("plain", "u", duration=3600.0,
                   requested_server="db01")
    lsf.submit(job)
    sim.run(until=sim.now + 1900.0)
    job.database.crash("x")
    assert job.checkpointed_work == 0.0
    assert job.remaining_work == 3600.0


def test_checkpoints_accumulate_across_failures(sim, lsf):
    job = _checkpointing_job(3600.0, 300.0)
    lsf.submit(job)
    sim.run(until=sim.now + 700.0)
    job.database.crash("first")
    assert job.checkpointed_work == 600.0
    job.requested_server = "fe01"
    lsf.resubmit(job)
    sim.run(until=sim.now + 700.0)
    job.database.crash("second")
    assert job.checkpointed_work == 1200.0


def test_time_left_accounts_for_checkpoints(sim, lsf):
    job = _checkpointing_job(3600.0, 600.0)
    lsf.submit(job)
    sim.run(until=sim.now + 650.0)
    job.database.crash("x")
    job.requested_server = "fe01"
    lsf.resubmit(job)
    assert job.time_left(sim.now) == pytest.approx(3000.0)


def test_banked_work_capped_at_duration(sim, lsf):
    job = _checkpointing_job(1000.0, 100.0)
    lsf.submit(job)
    sim.run(until=sim.now + 999.0)
    job.database.crash("photo finish")
    assert job.checkpointed_work <= 1000.0
    assert job.remaining_work >= 0.0
