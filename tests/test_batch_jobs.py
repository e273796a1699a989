"""Unit tests for the batch-job model."""

import pytest

from repro.batch.jobs import BatchJob, JobState


def test_job_ids_unique():
    a = BatchJob("a", "u", duration=10.0)
    b = BatchJob("b", "u", duration=10.0)
    assert a.job_id != b.job_id
    assert a.state is JobState.PENDING


def test_complete_lifecycle(sim, database):
    job = BatchJob("j", "u", duration=50.0)
    exits = []
    job.on_exit(exits.append)
    database.attach_job(job)
    job.mark_running(database, sim.now, None)
    job.complete(sim.now + 50.0)
    assert job.state is JobState.DONE
    assert job.finished_at == 50.0 + job.started_at
    assert exits == [job]
    assert database.job_count() == 0


def test_fail_cancels_completion_event(sim, database):
    fired = []
    job = BatchJob("j", "u", duration=100.0)
    database.attach_job(job)
    completion = sim.schedule(100.0, fired.append, 1)
    job.mark_running(database, sim.now, completion)
    job.fail(sim.now + 10.0, "boom")
    sim.run()
    assert fired == []
    assert job.state is JobState.FAILED
    assert job.failures == 1
    assert database.host.name in job.failed_on


def test_terminal_states_are_sticky(sim, database):
    job = BatchJob("j", "u", duration=10.0)
    database.attach_job(job)
    job.mark_running(database, sim.now, None)
    job.complete(10.0)
    job.fail(11.0, "late")
    assert job.state is JobState.DONE


def test_exit_fires_once_per_terminal_transition(sim, database):
    count = []
    job = BatchJob("j", "u", duration=10.0)
    job.on_exit(lambda j: count.append(1))
    database.attach_job(job)
    job.mark_running(database, sim.now, None)
    job.fail(5.0, "x")
    job.fail(6.0, "y")
    assert count == [1]


def test_resubmit_resets_state(sim, database):
    job = BatchJob("j", "u", duration=10.0)
    database.attach_job(job)
    job.mark_running(database, sim.now, None)
    job.fail(5.0, "x")
    job.reset_for_resubmit()
    assert job.state is JobState.PENDING
    assert job.resubmits == 1
    assert job.started_at is None
    assert database.host.name in job.failed_on   # memory survives


def test_resubmit_requires_failed():
    job = BatchJob("j", "u", duration=10.0)
    with pytest.raises(ValueError):
        job.reset_for_resubmit()


def test_time_left(sim, database):
    job = BatchJob("j", "u", duration=100.0)
    database.attach_job(job)
    job.mark_running(database, sim.now, None)
    assert job.time_left(sim.now + 30.0) == pytest.approx(70.0)
    assert job.time_left(sim.now + 500.0) == 0.0
    job.complete(sim.now + 100.0)
    assert job.time_left(sim.now) == 0.0
