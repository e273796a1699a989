"""Unit tests for the database model."""

import pytest

from repro.apps.database import Database
from repro.batch.jobs import BatchJob, JobState


def test_db_ports_by_type(dc, sim):
    ora = Database(dc.host("db01"), "ora", db_type="oracle")
    syb = Database(dc.host("fe01"), "syb", db_type="sybase")
    assert ora.port == 1521
    assert syb.port == 4100
    with pytest.raises(ValueError):
        Database(dc.host("adm01"), "bad", db_type="postgres")


def test_probe_counts_transactions(database):
    t0 = database.transactions
    ok, ms, _ = database.probe()
    assert ok and ms > 0
    assert database.transactions == t0 + 1


def test_user_sessions(database):
    assert database.connect_user("alice")
    assert database.connect_user("bob")
    assert len(database.connected_users) == 2
    database.disconnect_user("alice")
    assert len(database.connected_users) == 1
    database.crash("x")
    assert len(database.connected_users) == 0


def test_connect_refused_when_down(database):
    database.crash("x")
    assert not database.connect_user("carol")


def test_job_attach_detach_loads_host(database):
    host = database.host
    job = BatchJob("j", "u", duration=100.0, cpu_slots=3, io_demand=0.5)
    assert database.attach_job(job)
    assert host.extra_runnable == 3
    assert host.io_demand >= 0.5
    assert database.job_count() == 1
    database.detach_job(job)
    assert host.extra_runnable == 0
    assert database.job_count() == 0


def test_attach_refused_when_not_running(database):
    database.crash("x")
    job = BatchJob("j", "u", duration=10.0)
    assert not database.attach_job(job)


def test_crash_fails_active_jobs(database, sim):
    jobs = [BatchJob(f"j{i}", "u", duration=1e6) for i in range(3)]
    for j in jobs:
        database.attach_job(j)
        j.mark_running(database, sim.now, None)
    database.crash("mid-job")
    for j in jobs:
        assert j.state is JobState.FAILED
        assert "db-died" in j.fail_reason
        assert database.host.name in j.failed_on
    assert database.jobs_crashed_total == 3
    assert database.host.extra_runnable == 0


def test_overload_and_hazard(database):
    base = database.crash_hazard_multiplier()
    assert base == 1.0
    ceiling = database.host.spec.max_load * database.host.effective_cpus()
    database.host.extra_runnable = int(ceiling * 1.5)
    assert database.overload_factor() > 1.0
    assert database.crash_hazard_multiplier() > 10.0 * base


def test_backup_lifecycle(database, sim):
    duration = database.start_backup()
    assert duration is not None
    assert database.backup_running
    assert database.start_backup() is None     # one at a time
    sim.run(until=sim.now + duration + 1)
    assert not database.backup_running


def test_checkpoint_only_when_running(database):
    database.checkpoint()
    assert database.checkpoints == 1
    database.crash("x")
    database.checkpoint()
    assert database.checkpoints == 1


def test_db_metrics_snapshot(database):
    m = database.db_metrics()
    # §3.6's ten database measurements are all present
    for key in ("connect_ms", "query_ms", "init_s", "shutdown_s",
                "backup_s", "proc_cpu_pct", "proc_mem_mb", "users",
                "startup_mem_mb", "checkpoints", "mem_per_txn_kb"):
        assert key in m
    assert m["connect_ms"] > 0
