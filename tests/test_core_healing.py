"""Unit tests for the healing action library."""

import pytest

from repro.apps.base import AppState
from repro.core.healing import ACTIONS, apply_action


def test_restart_app_brings_service_back(database, sim):
    database.crash("x")
    res = apply_action("restart_app", database.host, database.name)
    assert res.success
    assert res.busy_for > database.startup_duration()
    sim.run(until=sim.now + database.startup_duration() + 5)
    assert database.is_healthy()


def test_restart_unknown_app_fails():
    from repro.cluster.datacenter import Datacenter
    from repro.sim import RandomStreams, Simulator
    sim = Simulator()
    dc = Datacenter(sim, RandomStreams(0))
    host = dc.add_host("h", "linux-x86")
    res = apply_action("restart_app", host, "ghost")
    assert not res.success


def test_restore_config(database, sim):
    database.config_ok = False
    database.crash("operator changed startup parameters")
    res = apply_action("restore_config", database.host, database.name)
    assert res.success
    assert database.config_ok
    sim.run(until=sim.now + database.startup_duration() + 5)
    assert database.is_healthy()


def test_restore_data_takes_the_slow_path(database, sim):
    database.data_ok = False
    database.crash("block corruption")
    res = apply_action("restore_data", database.host, database.name)
    assert res.success and database.data_ok
    # not yet: the restore itself takes time
    sim.run(until=sim.now + 100.0)
    assert not database.is_healthy()
    sim.run(until=sim.now + res.busy_for + 60.0)
    assert database.is_healthy()


def test_kill_runaway(db_host):
    db_host.ptable.spawn("user1", "runaway.sh", cpu_pct=97.0)
    db_host.ptable.spawn("oracle", "ora_ok", cpu_pct=20.0)
    res = apply_action("kill_runaway", db_host, "db01")
    assert res.success
    assert not db_host.ptable.alive("runaway.sh")
    assert db_host.ptable.alive("ora_ok")
    # nothing left to kill: reported as failure
    assert not apply_action("kill_runaway", db_host, "db01").success


def test_kill_leaky(db_host):
    ram = db_host.effective_ram_mb()
    db_host.ptable.spawn("app", "leaky", mem_mb=ram * 0.5)
    res = apply_action("kill_leaky", db_host, "db01")
    assert res.success
    assert not db_host.ptable.alive("leaky")


def test_clean_logs_frees_space(db_host):
    db_host.fs.fill("/logs", 0.97)
    res = apply_action("clean_logs", db_host, "/logs")
    assert res.success
    assert db_host.fs.mounts["/logs"].pct_used < 90.0


def test_clean_logs_trims_circular_files(db_host):
    for i in range(300):
        db_host.fs.append("/logs/perf/db01/os", f"line{i}")
    apply_action("clean_logs", db_host, "/logs")
    assert len(db_host.fs.read("/logs/perf/db01/os")) == 100


def test_restart_cron(db_host):
    db_host.crond.kill()
    db_host.ptable.kill_command("crond")
    res = apply_action("restart_cron", db_host, "crond")
    assert res.success
    assert db_host.crond.running
    assert db_host.ptable.alive("crond")


def test_field_engineer_is_not_a_repair(db_host):
    res = apply_action("request_field_engineer", db_host, "disk0")
    assert not res.success


def test_unknown_action(db_host):
    res = apply_action("percussive_maintenance", db_host, "x")
    assert not res.success and "unknown" in res.detail


def test_action_registry_complete():
    for name in ("restart_app", "start_app", "restore_config",
                 "restore_data", "kill_runaway", "kill_leaky",
                 "clean_logs", "restart_cron",
                 "request_field_engineer"):
        assert name in ACTIONS
