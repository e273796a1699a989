"""Unit tests for the fault injector."""

import pytest

from repro.apps.base import AppState
from repro.cluster.hardware import ComponentKind
from repro.faults.injector import FaultInjector
from repro.faults.models import Category


@pytest.fixture
def inj(dc, rs):
    return FaultInjector(dc, rs.get("inj"))


def test_db_crash(inj, database):
    ev = inj.db_crash(database)
    assert database.state is AppState.CRASHED
    assert ev.category is Category.MID_CRASH
    assert ev.target == "db01/ora01"
    assert inj.injected == [ev]


def test_app_hang_is_latent(inj, database):
    inj.app_hang(database, Category.MID_CRASH)
    assert database.state is AppState.HUNG
    assert database.processes_present()


def test_config_corruption_blocks_restart(inj, database, sim):
    inj.config_corruption(database)
    assert not database.config_ok
    database.restart()
    sim.run(until=sim.now + database.startup_duration() + 1)
    assert database.state is AppState.CRASHED


def test_data_corruption_blocks_restart(inj, database, sim):
    inj.data_corruption(database)
    assert not database.data_ok
    database.restart()
    sim.run(until=sim.now + database.startup_duration() + 1)
    assert database.state is AppState.CRASHED


def test_wrong_process_killed_degrades(inj, database, sim):
    n0 = len(database.procs)
    inj.wrong_process_killed(database)
    assert len(database.procs) == n0 - 1
    assert database.state is AppState.DEGRADED


def test_runaway_and_leak(inj, db_host):
    inj.runaway_process(db_host)
    assert any(p.cpu_pct > 90 for p in db_host.ptable)
    free_mb = db_host.os_metrics()["free_mb"]
    inj.memory_leak(db_host)
    assert db_host.os_metrics()["free_mb"] < free_mb


def test_disk_fill(inj, db_host):
    inj.disk_fill(db_host, "/logs", 0.99)
    assert db_host.fs.mounts["/logs"].pct_used > 95


def test_network_faults(inj, dc):
    ev = inj.lan_failure(dc.lan("public0"))
    assert not dc.lan("public0").up
    assert ev.category is Category.FIREWALL_NETWORK
    inj.nic_failure(dc.host("db01"))
    assert any(not n.ok for n in dc.host("db01").nics.values())


def test_component_failure_can_kill_host(inj, dc, rs):
    host = dc.host("db01")
    ev = inj.component_failure(host, ComponentKind.SYSTEM_BOARD)
    assert ev.category is Category.HARDWARE
    assert not host.is_up          # system board is fatal


def test_disk_component_failure_not_fatal(inj, dc):
    host = dc.host("db01")
    inj.component_failure(host, ComponentKind.DISK)
    assert host.is_up


def test_cron_death(inj, db_host):
    inj.cron_death(db_host)
    assert not db_host.crond.running
    assert not db_host.ptable.alive("crond")


def test_random_fault_respects_category(inj, database, webserver, dc, sim):
    ev = inj.random_fault(Category.MID_CRASH)
    assert ev is not None and ev.category is Category.MID_CRASH
    ev2 = inj.random_fault(Category.PERFORMANCE)
    assert ev2.category is Category.PERFORMANCE


def test_random_fault_returns_none_without_targets(dc, rs):
    inj = FaultInjector(dc, rs.get("empty"))
    # no databases exist in the bare fixture
    assert inj.random_fault(Category.MID_CRASH) is None
    assert inj.random_fault(Category.LSF) is None


# -- overlap rejection + the structured catalog (chaos contracts) ---------------

from repro.faults.injector import FAULT_CATALOG, OverlappingFaultError


def test_double_crash_rejected_not_last_writer_wins(inj, database):
    inj.db_crash(database)
    first = list(inj.injected)
    with pytest.raises(OverlappingFaultError, match="out of service"):
        inj.db_crash(database)
    # the rejected injection left the history as it was
    assert inj.injected == first
    assert len(inj.injected) == 1


def test_overlap_error_is_a_value_error(inj, database):
    inj.app_crash(database)
    # stochastic campaigns catch ValueError for fizzles; the new
    # overlap rejection must stay inside that contract
    with pytest.raises(ValueError):
        inj.app_hang(database)


def test_fault_on_downed_host_rejected(inj, database, db_host):
    db_host.crash("test")
    with pytest.raises(OverlappingFaultError, match="host is down"):
        inj.db_crash(database)
    with pytest.raises(OverlappingFaultError, match="host is down"):
        inj.cron_death(db_host)


def test_config_corruption_twice_rejected(inj, database, sim):
    inj.config_corruption(database)
    database.config_ok = True       # what the healing step does
    database.start()
    sim.run(until=sim.now + 200.0)
    ev = inj.config_corruption(database)    # fine after repair
    assert ev.kind == "config-corruption"
    with pytest.raises(OverlappingFaultError):
        inj.config_corruption(database)


def test_disk_fill_twice_rejected(inj, db_host):
    inj.disk_fill(db_host)
    with pytest.raises(OverlappingFaultError, match="already filled"):
        inj.disk_fill(db_host)


def test_cron_death_twice_rejected(inj, db_host):
    inj.cron_death(db_host)
    with pytest.raises(OverlappingFaultError, match="crond already dead"):
        inj.cron_death(db_host)


def test_lan_failure_twice_rejected(inj, dc):
    lan = dc.lans["public0"]
    inj.lan_failure(lan)
    with pytest.raises(OverlappingFaultError, match="already down"):
        inj.lan_failure(lan)


def test_catalog_methods_exist_and_dispatch(inj, database):
    for spec in FAULT_CATALOG:
        assert callable(getattr(inj, spec.method)), spec.kind
    ev = inj.inject("db-crash", database)
    assert ev.kind == "db-crash"
    assert ev.category is Category.MID_CRASH


def test_inject_unknown_kind_raises(inj, database):
    with pytest.raises(ValueError, match="unknown fault kind"):
        inj.inject("kernel-panic", database)
