"""Unit tests for the host model."""

import pytest

from repro.apps.database import Database
from repro.cluster.host import HostState, OS_BASE_MB
from repro.cluster.hardware import ComponentKind


def test_host_starts_up_with_base_daemons(db_host):
    assert db_host.is_up
    for daemon in ("init", "inetd", "syslogd", "crond"):
        assert db_host.ptable.alive(daemon)


def test_crash_clears_processes_and_fires_signal(sim, db_host):
    reasons = []
    db_host.down_signal.subscribe(reasons.append)
    sim.run(until=1.0)
    db_host.crash("panic: bad trap")
    sim.run(until=2.0)
    assert db_host.state is HostState.DOWN
    assert len(db_host.ptable) == 0
    assert reasons == ["panic: bad trap"]
    db_host.crash("again")          # a down host does not crash twice
    assert reasons == ["panic: bad trap"]


def test_boot_takes_boot_duration(sim, db_host):
    db_host.crash("x")
    t0 = sim.now
    db_host.boot()
    sim.run(until=t0 + db_host.boot_duration - 1)
    assert db_host.state is HostState.BOOTING
    sim.run(until=t0 + db_host.boot_duration + 1)
    assert db_host.is_up
    # the boot daemons start when the boot completes, not before
    assert db_host.ptable.by_command("init")[0].started_at \
        == t0 + db_host.boot_duration


def test_boot_refused_on_fatal_hardware(sim, db_host):
    db_host.inventory.of_kind(ComponentKind.SYSTEM_BOARD)[0].fail(now=0.0)
    db_host.crash("hw")
    db_host.boot()
    sim.run(until=sim.now + 1000.0)
    assert db_host.state is HostState.DOWN


def test_apps_autostart_on_boot(sim, dc):
    host = dc.host("db01")
    db = Database(host, "ora01")
    db.start()
    sim.run(until=sim.now + 200.0)
    assert db.is_healthy()
    host.crash("x")
    assert not db.is_running()
    host.boot()
    sim.run(until=sim.now + host.boot_duration + db.startup_duration() + 10)
    assert db.is_healthy()


def test_crash_takes_apps_down_with_it(sim, dc):
    host = dc.host("db01")
    db = Database(host, "ora01")
    db.start()
    sim.run(until=sim.now + 200.0)
    host.crash("x")
    assert db.state.value == "stopped"
    assert db.procs == []


def test_memory_accounting(db_host):
    free0 = db_host.memory_free_mb()
    db_host.ptable.spawn("u", "fat", mem_mb=1000.0)
    assert db_host.memory_free_mb() == pytest.approx(free0 - 1000.0)
    assert db_host.memory_used_mb() >= OS_BASE_MB + 1000.0


def test_memory_pressure_and_paging(db_host):
    m0 = db_host.os_metrics()
    assert m0["scan_rate"] == 0
    db_host.ptable.spawn("u", "hog",
                         mem_mb=db_host.effective_ram_mb() * 0.99)
    m1 = db_host.os_metrics()
    assert m1["scan_rate"] > 0
    assert m1["page_out"] > 0
    assert m1["free_mb"] < m0["free_mb"]


def test_cpu_utilization_capped(db_host):
    for _ in range(50):
        db_host.ptable.spawn("u", "spin", cpu_pct=100.0)
    assert db_host.cpu_utilization() == 100.0


def test_run_queue_counts_extra_runnable(db_host):
    assert db_host.os_metrics()["run_queue"] == 0
    db_host.extra_runnable = db_host.effective_cpus() + 5
    assert db_host.os_metrics()["run_queue"] > 0


def test_io_demand_and_disk_metrics(db_host):
    db_host.add_io_demand(db_host.online_disks() * 0.9)
    rows = db_host.disk_metrics()
    assert all(r["busy_pct"] > 80.0 for r in rows if not r["failed"])
    # saturation blows up service times
    assert rows[0]["asvc_t"] > 8.0
    db_host.add_io_demand(-100.0)
    assert db_host.io_demand == 0.0


def test_failed_disk_shifts_load(db_host):
    db_host.add_io_demand(2.0)
    before = db_host.disk_metrics()[0]["busy_pct"]
    from repro.cluster.hardware import ComponentKind
    for d in db_host.inventory.of_kind(ComponentKind.DISK)[:4]:
        d.fail(now=0.0)
    after = [r for r in db_host.disk_metrics() if not r["failed"]]
    assert all(r["busy_pct"] >= before for r in after)


def test_effective_resources_track_hardware(db_host):
    cpus0 = db_host.effective_cpus()
    from repro.cluster.hardware import ComponentKind
    db_host.inventory.of_kind(ComponentKind.CPU_BOARD)[0].fail(now=0.0)
    assert db_host.effective_cpus() < cpus0


def test_install_app_twice_rejected(dc):
    host = dc.host("db01")
    Database(host, "ora01")
    with pytest.raises(ValueError):
        Database(host, "ora01")
