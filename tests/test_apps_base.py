"""Unit tests for the application state machine."""

import pytest

from repro.apps.base import Application, AppState, ProcessSpec, StartupStep


@pytest.fixture
def app(dc, sim):
    a = Application(dc.host("db01"), "svc", port=7777,
                    processes=[ProcessSpec("svc_main", 2, 1.0, 10.0)],
                    startup=[StartupStep("warm", 30.0),
                             StartupStep("bind", 10.0)])
    return a


def test_startup_sequence_takes_time(app, sim):
    app.start()
    assert app.state is AppState.STARTING
    assert not app.probe()[0]
    sim.run(until=sim.now + app.startup_duration() + 1)
    assert app.state is AppState.RUNNING
    assert app.probe()[0]


def test_processes_appear_and_disappear(app, sim):
    app.start()
    sim.run(until=sim.now + 50.0)
    assert len(app.host.ptable.by_command("svc_main")) == 2
    app.stop()
    assert app.host.ptable.by_command("svc_main") == []
    assert app.state is AppState.STOPPED


def test_crash_reaps_processes_and_logs(app, sim):
    app.start()
    sim.run(until=sim.now + 50.0)
    app.crash("segfault")
    assert app.state is AppState.CRASHED
    assert not app.processes_present()
    recs = app.host.syslog.grep(tag="svc", min_severity="err")
    assert any("segfault" in r.message for r in recs)
    app.crash("again")              # a crashed app does not crash twice
    assert len(app.host.syslog.grep(tag="svc", min_severity="err")) \
        == len(recs)


def test_hang_keeps_processes_but_kills_service(app, sim):
    app.start()
    sim.run(until=sim.now + 50.0)
    app.hang()
    assert app.state is AppState.HUNG
    assert app.processes_present()
    ok, ms, err = app.probe()
    assert not ok and err == "timeout"


def test_restart_heals_crash(app, sim):
    app.start()
    sim.run(until=sim.now + 50.0)
    app.crash("x")
    app.restart()
    sim.run(until=sim.now + app.startup_duration() + 1)
    assert app.state is AppState.RUNNING
    assert app.restart_count == 1


def test_restart_clears_hang(app, sim):
    app.start()
    sim.run(until=sim.now + 50.0)
    app.hang()
    app.restart()
    sim.run(until=sim.now + app.startup_duration() + 1)
    assert app.is_healthy()


def test_bad_config_aborts_startup(app, sim):
    app.config_ok = False
    app.start()
    sim.run(until=sim.now + app.startup_duration() + 1)
    assert app.state is AppState.CRASHED
    app.config_ok = True
    app.restart()
    sim.run(until=sim.now + app.startup_duration() + 1)
    assert app.is_healthy()


def test_corrupt_data_aborts_startup(app, sim):
    app.start()
    sim.run(until=sim.now + 50.0)
    app.data_ok = False
    app.crash("corruption")
    app.restart()
    sim.run(until=sim.now + app.startup_duration() + 1)
    assert app.state is AppState.CRASHED


def test_degrade_and_recover(app, sim):
    app.start()
    sim.run(until=sim.now + 50.0)
    healthy_ms = app.probe()[1]
    app.degrade("slow disk")
    assert app.state is AppState.DEGRADED
    ok, ms, _ = app.probe()
    assert ms > healthy_ms or not ok
    app.restart()
    sim.run(until=sim.now + app.startup_duration() + 1)
    assert app.is_healthy()


def test_control_script(app, sim):
    host = app.host
    assert host.shell.run("svc_ctl status").exit_code == 1
    assert host.shell.run("svc_ctl start").ok
    sim.run(until=sim.now + app.startup_duration() + 1)
    assert host.shell.run("svc_ctl status").ok
    assert host.shell.run("svc_ctl stop").ok
    assert app.state is AppState.STOPPED
    assert host.shell.run("svc_ctl bogus").exit_code == 2


def test_response_stretches_with_load(app, sim):
    app.start()
    sim.run(until=sim.now + app.startup_duration() + 1)
    ms0 = app.probe()[1]
    app.host.extra_runnable = app.host.effective_cpus() * 10
    ms1 = app.probe()[1]
    assert ms1 > ms0


def test_cannot_start_on_dead_host(app, sim):
    app.host.crash("x")
    app.start()
    sim.run(until=sim.now + 100.0)
    assert app.state is AppState.STOPPED
    assert app.procs == []


def test_double_start_is_idempotent(app, sim):
    app.start()
    app.start()
    sim.run(until=sim.now + app.startup_duration() + 1)
    assert len(app.host.ptable.by_command("svc_main")) == 2
