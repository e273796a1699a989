"""Unit tests for the intelliagent base behaviour (via ServiceAgent)."""

import pytest

from repro.core.flags import FlagStore
from repro.core.parts import Finding
from repro.core.reasoning import Diagnosis
from repro.core.service_agent import ServiceAgent
from repro.experiments.wakes import build_fleet


@pytest.fixture
def agent(database, notifications):
    return ServiceAgent(database.host, database.name,
                        notifications=notifications)


def test_agent_not_memory_resident(agent, database, sim):
    """The process exists only for the span of a run."""
    assert not database.host.ptable.alive(agent.command)
    agent.run()
    # healthy service, instantaneous run: process already gone
    assert not database.host.ptable.alive(agent.command)
    assert agent.stats.runs == 1


def test_ok_flag_on_clean_run(agent, sim):
    agent.run()
    latest = agent.flags.flags()[-1]
    assert latest.status == "ok"


def test_cron_registration(agent, database, sim):
    assert agent.name in database.host.crond.jobs
    sim.run(until=agent.period * 2 + 1)
    assert agent.stats.runs == 2


def test_fault_flag_and_heal_on_crash(agent, database, sim):
    database.crash("x")
    agent.run()
    statuses = [f.status for f in agent.flags.flags()]
    assert "fault" in statuses and "fixed" in statuses
    assert agent.stats.heals_succeeded == 1
    sim.run(until=sim.now + database.startup_duration() + 5)
    assert database.is_healthy()


def test_lockout_during_long_repair(agent, database, sim):
    database.host.crond.remove(agent.name)    # manual drive only
    database.crash("x")
    agent.run()                   # starts the repair; agent stays busy
    assert database.host.ptable.alive(agent.command)
    agent.run()                   # same-type lockout
    assert agent.stats.skipped == 1
    assert any(f.status == "skipped" for f in agent.flags.flags())
    # once the repair window passes the process exits and runs resume
    sim.run(until=sim.now + 600.0)
    assert not database.host.ptable.alive(agent.command)
    agent.run()
    assert agent.stats.skipped == 1


def test_self_maintenance_prunes_flags(agent, sim, database):
    from repro.core.agent import FLAG_RETENTION
    agent.flags.raise_flag("ok", 0.0)
    sim.run(until=FLAG_RETENTION + 400.0)
    agent.run()
    times = [f.time for f in agent.flags.flags()]
    assert 0.0 not in times


def test_escalation_when_no_rule_matches(database, notifications, sim):
    agent = ServiceAgent(database.host, database.name,
                         notifications=notifications)
    database.host.crond.remove(agent.name)
    # an uninstalled application has no automated remedy
    del database.host.apps[database.name]
    for _ in range(3):
        agent.run()
    assert agent.stats.escalations >= 1
    assert any("cannot fix" in n.subject for n in notifications.sent)
    # only one notification per incident (no email storm)
    assert len([n for n in notifications.sent
                if "cannot fix" in n.subject]) == 1


def test_recovery_resets_escalation_state(database, notifications, sim):
    agent = ServiceAgent(database.host, database.name,
                         notifications=notifications)
    database.host.crond.remove(agent.name)
    del database.host.apps[database.name]
    agent.run()
    assert agent._escalated
    # a human reinstalls the application
    database.host.apps[database.name] = database
    agent.run()
    assert not agent._escalated
    assert not agent._attempts


def test_self_healing_beats_my_sabotage(database, notifications, sim):
    """Config corruption plus a misleading crash message: the first
    wake restarts (wrong remedy), the startup abort then *writes the
    evidence* the next diagnosis needs, and the second wake restores
    the configuration -- the paper's static log-parsing diagnosis."""
    agent = ServiceAgent(database.host, database.name,
                         notifications=notifications)
    database.host.crond.remove(agent.name)
    database.config_ok = False
    database.crash("mystery fault xyz")
    for _ in range(3):
        agent.run()
        sim.run(until=sim.now + 900.0)
    assert database.is_healthy()
    assert database.config_ok
    assert agent.stats.escalations == 0


def test_parts_can_be_deactivated(database, notifications, sim):
    agent = ServiceAgent(database.host, database.name,
                         notifications=notifications)
    agent.parts.deactivate("healing")
    database.crash("x")
    agent.run()
    assert agent.stats.heals_attempted == 0
    assert agent.stats.escalations == 1     # diagnose-only escalates
    with pytest.raises(ValueError):
        agent.parts.deactivate("teleportation")


def test_monitoring_deactivated_means_blind(database, sim, notifications):
    agent = ServiceAgent(database.host, database.name,
                         notifications=notifications)
    agent.parts.deactivate("monitoring")
    database.crash("x")
    agent.run()
    assert agent.stats.faults_found == 0


def test_activity_log_written(agent, database, sim):
    database.crash("x")
    agent.run()
    lines = agent.activity.fs.read(agent.activity.path)
    assert any("diagnosis" in l for l in lines)
    assert any("action restart_app" in l for l in lines)


def test_agent_skips_when_host_down(agent, database, sim):
    database.host.crash("x")
    agent.run()
    assert agent.stats.runs == 0


def test_amortized_cpu_is_tiny(agent):
    # the Fig. 3 property: well under a tenth of a percent
    assert agent.amortized_cpu_pct() < 0.05


def test_flag_write_failure_does_not_kill_agent(agent, database, sim):
    database.host.fs.fill("/logs", 1.0)
    agent.run()                   # must not raise
    assert agent.stats.runs == 1


def test_a_full_logs_mount_lets_every_wake_complete():
    """Flags, the activity log, profiles and reports all live on
    ``/logs``; a full mount costs them their files, not their wakes."""
    _sim, _dc, (suite,) = build_fleet(1, "fixed", seed=0)
    suite.host.fs.fill("/logs", 1.0)
    runs = [agent.stats.runs for agent in suite.agents]
    for agent in suite.agents:
        agent.run()
    assert [agent.stats.runs for agent in suite.agents] == [
        n + 1 for n in runs]
    assert suite.status.build_and_ship() is not None
    suite.perf._write_report(Diagnosis(
        Finding("perf-threshold", suite.host.name, "scan_rate=900"),
        "memory-pressure", []))
    log = suite.perf.report_log
    assert sum(f"{suite.host.sim.now:.0f} REPORT scan_rate=900 "
               f"suspect=memory-pressure " in line
               for line in log.fs.read(log.path)) == 1


def test_a_non_filesystem_error_in_raise_flag_propagates(
        agent, database, monkeypatch):
    def broken(*_args, **_kwargs):
        raise TypeError("not a filesystem failure")
    monkeypatch.setattr(database.host.fs, "write", broken)
    with pytest.raises(TypeError, match="not a filesystem failure"):
        agent.run()
