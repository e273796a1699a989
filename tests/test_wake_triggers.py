"""Unit tests for the trigger bus and the agent demand-wake path."""

from repro.core.suite import AgentSuite
from repro.wake import TriggerBus


class _Probe:
    """A fake agent recording demand wakes."""

    def __init__(self, name, accept=True):
        self.name = name
        self.accept = accept
        self.wakes = []

    def demand_wake(self, trigger=None):
        if not self.accept:
            return False
        self.wakes.append(trigger)
        return True


def test_syslog_severity_threshold(sim, db_host):
    bus = TriggerBus(db_host)
    bus.attach_syslog()
    probe = _Probe("p")
    bus.subscribe(probe, lambda t: t.kind == "syslog")
    db_host.syslog.info(sim.now, "oracle", "routine checkpoint")
    assert probe.wakes == []
    db_host.syslog.error(sim.now, "oracle", "ORA-600")
    assert len(probe.wakes) == 1
    trig = probe.wakes[0]
    assert trig.subject == "oracle" and trig.severity == "err"


def test_process_exit_wakes_only_for_app_daemons(sim, db_host, database):
    bus = TriggerBus(db_host)
    bus.watch_process_exits()
    probe = _Probe("p")
    bus.subscribe(probe, lambda t: t.kind == "proc_exit")
    # a shell-owned scratch process exiting is not a symptom
    scratch = db_host.ptable.spawn("analyst", "sort", now=sim.now)
    db_host.ptable.kill(scratch.pid)
    assert probe.wakes == []
    victim = database.procs[0]
    db_host.ptable.kill(victim.pid)
    assert len(probe.wakes) == 1
    assert probe.wakes[0].subject == database.name


def test_app_state_flip_wakes_subscribers(sim, db_host, database):
    bus = TriggerBus(db_host)
    bus.watch_app(database)
    probe = _Probe("p")
    bus.subscribe(probe, lambda t: t.kind == "state")
    database.hang()                 # silent fault: no syslog line
    assert [t.detail for t in probe.wakes] == ["hung"]


def test_cooldown_debounces_trigger_storms(sim, db_host):
    bus = TriggerBus(db_host)
    probe = _Probe("p")
    bus.subscribe(probe, lambda t: True)
    woken = [bus.publish("syslog", "oracle", detail="spam")
             for _ in range(5)]
    assert len(probe.wakes) == 1
    assert woken == [1, 0, 0, 0, 0]     # four suppressed
    sim.run(until=sim.now + 61.0)
    bus.publish("syslog", "oracle", detail="later")
    assert len(probe.wakes) == 2


def test_down_host_publishes_nothing(sim, db_host):
    bus = TriggerBus(db_host)
    probe = _Probe("p")
    bus.subscribe(probe, lambda t: True)
    db_host.crash("x")
    assert bus.publish("syslog", "kernel") == 0
    assert probe.wakes == []


def test_refused_wake_does_not_start_cooldown(sim, db_host):
    bus = TriggerBus(db_host)
    probe = _Probe("p", accept=False)
    bus.subscribe(probe, lambda t: True)
    bus.publish("state", "oracle")
    probe.accept = True
    bus.publish("state", "oracle")
    assert len(probe.wakes) == 1


def test_adaptive_suite_crash_to_heal_without_waiting_for_grid(
        sim, db_host, database, notifications):
    """End to end: a backed-off service agent is demand-woken by the
    crash trigger and heals immediately instead of at the next wake."""
    suite = AgentSuite(db_host, notifications=notifications,
                       wake_policy="adaptive")
    agent = suite.service_agents[database.name]
    sim.run(until=sim.now + 5000.0)     # healthy: fully backed off
    assert agent.wake.current_period > agent.period
    t0 = sim.now
    database.crash("x")
    sim.run(until=sim.now)              # drain the zero-delay wake
    assert agent.wake.current_period == agent.period    # snapped back
    assert any(f.status == "fault" and f.time >= t0
               for f in agent.flags.flags())
    sim.run(until=sim.now + database.startup_duration() + 10.0)
    assert database.is_healthy()


def test_fixed_suite_has_no_bus_and_keeps_grid(sim, db_host,
                                               notifications):
    suite = AgentSuite(db_host, notifications=notifications)
    assert suite.triggers is None
    sim.run(until=sim.now + 2000.0)
    for agent in suite.agents:
        assert agent.wake.current_period == agent.period
