"""Unit tests for the six agent categories' specific behaviour."""

import pytest

from repro.apps.base import AppState
from repro.core.hardware_agent import HardwareAgent
from repro.core.os_agent import OsNetworkAgent
from repro.core.performance_agent import PerformanceAgent
from repro.core.resource_agent import ResourceAgent
from repro.core.service_agent import ServiceAgent
from repro.core.status_agent import StatusAgent
from repro.net.nameservice import NameService
from repro.cluster.hardware import ComponentKind


# -------------------------------------------------------------- service --

def test_service_agent_heals_hang(database, sim, notifications):
    agent = ServiceAgent(database.host, database.name,
                         notifications=notifications)
    database.hang()
    agent.run()
    assert database.state in (AppState.STOPPED, AppState.STARTING,
                              AppState.RUNNING)
    sim.run(until=sim.now + database.startup_duration() + 60)
    assert database.is_healthy()


def test_service_agent_skips_starting_app(database, sim, notifications):
    agent = ServiceAgent(database.host, database.name,
                         notifications=notifications)
    database.crash("x")
    database.start()
    agent.run()
    assert agent.stats.faults_found == 0


def test_service_agent_restores_corrupt_data(database, sim, notifications):
    agent = ServiceAgent(database.host, database.name,
                         notifications=notifications)
    database.host.crond.remove(agent.name)
    database.data_ok = False
    database.crash("block corruption detected in datafile 3")
    agent.run()
    sim.run(until=sim.now + 1200.0)
    agent.run()
    sim.run(until=sim.now + 1200.0)
    assert database.is_healthy()
    assert database.data_ok


def test_service_agent_proc_count_constraint(database, sim, notifications):
    from repro.ontology.slkt import build_slkt
    slkt = build_slkt(database.host)
    agent = ServiceAgent(database.host, database.name, slkt=slkt,
                         notifications=notifications)
    victim = database.host.ptable.by_command("oracle_server")[0]
    database.host.ptable.kill(victim.pid)
    findings = agent.monitor()
    assert any(f.kind == "proc-missing" for f in findings)
    agent.run()
    sim.run(until=sim.now + database.startup_duration() + 120)
    # the restart repopulated the full daemon complement
    assert len(database.host.ptable.by_command("oracle_server")) == 4


def test_service_agent_flags_slow_service(database, notifications):
    agent = ServiceAgent(database.host, database.name,
                         notifications=notifications)
    database.host.extra_runnable = database.host.effective_cpus() * 40
    findings = agent.monitor()
    assert any(f.kind in ("service-slow", "service-down")
               for f in findings)


# ------------------------------------------------------------------- os --

def test_os_agent_kills_runaway(database, sim, notifications):
    agent = OsNetworkAgent(database.host, notifications=notifications)
    database.host.ptable.spawn("user1", "runaway.sh", cpu_pct=96.0)
    agent.run()
    assert not database.host.ptable.alive("runaway.sh")
    assert agent.stats.heals_succeeded == 1


def test_os_agent_kills_leak(database, sim, notifications):
    agent = OsNetworkAgent(database.host, notifications=notifications)
    free = database.host.memory_free_mb()
    database.host.ptable.spawn("app", "leaky_daemon", mem_mb=free * 0.99)
    agent.run()
    assert not database.host.ptable.alive("leaky_daemon")


def test_os_agent_reports_network_trouble_without_healing(
        dc, database, sim, notifications):
    agent = OsNetworkAgent(database.host, notifications=notifications,
                           admin_targets=["adm01"])
    dc.lan("public0").fail()
    dc.lan("agentnet").fail()
    agent.run()
    assert agent.stats.escalations >= 1
    assert dc.lan("public0").up is False      # nothing auto-repaired


def test_os_agent_detects_nic_failure(dc, database, notifications):
    agent = OsNetworkAgent(database.host, notifications=notifications)
    next(iter(database.host.nics.values())).fail()
    findings = agent.monitor()
    assert any(f.kind == "nic-failed" for f in findings)


def test_os_agent_watches_nameservice(sim, database, notifications):
    ns = NameService(sim)
    agent = OsNetworkAgent(database.host, nameservice=ns,
                           notifications=notifications)
    assert agent.monitor() == []
    ns.fail()
    assert any(f.kind == "dns-down" for f in agent.monitor())
    ns.repair()
    ns.slow()
    assert any(f.kind == "dns-slow" for f in agent.monitor())


# ------------------------------------------------------------- resource --

def test_resource_agent_cleans_full_logs(database, sim, notifications):
    agent = ResourceAgent(database.host, notifications=notifications)
    database.host.fs.fill("/logs", 0.95)
    agent.run()
    assert database.host.fs.mounts["/logs"].pct_used < 90.0
    assert agent.stats.heals_succeeded == 1


def test_resource_agent_escalates_data_growth(database, notifications):
    agent = ResourceAgent(database.host, notifications=notifications)
    database.host.fs.fill("/data", 0.95)
    agent.run()
    # real growth is a capacity decision: notify, do not delete
    assert agent.stats.escalations == 1
    assert database.host.fs.mounts["/data"].pct_used > 90.0


def test_resource_agent_escalates_dead_disk(database, notifications):
    from repro.cluster.hardware import ComponentKind
    agent = ResourceAgent(database.host, notifications=notifications)
    database.host.inventory.of_kind(ComponentKind.DISK)[0].fail(0.0)
    agent.run()
    assert any("cannot fix" in n.subject for n in notifications.sent)


def test_resource_agent_notes_slow_disks(database, notifications):
    agent = ResourceAgent(database.host, notifications=notifications)
    database.host.add_io_demand(database.host.online_disks() * 0.97)
    findings = agent.monitor()
    assert any(f.kind == "disk-slow" for f in findings)


# ------------------------------------------------------------- hardware --

def test_hardware_agent_names_the_fru(database, notifications):
    agent = HardwareAgent(database.host, notifications=notifications)
    assert agent.monitor() == []
    database.host.inventory.of_kind(ComponentKind.MEMORY_BANK)[1].fail(0.0)
    findings = agent.monitor()
    assert any(f.subject.endswith("memory_bank1") for f in findings)
    agent.run()
    # escalated with the component named
    assert any("memory_bank1" in n.subject or "memory_bank1" in n.body
               for n in notifications.sent)


def test_hardware_agent_warns_on_degraded(database, notifications):
    agent = HardwareAgent(database.host, notifications=notifications)
    comp = database.host.inventory.of_kind(ComponentKind.CPU_BOARD)[0]
    for _ in range(3):
        comp.degrade(0.0)
    findings = agent.monitor()
    assert any(f.kind == "hw-degraded" for f in findings)


# --------------------------------------------------------------- status --

def test_status_agent_builds_and_stores_dlsp(database, sim):
    received = []
    agent = StatusAgent(database.host, deliver=received.append)
    agent.run()
    assert len(received) == 1
    assert received[0].hostname == "db01"
    # the profile also landed on the local filesystem
    from repro.core.status_agent import DLSP_DIR
    assert database.host.fs.files_in_dir(DLSP_DIR)


def test_status_agent_prunes_old_profiles(database, sim):
    agent = StatusAgent(database.host, deliver=lambda d: None)
    database.host.crond.remove(agent.name)
    agent.run()
    first = database.host.fs.files_in_dir(
        "/logs/intelliagents/dlsp")
    sim.run(until=sim.now + 4000.0)
    agent.run()
    remaining = database.host.fs.files_in_dir(
        "/logs/intelliagents/dlsp")
    assert first[0] not in remaining


def test_status_agent_ships_over_channel(dc, database, channel, sim):
    received = []
    agent = StatusAgent(database.host, deliver=received.append,
                        channel=channel, admin_targets=["adm01"])
    agent.run()
    assert received and channel.stats()["delivered"] >= 1
    # network dead: profile not delivered
    dc.lan("public0").fail()
    dc.lan("agentnet").fail()
    agent.run()
    assert len(received) == 1


# ---------------------------------------------------------- performance --

def test_performance_agent_samples_all_groups(database, sim, notifications):
    agent = PerformanceAgent(database.host, notifications=notifications)
    agent.run()
    assert agent.samplers.samples_taken == 5
    assert agent.timeline("os", "cpu_idle") is not None


def test_performance_agent_reports_breach(database, sim, notifications):
    agent = PerformanceAgent(database.host, notifications=notifications)
    database.host.ptable.spawn("greedy", "miner", cpu_pct=97.0)
    agent.run()
    assert agent.breaches_seen >= 1
    assert agent.reports_sent >= 1
    report = agent.report_log.fs.read(agent.report_log.path)[-1]
    assert "suspect=" in report and "greedy" in report
    # limited troubleshooting: it did NOT kill anything
    assert database.host.ptable.alive("miner")


def test_performance_agent_quiet_on_healthy_host(database, sim,
                                                 notifications):
    agent = PerformanceAgent(database.host, notifications=notifications)
    agent.run()
    assert agent.breaches_seen == 0
    assert notifications.count() == 0
