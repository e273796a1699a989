"""Unit tests for the agent suite, administration servers and job
manager."""

import pytest

from repro.apps.database import Database
from repro.core.admin import AdministrationServers
from repro.core.suite import AgentSuite
from repro.net.nfs import SharedPool


@pytest.fixture
def wired(dc, sim, channel, notifications, pool, database, frontend):
    """Suites on db01/fe01 under an admin pair."""
    admin = AdministrationServers(dc, dc.host("adm01"), dc.host("adm02"),
                                  pool, channel=channel,
                                  notifications=notifications)
    suites = {}
    for hostname in ("db01", "fe01"):
        suite = AgentSuite(dc.host(hostname), channel=channel,
                           admin_targets=["adm01", "adm02"],
                           notifications=notifications,
                           deliver_dlsp=admin.receive_dlsp)
        suites[hostname] = suite
        admin.register_suite(suite)
    return admin, suites


def test_suite_has_full_complement(database, frontend, channel,
                                   notifications):
    suite = AgentSuite(database.host, channel=channel,
                       notifications=notifications)
    categories = {a.category for a in suite.agents}
    assert categories == {"hardware", "os-network", "resource",
                          "performance", "status", "service"}
    assert database.name in suite.service_agents


def test_suite_staggers_cron_offsets(database, channel, notifications):
    suite = AgentSuite(database.host, channel=channel,
                       notifications=notifications)
    offsets = [database.host.crond.jobs[a.name].offset
               for a in suite.agents]
    assert len(set(offsets)) == len(offsets)


def test_suite_overhead_numbers(database, frontend, channel, notifications):
    suite = AgentSuite(database.host, channel=channel,
                       notifications=notifications)
    # Fig. 3: ~0.04-0.06 %; Fig. 4: ~0.2 MB per agent
    assert 0.02 < suite.cpu_pct() < 0.1
    assert suite.memory_mb() == pytest.approx(0.2 * len(suite.agents))


def test_suite_totals_aggregate(database, channel, notifications, sim):
    suite = AgentSuite(database.host, channel=channel,
                       notifications=notifications)
    for agent in suite.agents:
        agent.run()
    totals = suite.totals()
    assert totals["runs"] == len(suite.agents)
    assert totals["cpu_seconds"] > 0
    assert [a.stats.runs for a in suite.agents if a.name == "status"] == [1]


def test_dlsp_flow_and_dgspl_generation(wired, sim, dc):
    admin, suites = wired
    sim.run(until=sim.now + 1000.0)
    assert set(admin.dlsps) == {"db01", "fe01"}
    assert admin.dgspl is not None
    assert admin.dgspl_generations >= 1
    dbs = admin.dgspl.services_of_type("database")
    assert [e.server for e in dbs] == ["db01"]
    # persisted to the shared pool, per type
    assert admin.pool.fs.read("/dgspl/database")


def test_watchdog_restarts_dead_cron(wired, sim, dc, notifications):
    admin, suites = wired
    sim.run(until=sim.now + 1200.0)     # past warm-up
    host = dc.host("db01")
    host.crond.kill()
    host.ptable.kill_command("crond")
    sim.run(until=sim.now + 3 * admin.watch_period)
    assert host.crond.running
    assert admin.cron_repairs >= 1


def test_watchdog_escalates_down_host(wired, sim, dc, notifications):
    admin, suites = wired
    sim.run(until=sim.now + 1200.0)
    dc.host("db01").crash("dead")
    sim.run(until=sim.now + 2 * admin.watch_period)
    assert "db01" in admin.hosts_escalated
    assert any("db01" in n.subject for n in notifications.sent)


def test_ha_failover_and_failback(wired, sim, dc):
    admin, suites = wired
    assert admin.active() is admin.primary
    admin.primary.crash("x")
    assert admin.active() is admin.standby
    sim.run(until=sim.now + 2000.0)
    # the standby kept generating DGSPLs
    gens = admin.dgspl_generations
    sim.run(until=sim.now + 1000.0)
    assert admin.dgspl_generations > gens
    assert admin.failovers >= 1
    admin.primary.boot()
    sim.run(until=sim.now + admin.primary.boot_duration + 10)
    assert admin.active() is admin.primary


def test_both_heads_down_nothing_acts(wired, sim, dc):
    admin, suites = wired
    admin.primary.crash("x")
    admin.standby.crash("x")
    assert admin.active() is None
    gens = admin.dgspl_generations
    sim.run(until=sim.now + 2000.0)
    assert admin.dgspl_generations == gens


def test_dgspl_skips_stale_dlsps(wired, sim, dc):
    admin, suites = wired
    sim.run(until=sim.now + 1000.0)
    assert any(e.server == "db01" for e in admin.dgspl.entries)
    # silence db01's status agent only (the watchdog would repair a
    # fully dead crond); its DLSP goes stale and falls out of the list
    dc.host("db01").crond.remove("status")
    sim.run(until=sim.now + 3000.0)
    assert not any(e.server == "db01" for e in admin.dgspl.entries)
