"""Unit tests for the BMC-style baseline monitor."""

import pytest

from repro.ops.bmc import BaselineMonitor


@pytest.fixture
def bmc(database, notifications):
    return BaselineMonitor(database.host, notifications=notifications)


def test_monitor_is_memory_resident(bmc, database):
    # a real process sits in the table the whole time
    assert database.host.ptable.alive("PatrolAgent")
    assert bmc.proc.mem_mb > 10.0


def test_cost_scales_with_entities(bmc, database):
    cpu0 = bmc.cpu_pct()
    mem0 = bmc.memory_mb()
    for i in range(200):
        database.host.ptable.spawn("u", f"extra{i}")
    assert bmc.cpu_pct() > cpu0
    assert bmc.memory_mb() > mem0


def test_memory_sawtooth_grows_until_flush(sim, bmc):
    m0 = bmc.memory_mb()
    sim.run(until=sim.now + 4 * 3600.0)
    m4 = bmc.memory_mb()
    assert m4 > m0
    # past the flush boundary it drops back
    sim.run(until=sim.now + 5 * 3600.0)   # 9h > 8h flush period
    assert bmc.memory_mb() < m4


def test_detects_crash_and_notifies(sim, bmc, database, notifications):
    database.crash("x")
    sim.run(until=sim.now + 2 * BaselineMonitor.POLL_INTERVAL)
    assert bmc.alerts_raised == 1
    assert any("down" in n.subject for n in notifications.sent)
    # detect-only: the app is still dead
    assert not database.is_running()


def test_alerts_once_per_outage(sim, bmc, database):
    database.crash("x")
    sim.run(until=sim.now + 10 * BaselineMonitor.POLL_INTERVAL)
    assert bmc.alerts_raised == 1
    database.restart()
    sim.run(until=sim.now + database.startup_duration() + 60)
    database.crash("again")
    sim.run(until=sim.now + 2 * BaselineMonitor.POLL_INTERVAL)
    assert bmc.alerts_raised == 2


def test_misses_latent_hang(sim, bmc, database):
    """The BMC process-count rules cannot see a hung app -- the gap the
    paper's probes close."""
    database.hang()
    sim.run(until=sim.now + 5 * BaselineMonitor.POLL_INTERVAL)
    assert bmc.alerts_raised == 0


def test_cpu_in_papers_band(bmc):
    # a loaded-but-sane server should land in the 0.1-1.5% band
    assert 0.05 < bmc.cpu_pct() < 1.5
