"""Soak test: two simulated days under an elevated random fault storm.

The strongest claim the paper makes is architectural: the distributed
agents keep a complex site alive without human babysitting.  This test
turns the fault rate far above production levels, runs the full stack
for two days, and checks the end state: auto-fixable damage healed,
escalations confined to the categories the paper says need humans,
bookkeeping consistent throughout.
"""

import pytest

from repro.experiments.runner import FidelityHarness
from repro.experiments.site import SiteConfig, build_site
from repro.faults.models import Category
from repro.sim.calendar import DAY


#: elevated per-day rates (production is ~0.2/day across everything)
SOAK_RATES = {
    Category.MID_CRASH: 6.0,
    Category.FRONT_END: 6.0,
    Category.HUMAN: 3.0,
    Category.PERFORMANCE: 6.0,
    Category.LSF: 2.0,
    Category.COMPLETELY_DOWN: 1.0,
}


@pytest.fixture(scope="module")
def soaked():
    site = build_site(SiteConfig.test_scale(seed=47, with_feeds=False,
                                            with_workload=False))
    harness = FidelityHarness(site)
    n = harness.injector.schedule_poisson(SOAK_RATES, 2 * DAY)
    assert n > 20, "soak needs a real storm"
    site.run(2 * DAY + 7200.0)       # storm + settling time
    return site, harness, n


def test_soak_heals_the_applications(soaked):
    site, harness, n = soaked
    # every application is back in service at the end
    for db in site.databases:
        assert db.is_healthy(), db.name
    for fe in site.frontends:
        assert fe.is_healthy(), fe.name
    assert site.lsf.up


def test_soak_closes_its_incidents(soaked):
    site, harness, n = soaked
    ledger = harness.ledger
    closed = [i for i in ledger.incidents if not i.open]
    assert len(closed) >= 10
    assert harness.open_incidents() == []
    # repairs were fast: restart-scale, not operator-scale
    assert sum(i.duration for i in closed) / len(closed) < 0.75 * 3600.0


def test_soak_agents_did_the_work(soaked):
    site, harness, n = soaked
    totals = {"heals_succeeded": 0, "faults_found": 0, "runs": 0}
    for suite in site.suites.values():
        t = suite.totals()
        for k in totals:
            totals[k] += t[k]
    assert totals["heals_succeeded"] >= 10
    assert totals["faults_found"] >= totals["heals_succeeded"]
    # agents ran all storm long (cron grid held up)
    assert totals["runs"] > 1000


def test_soak_flag_protocol_survived(soaked):
    site, harness, n = soaked
    from repro.core.flags import FlagStore
    now = site.sim.now
    for suite in site.suites.values():
        if not suite.host.is_up:
            continue
        for agent in suite.agents:
            latest = FlagStore(suite.host.fs, agent.name).latest_time()
            assert now - latest < 2 * site.config.agent_period + 60.0, (
                f"{suite.host.name}/{agent.name} stopped flagging")


def test_soak_overhead_stays_flat(soaked):
    """Self-management must not snowball under load: the agent
    footprint after the storm equals the design numbers."""
    site, harness, n = soaked
    for suite in site.suites.values():
        assert suite.cpu_pct() < 0.1
        assert suite.memory_mb() <= 0.2 * len(suite.agents) + 1e-9


def test_soak_log_discipline(soaked):
    """Circular logs and flag self-maintenance keep the disk sane
    across tens of thousands of agent wakes."""
    site, harness, n = soaked
    for host in site.dc.all_hosts():
        if not host.is_up:
            continue
        logs_mount = host.fs.mounts["/logs"]
        # after a disk-fill fault the clean_logs action recovers to
        # ~60%; everything else must stay well under the 90% threshold
        assert logs_mount.pct_used < 75.0, host.name
