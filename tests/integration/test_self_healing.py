"""End-to-end self-healing on a live small site.

Each test injects a real fault into the full stack (site + agents +
admin pair) and asserts the system repairs it without human action,
with the downtime ledger telling the story.
"""

import pytest

from repro.experiments.runner import FidelityHarness
from repro.experiments.site import SiteConfig, build_site
from repro.faults.models import Category


@pytest.fixture
def site():
    return build_site(SiteConfig.test_scale(seed=11, with_feeds=False,
                                            with_workload=False))


@pytest.fixture
def harness(site):
    return FidelityHarness(site)


def test_db_crash_healed_within_minutes(site, harness):
    db = site.databases[0]
    t0 = site.sim.now
    harness.injector.db_crash(db)
    site.run(1200.0)
    assert db.is_healthy()
    incidents = [i for i in harness.ledger.incidents if not i.open]
    assert len(incidents) == 1
    inc = incidents[0]
    assert inc.category is Category.MID_CRASH
    # detection on the cron grid, repair = restart time
    assert inc.duration < 15 * 60.0


def test_latent_hang_cleared_by_restart(site, harness):
    fe = site.frontends[0]
    harness.injector.app_hang(fe)
    site.run(1200.0)
    assert fe.is_healthy()
    assert not harness.open_incidents()


def test_config_corruption_needs_two_wakes(site, harness):
    db = site.databases[1]
    harness.injector.config_corruption(db)
    site.run(2700.0)
    assert db.is_healthy()
    assert db.config_ok


def test_data_corruption_restored_from_backup(site, harness):
    db = site.databases[2]
    harness.injector.data_corruption(db)
    site.run(4000.0)
    assert db.is_healthy()
    assert db.data_ok


def test_runaway_killed_fleetwide(site, harness):
    host = site.databases[0].host
    harness.injector.runaway_process(host)
    site.run(900.0)
    assert not host.ptable.alive("runaway.sh")


def test_disk_fill_cleaned(site, harness):
    host = site.databases[0].host
    harness.injector.disk_fill(host, "/logs", 0.98)
    site.run(900.0)
    assert host.fs.mounts["/logs"].pct_used < 90.0


def test_lsf_crash_restarted(site, harness):
    harness.injector.lsf_crash(site.lsf_master)
    site.run(900.0)
    assert site.lsf.up


def test_cron_death_caught_by_watchdog(site, harness):
    host = site.databases[0].host
    harness.injector.cron_death(host)
    site.run(3 * site.admin.watch_period)
    assert host.crond.running
    assert site.admin.cron_repairs >= 1
    # and agents are flagging again afterwards
    suite = site.suite_for(host.name)
    site.run(600.0)
    from repro.core.flags import FlagStore
    assert FlagStore(host.fs, suite.agents[0].name).latest_time() > 0


def test_hardware_fault_escalated_not_healed(site, harness):
    from repro.cluster.hardware import ComponentKind
    host = site.databases[0].host
    harness.injector.component_failure(host, ComponentKind.DISK)
    site.run(900.0)
    sent = site.notifications.sent
    assert any("cannot fix" in n.subject and "hardware" in n.subject
               for n in sent)


def test_network_fault_reported_not_healed(site, harness):
    """Both public LANs die: application traffic (which must not ride
    the private agent network) fails, the dummy-user service probes
    catch it, nothing auto-repairs it."""
    harness.injector.lan_failure(site.dc.lan("public0"))
    harness.injector.lan_failure(site.dc.lan("public1"))
    site.run(2 * site.admin.SVC_PROBE_PERIOD + 60.0)
    assert not site.dc.lan("public0").up    # nobody "fixed" the network
    assert site.admin.service_probe_failures >= 1
    assert any("failing end-to-end" in n.subject
               for n in site.notifications.sent)


def test_single_public_lan_failure_is_survivable(site, harness):
    """With two public LANs, application traffic survives one failing."""
    harness.injector.lan_failure(site.dc.lan("public0"))
    site.run(2 * site.admin.SVC_PROBE_PERIOD + 60.0)
    assert site.admin.services_unhealthy == set()
    for svc in site.services:
        assert svc.end_to_end_probe()[0]


def test_whole_host_crash_is_escalated_by_admin(site, harness):
    host = site.databases[0].host
    site.run(1200.0)        # past the watchdog warm-up
    host.crash("panic")
    site.run(3 * site.admin.watch_period)
    assert host.name in site.admin.hosts_escalated


def test_detection_within_one_agent_period(site, harness):
    db = site.databases[0]
    harness.injector.db_crash(db)
    site.run(1200.0)
    harness.scan_flags_for_detection()
    inc = [i for i in harness.ledger.incidents if not i.open][0]
    assert inc.detected_at is not None
    assert inc.detection_latency <= site.config.agent_period + 30.0


def test_fault_storm_all_healed(site, harness):
    """Several simultaneous faults across the site."""
    harness.injector.db_crash(site.databases[0])
    harness.injector.app_hang(site.frontends[0])
    harness.injector.runaway_process(site.databases[1].host)
    harness.injector.disk_fill(site.frontends[1].host, "/logs", 0.97)
    site.run(2700.0)
    assert site.databases[0].is_healthy()
    assert site.frontends[0].is_healthy()
    assert not site.databases[1].host.ptable.alive("runaway.sh")
    assert site.frontends[1].host.fs.mounts["/logs"].pct_used < 90.0
    assert not harness.open_incidents()
