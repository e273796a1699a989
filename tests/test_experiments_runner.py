"""Unit tests for the full-fidelity harness bookkeeping."""

import pytest

from repro.experiments.runner import FidelityHarness
from repro.experiments.site import SiteConfig, build_site
from repro.faults.models import Category


@pytest.fixture
def rig():
    site = build_site(SiteConfig.test_scale(seed=53, with_feeds=False,
                                            with_workload=False))
    return site, FidelityHarness(site)


def test_incident_opens_on_crash_and_closes_on_recovery(rig):
    site, harness = rig
    db = site.databases[0]
    t0 = site.sim.now
    db.crash("x")
    assert len(harness.open_incidents()) == 1
    inc = harness.open_incidents()[0]
    assert inc.category is Category.MID_CRASH
    assert inc.target == f"{db.host.name}/{db.name}"
    assert inc.start == t0
    site.run(1200.0)
    assert harness.open_incidents() == []
    assert [i for i in harness.ledger.incidents if not i.open][0].duration > 0


def test_hang_opens_incident_too(rig):
    site, harness = rig
    fe = site.frontends[0]
    fe.hang()
    assert len(harness.open_incidents()) == 1
    site.run(1200.0)
    assert harness.open_incidents() == []


def test_repeated_state_flaps_stay_one_incident(rig):
    site, harness = rig
    db = site.databases[0]
    db.crash("x")
    db.crash("x again")     # no state change: still one incident
    assert len(harness.ledger.incidents) == 1


def test_categories_follow_app_type(rig):
    site, harness = rig
    site.frontends[0].crash("x")
    site.lsf_master.crash("x")
    cats = {i.category for i in harness.open_incidents()}
    assert Category.FRONT_END in cats
    assert Category.LSF in cats
    site.run(1500.0)


def test_flag_scan_stamps_detection(rig):
    site, harness = rig
    db = site.databases[1]
    db.crash("x")
    site.run(1200.0)
    harness.scan_flags_for_detection()
    inc = [i for i in harness.ledger.incidents if not i.open][-1]
    assert inc.detected_at is not None
    # adaptive wakes can detect at the crash instant (trigger-driven
    # demand wake), so zero latency is legitimate
    assert 0 <= inc.detection_latency <= site.config.agent_period + 30


def test_run_hours_advances_clock(rig):
    site, harness = rig
    t0 = site.sim.now
    harness.run_hours(2.0)
    assert site.sim.now == t0 + 7200.0


def test_host_crash_opens_incidents_for_its_apps(rig):
    site, harness = rig
    host = site.databases[0].host
    host.crash("panic")
    targets = [i.target for i in harness.open_incidents()]
    assert f"{host.name}/{site.databases[0].name}" in targets
    # host comes back, rc starts apps, incidents close
    host.boot()
    site.run(host.boot_duration
             + site.databases[0].startup_duration() + 120.0)
    assert harness.open_incidents() == []
