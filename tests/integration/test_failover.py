"""Integration tests for the HA and network-failover stories."""

import pytest

from repro.experiments.site import SiteConfig, build_site


@pytest.fixture
def site():
    return build_site(SiteConfig.test_scale(seed=13, with_feeds=False,
                                            with_workload=False))


def test_agent_traffic_reroutes_on_private_lan_failure(site):
    site.run(3600.0)
    stats0 = site.channel.stats()
    assert stats0["rerouted"] == 0
    assert stats0["delivered"] > 0
    site.dc.lan("agentnet").fail()
    site.run(3600.0)
    stats1 = site.channel.stats()
    # traffic kept flowing, over the public LANs
    assert stats1["delivered"] > stats0["delivered"]
    assert stats1["rerouted"] > 0
    assert stats1["bytes_public"] > stats0["bytes_public"]
    # ... and healing still works over the rerouted channel
    db = site.databases[0]
    db.crash("while agent net is down")
    site.run(1200.0)
    assert db.is_healthy()


def test_reroute_back_after_repair(site):
    site.dc.lan("agentnet").fail()
    site.run(1800.0)
    rerouted_during = site.channel.stats()["rerouted"]
    assert rerouted_during > 0
    site.dc.lan("agentnet").repair()
    site.run(1800.0)
    stats = site.channel.stats()
    # no *new* reroutes after repair
    assert stats["rerouted"] == rerouted_during or (
        stats["rerouted"] - rerouted_during
        < (stats["delivered"] - rerouted_during) * 0.1)


def test_admin_failover_keeps_monitoring(site):
    site.run(1200.0)
    primary = site.admin.primary
    primary.crash("power supply")
    site.run(2 * site.admin.DGSPL_PERIOD + 120.0)
    assert site.admin.active() is site.admin.standby
    # DGSPLs keep coming from the standby
    assert site.admin.dgspl is not None
    assert site.admin.dgspl.generated_at > primary.sim.now - 2000.0
    # healing continues under the standby
    db = site.databases[0]
    db.crash("x")
    site.run(1200.0)
    assert db.is_healthy()


def test_nfs_pool_survives_one_head(site):
    site.run(1200.0)
    site.admin.primary.crash("x")
    site.run(site.admin.DGSPL_PERIOD + 120.0)
    assert site.pool.available()
    # the standby still writes the pool
    assert site.pool.fs.read("/dgspl/all")


def test_admin_pair_total_loss_then_recovery(site):
    site.run(1200.0)
    site.admin.primary.crash("x")
    site.admin.standby.crash("x")
    db = site.databases[0]
    # local agents still heal locally (the decentralised design point)
    db.crash("while coordinators are down")
    site.run(1200.0)
    assert db.is_healthy()
    # coordinators come back and resume
    site.admin.primary.boot()
    site.run(site.admin.primary.boot_duration + site.admin.DGSPL_PERIOD + 60)
    assert site.admin.active() is site.admin.primary
