"""Unit tests for the site builder's wiring."""

import pytest

from repro.experiments.site import SiteConfig, build_site


@pytest.fixture(scope="module")
def site():
    return build_site(SiteConfig.test_scale(seed=71))


def test_fleet_composition(site):
    cfg = site.config
    assert len(site.dc.group("db")) == cfg.db_servers
    assert len(site.dc.group("tp")) == cfg.tp_servers
    assert len(site.dc.group("frontend")) == cfg.fe_servers
    assert len(site.dc.group("admin")) == 2
    assert len(site.dc.group("external")) == 1


def test_database_mix_oracle_and_sybase(site):
    types = {db.db_type for db in site.databases}
    assert types == {"oracle", "sybase"}


def test_every_host_on_both_public_lans_and_agentnet(site):
    for host in site.dc.all_hosts():
        lans = {nic.lan.name for nic in host.nics.values()}
        assert lans == {"public0", "public1", "agentnet"}, host.name


def test_everything_running_after_build(site):
    for db in site.databases:
        assert db.is_healthy()
    for fe in site.frontends:
        assert fe.is_healthy()
    assert site.lsf.up
    for svc in site.services:
        assert svc.end_to_end_probe()[0]


def test_all_databases_registered_with_lsf(site):
    assert set(site.lsf.servers) == set(site.databases)


def test_nameservice_knows_every_host(site):
    for name in site.dc.hosts:
        ip, _ = site.nameservice.lookup(name)
        assert ip is not None, name


def test_admin_pair_serves_the_pool(site):
    assert {h.name for h in site.pool.servers} == {"adm01", "adm02"}


def test_services_registered_for_end_to_end_probes(site):
    assert site.admin is not None
    assert len(site.admin.services) == len(site.services) >= 1


def test_frontends_depend_on_databases(site):
    for fe in site.frontends:
        assert fe.backend in site.databases


def test_paper_scale_config_defaults():
    cfg = SiteConfig()
    assert (cfg.db_servers, cfg.tp_servers, cfg.fe_servers) == (100, 55, 60)
    assert cfg.agent_period == 300.0


def test_suites_cover_all_internal_hosts(site):
    unmanaged = set(site.dc.groups["external"])
    managed = set(site.dc.hosts) - unmanaged
    assert set(site.suites) == managed
