"""Unit tests for the datacentre registry."""

import pytest

from repro.net.network import Lan


def test_lookup_and_groups(dc):
    assert dc.host("db01").name == "db01"
    assert [h.name for h in dc.group("admin")] == ["adm01", "adm02"]
    assert len(dc.all_hosts()) == 4
    with pytest.raises(KeyError):
        dc.host("nope")


def test_duplicate_host_rejected(dc):
    with pytest.raises(ValueError):
        dc.add_host("db01", "sun-e450")


def test_duplicate_lan_rejected(dc, sim):
    with pytest.raises(ValueError):
        dc.add_lan(Lan(sim, "public0"))


def test_up_hosts_tracks_state(dc):
    assert len(dc.up_hosts()) == 4
    dc.host("db01").crash("x")
    assert len(dc.up_hosts()) == 3


def test_shared_lans(dc, sim):
    lans = dc.shared_lans("db01", "adm01")
    assert {l.name for l in lans} == {"public0", "agentnet"}
    # a host on no common LAN
    lonely = dc.add_host("lonely", "linux-x86")
    assert dc.shared_lans("db01", "lonely") == []


def test_probe_happy_path(dc):
    ok, rtt = dc.probe("db01", "adm01")
    assert ok and rtt > 0


def test_probe_fails_when_host_down(dc):
    dc.host("adm01").crash("x")
    assert dc.probe("db01", "adm01") == (False, 0.0)


def test_probe_fails_when_all_shared_lans_down(dc):
    dc.lan("public0").fail()
    dc.lan("agentnet").fail()
    assert not dc.probe("db01", "adm01")[0]
    dc.lan("agentnet").repair()
    assert dc.probe("db01", "adm01")[0]


def test_probe_unknown_host(dc):
    assert dc.probe("db01", "ghost") == (False, 0.0)


def test_probe_fails_when_nic_dead(dc):
    nic = dc.lan("public0").nics["db01"]
    nic.fail()
    # agentnet still shared and healthy
    assert dc.probe("db01", "adm01")[0]
    dc.lan("agentnet").nics["db01"].fail()
    assert not dc.probe("db01", "adm01")[0]
