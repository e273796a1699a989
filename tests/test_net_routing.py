"""Unit tests for the agent channel's private->public failover."""

import pytest

from repro.net.routing import AgentChannel


@pytest.fixture
def ch(dc):
    return AgentChannel(dc, "agentnet", ["public0"])


def test_prefers_private(ch):
    d = ch.send("db01", "adm01")
    assert d.ok and d.lan_kind == "private" and not d.rerouted


def test_reroutes_over_public_on_private_failure(dc, ch):
    dc.lan("agentnet").fail()
    d = ch.send("db01", "adm01")
    assert d.ok and d.lan_kind == "public" and d.rerouted
    stats = ch.stats()
    assert stats["rerouted"] == 1
    assert stats["bytes_public"] > 0


def test_reroutes_on_private_nic_failure(dc, ch):
    dc.lan("agentnet").nics["db01"].fail()
    d = ch.send("db01", "adm01")
    assert d.ok and d.rerouted


def test_fails_when_everything_down(dc, ch):
    dc.lan("agentnet").fail()
    dc.lan("public0").fail()
    d = ch.send("db01", "adm01")
    assert not d.ok and d.error == "unreachable"
    assert ch.stats()["failed"] == 1


def test_host_down_delivery_fails(dc, ch):
    dc.host("adm01").crash("x")
    assert ch.send("db01", "adm01").error == "host-down"


def test_unknown_host(ch):
    assert ch.send("db01", "ghost").error == "unknown-host"


def test_delivery_rate(dc, ch):
    ch.send("db01", "adm01")
    dc.lan("agentnet").fail()
    dc.lan("public0").fail()
    ch.send("db01", "adm01")
    assert ch.stats()["delivery_rate"] == 0.5


def test_bytes_accounting_by_lan(dc, ch):
    ch.send("db01", "adm01", 1000)
    dc.lan("agentnet").fail()
    ch.send("db01", "adm01", 2000)
    stats = ch.stats()
    assert stats["bytes_private"] == 1000
    assert stats["bytes_public"] == 2000
