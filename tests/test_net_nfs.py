"""Unit tests for the NFS shared pool."""

import pytest

from repro.cluster.filesystem import FsOfflineError
from repro.net.nfs import SharedPool


@pytest.fixture
def ha_pool(sim, dc, pool):
    pool.add_server(dc.host("adm01"))
    pool.add_server(dc.host("adm02"))
    return pool


def test_write_read_through_pool(dc, ha_pool):
    client = dc.host("db01")
    ha_pool.write(client, "/x", ["hello"])
    ha_pool.append(client, "/x", "world")
    assert ha_pool.fs.read("/x") == ["hello", "world"]
    assert client.nfs_calls == 2
    assert ha_pool.calls == 2


def test_survives_one_head_down(dc, ha_pool):
    dc.host("adm01").crash("x")
    client = dc.host("db01")
    ha_pool.write(client, "/x", ["still here"])
    assert ha_pool.available()


def test_fails_when_both_heads_down(dc, ha_pool):
    dc.host("adm01").crash("x")
    dc.host("adm02").crash("x")
    client = dc.host("db01")
    with pytest.raises(FsOfflineError):
        ha_pool.write(client, "/x", ["no"])
    assert client.nfs_retrans == 1
    assert ha_pool.failed_calls == 1


def test_recovers_after_boot(sim, dc, ha_pool):
    dc.host("adm01").crash("x")
    dc.host("adm02").crash("x")
    dc.host("adm01").boot()
    sim.run(until=sim.now + dc.host("adm01").boot_duration + 5)
    ha_pool.write(dc.host("db01"), "/x", ["back"])
    assert ha_pool.fs.read("/x") == ["back"]


def test_pool_without_servers_is_local(sim):
    pool = SharedPool(sim)
    pool.write(None, "/x", ["standalone"])
    assert pool.fs.read("/x") == ["standalone"]
