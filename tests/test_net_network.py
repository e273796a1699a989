"""Unit tests for LANs and NICs."""

import pytest

from repro.net.network import Lan


def test_attach_assigns_ip_and_ifname(dc):
    host = dc.host("db01")
    nics = list(host.nics.values())
    assert len(nics) == 2
    subnets = {n.ip.rsplit(".", 1)[0] for n in nics}
    assert subnets == {"192.168.1", "10.0.0"}


def test_double_attach_rejected(dc):
    with pytest.raises(ValueError):
        dc.connect("db01", "public0")


def test_send_updates_counters(dc):
    lan = dc.lan("public0")
    src, dst = dc.host("db01"), dc.host("adm01")
    ok, latency = lan.send(src, dst, 14600)
    assert ok and latency > 0
    nsrc, ndst = lan.nics[src.name], lan.nics[dst.name]
    assert nsrc.packets_out == 10    # 14600 / 1460
    assert ndst.packets_in == 10
    assert nsrc.bytes_out == 14600
    assert lan.total_messages == 1


def test_send_fails_on_lan_down(dc):
    lan = dc.lan("public0")
    lan.fail()
    ok, _ = lan.send(dc.host("db01"), dc.host("adm01"), 100)
    assert not ok
    assert lan.nics["db01"].errors_out == 1
    lan.repair()
    assert lan.send(dc.host("db01"), dc.host("adm01"), 100)[0]


def test_send_fails_on_dead_nic(dc):
    lan = dc.lan("public0")
    lan.nics["adm01"].fail()
    assert not lan.send(dc.host("db01"), dc.host("adm01"), 100)[0]


def test_utilization_rises_with_traffic_and_decays(sim, dc):
    lan = dc.lan("public0")
    assert lan.utilization() == 0.0
    src, dst = dc.host("db01"), dc.host("adm01")
    for _ in range(50):
        lan.send(src, dst, 10**6)
    assert lan.utilization() > 0.0
    busy_latency = lan.latency_ms()
    assert busy_latency > lan.base_latency_ms
    # after the window passes, the utilisation resets
    sim.run(until=sim.now + Lan.UTIL_WINDOW + 1)
    assert lan.utilization() == 0.0


def test_path_ok_requires_membership(dc, sim):
    lan = dc.lan("public0")
    outsider = dc.add_host("outsider", "linux-x86")
    assert not lan.path_ok(dc.host("db01"), outsider)[0]


def test_collisions_on_saturated_segment(sim, dc):
    lan = dc.lan("public0")
    src, dst = dc.host("db01"), dc.host("adm01")
    # saturate: ~100 Mb/s over the window
    for _ in range(200):
        lan.send(src, dst, 4 * 10**6)
    assert lan.nics[src.name].collisions > 0
