"""Unit tests for the name service."""

from repro.net.nameservice import NameService


def test_register_and_lookup(sim, dc):
    ns = NameService(sim)
    ns.register("db01", "192.168.1.10")
    ip, ms = ns.lookup("db01")
    assert ip == "192.168.1.10"
    assert ms == ns.base_response_ms


def test_register_host_records_all_nics(sim, dc):
    ns = NameService(sim)
    ns.register_host(dc.host("db01"))
    ip, _ = ns.lookup("db01.public0")
    assert ip is not None
    ip2, _ = ns.lookup("db01.agentnet")
    assert ip2 is not None and ip2 != ip
    assert ns.lookup("db01")[0] is not None


def test_missing_name_resolves_to_nothing_at_full_speed(sim):
    ns = NameService(sim)
    ip, ms = ns.lookup("ghost")
    assert ip is None
    assert ms == ns.base_response_ms


def test_outage(sim):
    ns = NameService(sim)
    ns.register("a", "1.2.3.4")
    ns.fail()
    assert ns.lookup("a") == (None, 0.0)
    assert ns.response_ms() < 0
    ns.repair()
    assert ns.lookup("a")[0] == "1.2.3.4"


def test_degraded_is_slow_but_answers(sim):
    ns = NameService(sim)
    ns.register("a", "1.2.3.4")
    ns.slow()
    ip, ms = ns.lookup("a")
    assert ip == "1.2.3.4"
    assert ms == 50.0 * ns.base_response_ms
    assert ns.response_ms() > ns.base_response_ms
