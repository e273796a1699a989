"""Unit tests for distributed services."""

import pytest

from repro.apps.distributed import DistributedService


@pytest.fixture
def service(dc, database, webserver, frontend):
    svc = DistributedService(dc, "analytics")
    svc.add_component("db", database, [])
    svc.add_component("web", webserver, ["db"])
    svc.add_component("gui", frontend, ["web", "db"])
    return svc


def test_startup_order_is_topological(service):
    order = service.startup_order()
    assert order.index("db") < order.index("web") < order.index("gui")


def test_cycle_detected(dc, database, webserver):
    svc = DistributedService(dc, "loop")
    svc.add_component("a", database, ["b"])
    svc.add_component("b", webserver, ["a"])
    with pytest.raises(ValueError):
        svc.startup_order()


def test_unknown_dependency(dc, database):
    svc = DistributedService(dc, "bad")
    svc.add_component("a", database, ["ghost"])
    with pytest.raises(KeyError):
        svc.startup_order()


def test_duplicate_component_rejected(dc, database):
    svc = DistributedService(dc, "dup")
    svc.add_component("a", database, [])
    with pytest.raises(ValueError):
        svc.add_component("a", database, [])


def test_healthy_end_to_end(service):
    ok, ms, err = service.end_to_end_probe()
    assert ok and err == "" and ms > 0
    # the dummy user walks again and finds the same (the probe's own
    # traffic only nudges the LAN latency)
    again, again_ms, again_err = service.end_to_end_probe()
    assert again and again_err == "" and again_ms == pytest.approx(ms)


def test_one_dead_component_kills_the_service(service, webserver):
    webserver.crash("x")
    ok, _, err = service.end_to_end_probe()
    assert not ok
    assert "web" in err


def test_hung_component_detected(service, database):
    database.hang()
    ok, _, err = service.end_to_end_probe()
    assert not ok and "db" in err


def test_network_leg_failure_detected(service, dc):
    # db and gui live on different hosts: kill both shared LANs
    dc.lan("public0").fail()
    dc.lan("agentnet").fail()
    ok, ms, err = service.end_to_end_probe()
    assert not ok and "link" in err
    # every probe reports the outage, not only the first
    assert service.end_to_end_probe() == (ok, ms, err)


def test_probe_accumulates_response_time(service, database):
    _, ms_healthy, _ = service.end_to_end_probe()
    database.host.extra_runnable = database.host.effective_cpus() * 12
    _, ms_loaded, _ = service.end_to_end_probe()
    assert ms_loaded > ms_healthy
