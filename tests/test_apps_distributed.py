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
    assert service.end_to_end_probe()[0]
    assert service.probes_run == 2


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
    ok, _, err = service.end_to_end_probe()
    assert not ok and "link" in err
    assert service.probe_failures >= 1


def test_probe_accumulates_response_time(service, database):
    _, ms_healthy, _ = service.end_to_end_probe()
    database.host.extra_runnable = database.host.effective_cpus() * 12
    _, ms_loaded, _ = service.end_to_end_probe()
    assert ms_loaded > ms_healthy
