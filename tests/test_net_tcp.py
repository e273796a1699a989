"""Unit tests for TCP-style connections."""

from repro.apps.base import AppState
from repro.net.tcp import tcp_connect, find_listener


def test_connect_to_running_database(dc, database, sim):
    res = tcp_connect(dc, "adm01", "db01", database.port)
    assert res.ok
    assert res.app is database
    assert res.latency_ms > 0
    assert res.lan_name == "public0"       # prefers public for app traffic


def test_refused_when_nothing_listens(dc):
    res = tcp_connect(dc, "adm01", "db01", 9999)
    assert not res.ok and res.error == "refused"


def test_unknown_host(dc):
    assert tcp_connect(dc, "adm01", "ghost", 80).error == "unknown-host"


def test_host_down(dc, database):
    dc.host("db01").crash("x")
    res = tcp_connect(dc, "adm01", "db01", database.port)
    assert res.error == "host-down"


def test_unreachable_when_lans_dead(dc, database):
    dc.lan("public0").fail()
    dc.lan("agentnet").fail()
    res = tcp_connect(dc, "adm01", "db01", database.port)
    assert res.error == "unreachable"


def test_fallback_to_other_lan(dc, database):
    dc.lan("public0").fail()
    res = tcp_connect(dc, "adm01", "db01", database.port)
    assert res.ok and res.lan_name == "agentnet"


def test_timeout_when_app_hung(dc, database):
    database.hang()
    res = tcp_connect(dc, "adm01", "db01", database.port)
    assert not res.ok and res.error == "timeout"


def test_refused_when_app_crashed(dc, database):
    database.crash("x")
    res = tcp_connect(dc, "adm01", "db01", database.port)
    assert res.error == "refused"


def test_source_down(dc, database):
    dc.host("adm01").crash("x")
    res = tcp_connect(dc, "adm01", "db01", database.port)
    assert res.error == "source-down"


def test_find_listener(dc, database):
    assert find_listener(dc.host("db01"), database.port) is database
    assert find_listener(dc.host("db01"), 4242) is None
