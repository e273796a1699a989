"""Unit tests for web servers and front-end applications."""

import pytest

from repro.apps.frontend import FrontendApp


def test_http_get_200(webserver):
    status, ms = webserver.http_get()
    assert status == 200 and ms > 0
    # a served GET costs what the health probe measures
    assert ms == webserver.probe()[1]


def test_http_get_no_answer_when_crashed(webserver):
    webserver.crash("x")
    status, ms = webserver.http_get()
    # no TCP-level answer: refused at once
    assert (status, ms) == (0, 0.0)


def test_http_get_times_out_when_hung(webserver):
    webserver.hang()
    status, ms = webserver.http_get()
    assert status == 0 and ms > 0
    # the client waited out the whole connect timeout
    assert ms == webserver.connect_timeout_ms


def test_probe_not_overridden(webserver):
    """Regression for the removed pass-through override: WebServer must
    use the Application probe, not shadow it."""
    from repro.apps.base import Application
    from repro.apps.webserver import WebServer
    assert "probe" not in WebServer.__dict__
    assert WebServer.probe is Application.probe


def test_serve_batch_counts_attempts(webserver):
    first = webserver.serve_batch(100)
    assert first[:2] == (100, 0) and first[2] > 0
    webserver.crash("x")
    second = webserver.serve_batch(40)
    assert second[:2] == (0, 40)
    # every request comes back served or failed: 140 attempted, 100
    # served -- the SLIs' numerator and denominator
    assert sum(b[0] + b[1] for b in (first, second)) == 140
    assert first[0] + second[0] == 100


def test_frontend_login_logout(frontend):
    assert frontend.login("analyst1")
    assert frontend.sessions == 1
    assert "analyst1" in frontend.host.logged_in_users
    frontend.logout("analyst1")
    assert frontend.sessions == 0
    assert "analyst1" not in frontend.host.logged_in_users


def test_frontend_query_roundtrips_to_backend(frontend, database):
    served, failed, ms = frontend.serve_batch(1)
    assert (served, failed) == (1, 0)
    # the query cost includes the backend's time
    fe_only = frontend.probe()[1]
    assert ms > fe_only
    # and is exactly the two probes: the GUI's and the database's
    assert ms == pytest.approx(fe_only + database.probe()[1])


def test_frontend_query_fails_when_backend_dead(frontend, database):
    database.crash("x")
    served, failed, _ = frontend.serve_batch(1)
    assert (served, failed) == (0, 1)
    assert frontend.is_healthy()    # the GUI itself is fine


def test_frontend_query_fails_when_frontend_dead(frontend):
    frontend.crash("x")
    assert frontend.serve_batch(1)[:2] == (0, 1)


def test_frontend_serve_batch_fails_on_dead_backend(frontend, database):
    served, failed, ms = frontend.serve_batch(10)
    assert (served, failed) == (10, 0)
    # a batch costs one round trip, not one per query
    assert frontend.serve_batch(1) == (1, 0, ms)
    database.crash("x")
    served, failed, _ = frontend.serve_batch(5)
    assert (served, failed) == (0, 5)    # GUI up, backend dead


def test_frontend_declares_dependency(frontend, database):
    assert (database.host.name, database.name) in frontend.depends_on


def test_standalone_frontend(dc, sim):
    fe = FrontendApp(dc.host("adm01"), "lonely")
    fe.start()
    sim.run(until=sim.now + fe.startup_duration() + 1)
    assert fe.serve_batch(1)[:2] == (1, 0)
