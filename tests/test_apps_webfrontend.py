"""Unit tests for web servers and front-end applications."""

from repro.apps.frontend import FrontendApp


def test_http_get_200(webserver):
    status, ms = webserver.http_get()
    assert status == 200 and ms > 0
    assert webserver.requests_served == 1
    assert webserver.requests_attempted == 1


def test_http_get_no_answer_when_crashed(webserver):
    webserver.crash("x")
    status, _ = webserver.http_get()
    assert status == 0
    # a failed GET still counts as an attempt: availability SLIs are
    # served/attempted, so the denominator must include failures
    assert webserver.requests_attempted == 1
    assert webserver.requests_served == 0


def test_http_get_times_out_when_hung(webserver):
    webserver.hang()
    status, ms = webserver.http_get()
    assert status == 0 and ms > 0
    assert webserver.requests_attempted == 1


def test_probe_not_overridden(webserver):
    """Regression for the removed pass-through override: WebServer must
    use the Application probe, not shadow it."""
    from repro.apps.base import Application
    from repro.apps.webserver import WebServer
    assert "probe" not in WebServer.__dict__
    assert WebServer.probe is Application.probe


def test_serve_batch_counts_attempts(webserver):
    served, failed, ms = webserver.serve_batch(100)
    assert (served, failed) == (100, 0) and ms > 0
    webserver.crash("x")
    served, failed, _ = webserver.serve_batch(40)
    assert (served, failed) == (0, 40)
    assert webserver.requests_attempted == 140
    assert webserver.requests_served == 100


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
    assert frontend.queries_served == 1


def test_frontend_query_fails_when_backend_dead(frontend, database):
    database.crash("x")
    served, failed, _ = frontend.serve_batch(1)
    assert (served, failed) == (0, 1)
    assert frontend.is_healthy()    # the GUI itself is fine


def test_frontend_query_fails_when_frontend_dead(frontend):
    frontend.crash("x")
    assert frontend.serve_batch(1)[:2] == (0, 1)


def test_frontend_serve_batch_fails_on_dead_backend(frontend, database):
    served, failed, _ = frontend.serve_batch(10)
    assert (served, failed) == (10, 0)
    assert frontend.queries_served == 10
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
