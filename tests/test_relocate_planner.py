"""Unit tests for the constraint-based placement planner."""

import pytest

from repro.apps.frontend import FrontendApp
from repro.ontology.dgspl import Dgspl, GlobalServiceEntry
from repro.ontology.slkt import app_template_of
from repro.relocate import PlacementPlanner, SparePool


@pytest.fixture
def spares(dc, database):
    pool = SparePool(dc)
    host = dc.add_host("sp01", "sun-e10k", group="spare")
    FrontendApp(host, "finapp_sp01", backend=database, auto_start=False)
    pool.register(host)
    return pool


@pytest.fixture
def planner(dc, spares):
    return PlacementPlanner(dc, spares)


@pytest.fixture
def template(frontend):
    """The failed service: finapp01 on fe01, depending on db01/ora01."""
    return app_template_of(frontend)


def _peer_entry(app):
    host = app.host
    return GlobalServiceEntry(
        server=host.name, server_type=host.spec.model, os="solaris",
        ram_mb=host.spec.ram_mb, cpus=host.spec.cpus, app_name=app.name,
        app_type=app.app_type, app_version=app.version,
        current_load=host.load_average(), users=0,
        location="rack1", site="dc1")


def test_cold_start_on_spare(planner, template):
    plan = planner.plan(template, "fe01")
    assert plan is not None and plan.cold
    assert plan.target_host == "sp01"
    assert plan.target_app == "finapp_sp01"
    assert plan.shortlist == ["sp01"]
    assert plan.source_host == "fe01"
    assert planner.plans_made == 1


def test_never_places_onto_the_source(planner, spares, dc, frontend,
                                      template):
    """Even if the source host advertises a matching slot, anti-affinity
    with the failure excludes it."""
    spares.register(dc.host("fe01"))    # fe01 now *also* looks like a spare
    plan = planner.plan(template, "fe01")
    assert plan.target_host == "sp01"
    assert "anti-affinity" in plan.rejections["fe01"]


def test_anti_affinity_with_incident_hosts(planner, template):
    assert planner.plan(template, "fe01", failed_hosts=["sp01"]) is None
    assert planner.plans_failed == 1


def test_down_spare_rejected(planner, dc, template):
    dc.host("sp01").crash("power")
    assert planner.plan(template, "fe01") is None


def test_offline_filesystem_rejected(planner, dc, spares, database,
                                     template):
    """With a second spare carrying a broken /apps mount the plan still
    lands on the good one and the rejection reason is recorded."""
    host = dc.add_host("sp02", "sun-e10k", group="spare")
    FrontendApp(host, "finapp_sp02", backend=database, auto_start=False)
    spares.register(host)
    host.fs.mounts["/apps"].online = False
    plan = planner.plan(template, "fe01")
    assert plan.target_host == "sp01"
    assert "filesystem /apps" in plan.rejections["sp02"]


def test_unhealthy_dependency_rejected(planner, database, template):
    database.crash("ora down")
    assert planner.plan(template, "fe01") is None


def test_no_cpu_headroom_rejected(planner, dc, template):
    host = dc.host("sp01")
    host.load_average = lambda: 0.9 * host.spec.max_load
    assert planner.plan(template, "fe01") is None


def test_no_memory_headroom_rejected(planner, dc, template):
    dc.host("sp01").memory_free_mb = lambda: 1.0
    assert planner.plan(template, "fe01") is None


def test_version_mismatch_finds_no_slot(planner, dc, database):
    odd = FrontendApp(dc.host("fe01"), "finapp_v2", backend=database)
    odd.version = "2.0"
    assert planner.plan(app_template_of(odd), "fe01") is None


def test_warm_takeover_from_dgspl(dc, spares, database, frontend, template):
    peer = dc.add_host("fe02", "ibm-sp2", group="frontend")
    peer_app = FrontendApp(peer, "finapp_fe02", backend=database)
    peer_app.start()
    dc.sim.run(until=dc.sim.now + 120.0)
    dgspl = Dgspl(generated_at=dc.sim.now)
    dgspl.add(_peer_entry(peer_app))
    planner = PlacementPlanner(dc, spares, lambda: dgspl)

    plan = planner.plan(template, "fe01")
    # the idle spare wins (no load), the healthy peer is the runner-up
    assert plan.target_host == "sp01" and plan.cold
    assert plan.shortlist == ["sp01", "fe02"]

    dc.host("sp01").crash("power")
    plan = planner.plan(template, "fe01")
    assert plan.target_host == "fe02" and not plan.cold
    assert plan.target_app == "finapp_fe02"


def test_stale_dgspl_is_ignored(dc, spares, database, template):
    peer = dc.add_host("fe02", "ibm-sp2", group="frontend")
    peer_app = FrontendApp(peer, "finapp_fe02", backend=database)
    peer_app.start()
    stale = Dgspl(generated_at=dc.sim.now - 3600.0)
    stale.add(_peer_entry(peer_app))
    planner = PlacementPlanner(dc, SparePool(dc), lambda: stale)
    assert planner.plan(template, "fe01") is None


def test_plan_is_deterministic(planner, template):
    a = planner.plan(template, "fe01")
    b = planner.plan(template, "fe01")
    assert (a.target_host, a.target_app, a.cold, a.shortlist) == \
           (b.target_host, b.target_app, b.cold, b.shortlist)
