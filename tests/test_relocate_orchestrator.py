"""Live orchestrator tests: a test-scale site with spares, driven
through crash -> escalate -> relocate end to end."""

import pytest

from repro.experiments.site import SiteConfig, build_site
from repro.relocate import service_alias
from repro.trace import install_tracer
from repro.traffic.frontdoor import FrontDoor


@pytest.fixture
def site():
    return build_site(SiteConfig.test_scale(
        seed=11, spare_servers=1, with_workload=False))


def _sms(site):
    return [n for n in site.notifications.sent if n.medium == "sms"]


def test_site_wires_relocation_tier(site):
    assert site.spares is not None and site.relocator is not None
    assert site.admin.relocator is site.relocator
    assert site.spares.available() == ["sp000"]
    # the spare's idle slots stay cold and unmonitored
    for app in site.dc.host("sp000").apps.values():
        assert app.state.value == "stopped" and not app.auto_start


def test_crashed_host_relocates_instead_of_paging(site):
    tracer = install_tracer(site.sim)
    site.run(1200.0)                      # past the watchdog warm-up
    victim = site.dc.host("fe000")
    door = FrontDoor("frontend", site.frontends)
    site.reroute.register_door(door)
    old_fe = victim.apps["finapp_fe000"]

    victim.crash("power supply")
    site.run(3 * site.admin.watch_period)

    rel = site.relocator
    assert rel.succeeded == 2 and rel.failed == 0
    by_subject = {r.subject: r for r in rel.records}
    fin = by_subject["fe000/finapp_fe000"]
    web = by_subject["fe000/httpd_fe000"]
    assert fin.success and web.success
    # sorted order: finapp claims the spare (cold), httpd finds the
    # spare taken and warm-takes-over onto the surviving peer
    assert fin.cold and fin.target_host == "sp000"
    assert not web.cold and web.target_host == "fe001"
    assert fin.duration is not None and fin.duration <= rel.budget
    assert site.spares.claims["sp000"] == "fe000/finapp_fe000"

    # escalation stopped at the relocation tier: nobody was paged
    assert _sms(site) == []
    log = site.pool.fs.read("/admin/actions.log")
    assert any("RELOCATING fe000" in line for line in log)

    # every phase left a span on the record
    for name in ("relocate.plan", "relocate.drain", "relocate.start",
                 "relocate.verify"):
        subjects = {s.attrs.get("subject") for s in tracer.spans_named(name)}
        assert {"fe000/finapp_fe000", "fe000/httpd_fe000"} <= subjects
    done = [i for i in tracer.instants if i["name"] == "relocate.done"]
    assert len(done) == 2

    # the front door followed the service: old instance out, new one
    # in and not flagged down
    assert old_fe not in door.apps
    new_fe = site.dc.host("sp000").apps["finapp_sp000"]
    assert new_fe in door.apps and new_fe.is_running()
    assert "sp000" not in door._down
    # ... and so did the name service
    ip, _ = site.nameservice.lookup(service_alias("finapp_fe000"))
    assert ip in {n.ip for n in site.dc.host("sp000").nics.values()}


def test_no_placement_rolls_back_and_pages(site):
    site.run(1200.0)
    # kill the spare and every frontend peer in one blast: nothing
    # satisfies the constraints, so the relocation tier must fall
    # through to the pager
    for name in ("sp000", "fe001", "fe000"):
        site.dc.host(name).crash("blast")
    site.run(3 * site.admin.watch_period)

    rel = site.relocator
    assert rel.succeeded == 0 and rel.failed >= 2
    assert all(not r.success and "no feasible placement" in r.reason
               for r in rel.records)
    assert site.spares.claims == {}
    pages = _sms(site)
    assert pages and any("fe000" in n.subject for n in pages)
    log = site.pool.fs.read("/admin/actions.log")
    assert any("ESCALATED" in line for line in log)


def test_relocation_budget_blows_to_rollback(site):
    site.run(1200.0)
    rel = site.relocator
    rel.budget = 120.0                    # far below a cold start
    victim = site.dc.host("fe000")
    # poison the spare's only frontend slot *and* the peer's: every
    # start/verify stalls until the budget burns
    site.dc.host("sp000").apps["finapp_sp000"].config_ok = False
    site.dc.host("fe001").apps["finapp_fe001"].config_ok = False

    victim.crash("power supply")
    site.run(3 * site.admin.watch_period)

    fin = next(r for r in rel.records
               if r.subject == "fe000/finapp_fe000")
    assert not fin.success
    assert fin.duration is not None and fin.duration >= rel.budget - 60.0
    # the claimed spare went back to the pool on rollback
    assert "sp000" not in site.spares.claims
    assert any("fe000" in n.subject for n in _sms(site))


def test_inflight_relocation_is_not_restarted(site):
    site.run(1200.0)
    app = site.dc.host("fe000").apps["finapp_fe000"]
    assert site.relocator.relocate(app, "test") is not None
    assert site.relocator.relocate(app, "test") is None
    assert len(site.relocator.records) == 1
