"""The incident-report workflow end to end: one observed fault storm,
then the acceptance claims -- accounting reconciles exactly and
burn-rate pages beat the cron grid."""

import json

import pytest

from repro.experiments import incidents
from repro.observe.incidents import render_markdown_all


@pytest.fixture(scope="module")
def result():
    return incidents.run(seed=0)


def test_every_injected_fault_gets_a_report(result):
    fids = {rep.fault_id for rep in result.reports}
    assert {"F0001", "F0002", "F0003"} <= fids
    for rep in result.reports:
        assert rep.injected_at is not None
        assert rep.detected_at is not None
        assert rep.resolved_by != "unresolved"
        stamps = [t for t, _ in rep.timeline]
        assert stamps == sorted(stamps)


def test_downtime_reconciles_exactly_with_the_ledger(result):
    recon = result.reconciliation
    assert recon["downtime_ok"], recon
    assert recon["downtime_reports_h"] == pytest.approx(
        recon["downtime_ledger_h"], abs=1e-6)
    assert recon["downtime_ledger_h"] > 0.0


def test_user_minutes_reconcile_with_the_slo_join(result):
    recon = result.reconciliation
    assert recon["user_minutes_ok"], recon
    assert recon["user_minutes_reports"] == pytest.approx(
        recon["user_minutes_joined"], rel=1e-9)
    assert recon["user_minutes_reports"] > 0.0


def test_burn_rate_pages_beat_the_cron_grid(result):
    assert result.pages_sent >= 1
    assert result.alert_latency, "no alert was attributed to a fault"
    assert result.alerts_beat_cron
    for fid, lat in result.alert_latency.items():
        assert 0.0 <= lat < result.detection_bound, (fid, lat)


def test_detection_latency_accessor(result):
    # latency is the earliest of agent detection and the first page
    for rep in result.reports:
        if rep.fault_id in result.alert_latency:
            assert rep.detection_latency is not None
            assert rep.detection_latency <= result.alert_latency[
                rep.fault_id] + 1e-9


def test_json_and_markdown_artifacts(result):
    doc = result.to_json()
    assert doc["run"]["alerts_beat_cron"] is True
    assert len(doc["incidents"]) == len(result.reports)
    json.dumps(doc)                     # fully serialisable

    assert doc["reconciliation"]["downtime_ok"] is True

    md = result.to_markdown()
    assert "## Incident F0001" in md
    assert "alerts beat it: True" in md
    assert render_markdown_all(result.reports, result.reconciliation) in md


def test_console_board_carries_the_alert_pane(result):
    assert "-- alerts:" in result.board
    assert f"{result.pages_sent} page(s) sent" in result.board


def test_format_result_renders(result):
    text = incidents.format_result(result)
    assert "reconciliation" in text and "[OK]" in text
    assert "MISMATCH" not in text


def test_a_relocated_front_end_takes_the_observed_doors_demand(monkeypatch):
    """The observed site keeps a spare, so a front end whose host dies
    is relocated.  Its front door must then route to the replacement,
    not keep the dead instance in its server set."""
    built, doors = [], []
    build_site, doors_for_site = incidents.build_site, incidents.doors_for_site

    def build_and_doom(config):
        site = build_site(config)
        # after the storm's last fault, with the settle hours to recover
        site.sim.schedule(13_200.0 - site.sim.now,
                          site.dc.host("fe000").crash, "power supply")
        built.append(site)
        return site

    monkeypatch.setattr(incidents, "build_site", build_and_doom)
    monkeypatch.setattr(incidents, "doors_for_site",
                        lambda site: doors.append(doors_for_site(site))
                        or doors[-1])
    incidents.run(seed=0, population=100_000)

    site, door = built[0], doors[0]["frontend"]
    moved = [r for r in site.relocator.records
             if r.subject == "fe000/finapp_fe000"]
    assert len(moved) == 1 and moved[0].success, moved
    old = site.dc.host("fe000").apps["finapp_fe000"]
    new = [app for app in door.apps if app.host.name == moved[0].target_host]
    assert old not in door.apps and len(new) == 1
    alloc, shed = door.route(1000, site.sim.now)
    assert shed == 0 and dict(alloc).get(new[0], 0) > 0, alloc
