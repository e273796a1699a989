"""Unit tests for the experiment drivers (scaled down)."""

import pytest

from repro import parallel
from repro.experiments import fig2, mttr, overhead, report
from repro.experiments.site import SiteConfig, build_site
from repro.faults.campaign import Campaign
from repro.faults.models import Category
from repro.sim import RandomStreams
from repro.sim.calendar import YEAR


def test_report_table_renders():
    txt = report.table(["a", "bb"], [(1, 2.5), ("x", "y")], title="T")
    lines = txt.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert "2.50" in txt


def test_fig2_run_once_pairing():
    """Both pipelines score one fault draw: the streams ``run_once``
    hands :meth:`Campaign.run_pair`, and the hours it reports."""
    rs = RandomStreams(3)
    before, after = Campaign(rs.get("fig2.campaign")).run_pair(
        before_rng=rs.get("fig2.ops.before"),
        after_rng=rs.get("fig2.ops.after"))
    assert len(before.records) == len(after.records)
    assert after.total_hours() < before.total_hours()
    summary = fig2.run_once(seed=3)
    assert summary["before_hours"] == {
        c.value: h for c, h in before.hours_by_category().items()}
    assert summary["after_hours"] == {
        c.value: h for c, h in after.hours_by_category().items()}


def test_fig2_replicated_shape():
    result = fig2.run_replicated(0, replications=3)
    assert result["replications"] == 3
    before, after = result["before_hours"], result["after_hours"]
    assert sum(before.values()) > 5 * sum(after.values())
    # mid-crash dominates the before column (the paper's headline)
    assert before[Category.MID_CRASH.value] == max(before.values())
    txt = fig2.format_result(result)
    assert "Figure 2" in txt and "mid-crash" in txt
    assert txt.splitlines()[-2].lstrip().startswith("TOTAL")


def test_fig2_requires_seeds():
    with pytest.raises(ValueError):
        fig2.run_replicated(0, replications=0)


def test_fig2_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(parallel, "default_workers", lambda: 1)
    serial = fig2.run_replicated(5, replications=2)
    monkeypatch.setattr(parallel, "default_workers", lambda: 2)
    par = fig2.run_replicated(5, replications=2)
    assert par["before_hours"] == serial["before_hours"]
    assert par["after_hours"] == serial["after_hours"]


def test_fig2_detection_summary():
    result = fig2.run_replicated(0, replications=2)
    assert (result["detection_before"]["weekend"]
            > result["detection_before"]["day"])
    assert result["detection_after"]["day"] < 0.2       # hours


def test_overhead_shape():
    r = overhead.run(seed=4)
    assert len(r.bmc_cpu) == overhead.N_SAMPLES
    # agents are an order of magnitude cheaper on both axes
    assert sum(r.bmc_cpu) > 4.0 * sum(r.agent_cpu)
    assert sum(r.bmc_mem) > 10.0 * sum(r.agent_mem)
    # agents' footprint is flat
    assert max(r.agent_mem) == min(r.agent_mem)
    assert "Figure 3" in overhead.format_cpu(r)
    assert "Figure 4" in overhead.format_memory(r)


def test_mttr_claims():
    r = mttr.run(seed=2)
    # the 2 h restart and ~4 h escalation claims, loosely
    assert 1.0 < r.manual_median_repair_h < 5.0
    assert 3.0 < r.manual_escalated_mean_h < 9.0
    assert r.agent_mean_repair_h < r.manual_median_repair_h
    assert "MTTR" in mttr.format_result(r)


def test_site_scales_to_paper_size_cheaply():
    """The full 215-server site must at least build quickly."""
    site = build_site(SiteConfig(db_servers=20, tp_servers=10,
                                 fe_servers=12, with_workload=False))
    assert len(site.dc.hosts) == 20 + 10 + 12 + 3
    assert len(site.databases) == 20
    # every server including the admin pair is agented; only the
    # external gateway is unmanaged
    assert len(site.suites) == 44
    # every non-admin host has the agent complement
    for suite in site.suites.values():
        assert len(suite.agents) >= 5
