"""The relocation experiment (repro.experiments.relocation) and its
CLI entry."""

import pytest

from repro.cli import main
from repro.experiments import relocation
from repro.sim.calendar import DAY

HORIZON = 45 * DAY


@pytest.mark.usefixtures("short_campaigns")
def test_summary_shape():
    s = relocation.run_once(3, population=100_000)
    assert set(s) == {"population", "horizon_s", "step_s", "replications",
                      "before", "escalate", "relocate", "relocations"}
    assert s["before"]["label"] == "before"
    assert s["escalate"]["label"] == "escalate-only"
    assert s["relocate"]["label"] == "relocate"
    # identical demand curve across all three arms
    assert (s["before"]["attempted_requests"]
            == s["escalate"]["attempted_requests"]
            == s["relocate"]["attempted_requests"])
    assert set(s["relocations"]) == {
        "candidates", "succeeded", "failed", "superseded",
        "hours_saved", "hours_lost_to_rollbacks"}


def test_relocation_improves_user_qos_over_a_year():
    res = relocation.run_once(0, population=100_000)
    assert res["relocations"]["candidates"] > 0
    before, escalate, relocate = (res[arm] for arm in
                                  ("before", "escalate", "relocate"))
    assert (relocate["availability"] > escalate["availability"]
            > before["availability"])
    assert (relocate["user_minutes_lost"] < escalate["user_minutes_lost"]
            < before["user_minutes_lost"])


@pytest.mark.usefixtures("short_campaigns")
def test_replicated_mean_keeps_shape():
    merged = relocation.run_replicated(0, replications=2, population=100_000)
    assert merged["replications"] == 2
    assert merged["relocate"]["availability"] <= 1.0
    assert "candidates" in merged["relocations"]


@pytest.mark.usefixtures("short_campaigns")
def test_format_result_renders():
    merged = relocation.run_replicated(0, replications=1, population=100_000)
    text = relocation.format_result(merged)
    for needle in ("Service relocation", "before", "escalate-only",
                   "relocate", "relocation tier", "relocation on vs off",
                   "availability"):
        assert needle in text


def test_cli_runs_relocation(capsys, tmp_path):
    trace_file = tmp_path / "relocation.json"
    assert main(["relocation", "--replications", "1",
                 "--population", "100000",
                 "--trace", str(trace_file), "--timeline"]) == 0
    out = capsys.readouterr().out
    assert "relocation on vs off" in out
    assert "relocate.plan" in out           # the timeline shows phases
    assert trace_file.exists()
