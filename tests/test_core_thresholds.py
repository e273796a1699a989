"""Unit tests for baselines and thresholds."""

import pytest

from repro.core.thresholds import Baselines


def test_check_detects_high_and_low():
    b = Baselines()
    b.set_band("run_queue", None, 10.0)
    b.set_band("free_mb", 100.0, None)
    breaches = b.check({"run_queue": 15.0, "free_mb": 50.0,
                        "unknown_metric": 1e9})
    kinds = {(x.metric, x.direction) for x in breaches}
    assert kinds == {("run_queue", "high"), ("free_mb", "low")}
    breach = [x for x in breaches if x.metric == "run_queue"][0]
    assert breach.limit == 10.0 and breach.value == 15.0


def test_in_band_is_clean():
    b = Baselines()
    b.set_band("x", 0.0, 10.0)
    assert b.check({"x": 5.0}) == []
    assert b.check({"x": 10.0}) == []      # inclusive


def test_adjust_on_evidence_widens_high_side():
    b = Baselines()
    b.set_band("x", None, 10.0)
    b.adjust("x", observed=14.0)
    assert b.bands["x"].hi == pytest.approx(14.0 * 1.2)
    assert b.bands["x"].adjustments == 1
    assert b.check({"x": 14.0}) == []


def test_adjust_on_evidence_widens_low_side():
    b = Baselines()
    b.set_band("x", 100.0, None)
    b.adjust("x", observed=60.0)
    assert b.bands["x"].lo == pytest.approx(60.0 * 0.8)


def test_adjust_ignores_in_band_and_unknown():
    b = Baselines()
    b.set_band("x", None, 10.0)
    b.adjust("x", observed=5.0)
    assert b.bands["x"].hi == 10.0
    b.adjust("nonexistent", observed=1.0)       # no crash


def test_for_host_seeds_from_spec(database):
    b = Baselines.for_host(database.host)
    spec = database.host.spec
    assert b.bands["run_queue"].hi == spec.max_load * spec.cpus
    assert b.bands["free_mb"].lo == pytest.approx(spec.ram_mb * 0.05)
    assert b.bands["fs_logs_pct"].hi == 90.0
    # developer-provided timeouts seed the app response band (§3.2)
    band = b.bands[f"{database.name}_response_ms"]
    assert band.hi == database.connect_timeout_ms * 0.5


def test_healthy_host_is_in_band(database):
    b = Baselines.for_host(database.host)
    m = database.host.os_metrics()
    m["load_avg"] = database.host.load_average()
    assert b.check(m) == []
