"""Unit tests for ASCII timelines."""

from repro.metrics.timeline import render_dashboard, sparkline
from repro.metrics.timeseries import TimeSeries


def _ts(name, values):
    ts = TimeSeries(name)
    for i, v in enumerate(values):
        ts.append(float(i * 60), v)
    return ts


def test_sparkline_fixed_width():
    assert len(sparkline([1, 2, 3], width=40)) == 40
    assert len(sparkline(range(1000), width=40)) == 40
    assert sparkline([], width=10) == " " * 10


def test_sparkline_monotone_input_monotone_output():
    s = sparkline(list(range(100)), width=20)
    ramp = " .:-=+*#%@"
    levels = [ramp.index(c) for c in s]
    assert levels == sorted(levels)
    assert levels[0] == 0 and levels[-1] == len(ramp) - 1


def test_sparkline_flat_series():
    s = sparkline([5.0] * 30, width=10)
    assert len(set(s)) == 1


def test_render_dashboard_aligned():
    dash = render_dashboard({
        "os.cpu_idle": _ts("a", [90, 50, 90]),
        "disks.worst_asvc_t": _ts("b", [8, 9, 60]),
        "empty": TimeSeries("c"),
    }, width=30)
    lines = dash.splitlines()
    assert len(lines) == 3
    bars = [l.index("|") for l in lines if "|" in l]
    assert len(set(bars)) == 1          # aligned columns


def test_perf_agent_timelines_feed_dashboard(database, notifications):
    from repro.core.performance_agent import PerformanceAgent
    from repro.metrics.timeline import render_dashboard
    agent = PerformanceAgent(database.host, notifications=notifications)
    database.host.crond.remove(agent.name)      # manual drive only
    for _ in range(3):
        database.host.sim.run(until=database.host.sim.now + 300)
        agent.run()
    ts = agent.timeline("os", "cpu_idle")
    assert ts is not None and len(ts) == 3
    dash = render_dashboard({"cpu_idle": ts})
    assert "avg" in dash
