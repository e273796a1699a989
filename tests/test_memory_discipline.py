"""Memory discipline: every unbounded-looking collection is ringed.

A year-scale run appends to shell histories, telemetry series, the
condition log and the samplers' per-host measurement history millions
of times; these regression tests pin (a) the
caps actually trim, (b) the ``dropped``/``trimmed`` counters own up to
what was clipped, and (c) the trimmed state survives a snapshot round
trip -- so a resumed segment inherits bounded books, not a fresh leak.
Memos count too: one keyed by something minted per wake (a flag's
file name) is a leak with a hit rate.
"""

import gc
from collections import deque

from repro.controlplane.ledger import ConditionLedger
from repro.metrics.samplers import WORKGROUPS, SamplerSuite
from repro.metrics.timeseries import TimeSeries
from repro.observe.pipeline import MAXLEN, TelemetryHub


class _FakeSim:
    now = 0.0


# -- shell history -----------------------------------------------------------


def test_shell_history_ring_trims_and_counts(db_host):
    shell = db_host.shell
    limit = shell.HISTORY_LIMIT
    for i in range(2 * limit + 5):
        shell.run(f"echo {i}")
    assert len(shell.history) <= 2 * limit
    assert shell.history_trimmed > 0
    assert shell.history_trimmed + len(shell.history) == 2 * limit + 5
    # the retained tail is the newest commands, oldest dropped
    assert shell.history[-1] == f"echo {2 * limit + 4}"
    assert "echo 0" not in shell.history


def test_shell_history_trim_survives_snapshot(db_host):
    shell = db_host.shell
    for i in range(2 * shell.HISTORY_LIMIT + 1):
        shell.run(f"true {i}")
    state = shell.snapshot_state()
    other = type(shell)(db_host)
    other.restore_state(state)
    assert other.history == shell.history
    assert other.history_trimmed == shell.history_trimmed


# -- filesystem mount memo ---------------------------------------------------


def test_mount_memo_is_bounded_by_directories_not_files():
    """Flag and profile names are timestamps: 7 new paths per host per
    grid point, pruned after hours.  The memo is keyed by directory, so
    two simulated days leave it no bigger than the directory tree (it
    used to hold ~4 000 entries per host by now, and counting)."""
    from repro.experiments.wakes import build_fleet
    sim, _dc, suites = build_fleet(2, "fixed", seed=0)
    sim.run(until=sim.now + 48 * 3600.0)
    for suite in suites:
        fs = suite.host.fs
        assert len(fs._files) < 400              # pruning keeps up
        assert 0 < len(fs._mount_cache) <= len(fs._dirs)


def test_mount_of_answers_by_longest_prefix_through_the_memo(db_host):
    fs = db_host.fs
    fs.add_mount("/logs/archive", 1 << 20)
    cases = {"/": "/", "/logs": "/logs", "/logs/archive": "/logs/archive",
             "/logs/syslog": "/logs", "/logsx": "/", "/unmounted/x": "/",
             "/logs/intelliagents/osnet/ok.300.0": "/logs",
             "/logs/archive/2002/jan": "/logs/archive",
             "/logs//intelliagents///osnet/": "/logs", "/var/": "/var",
             "//": "/"}
    for _cold_then_warm in range(2):
        for path, point in cases.items():
            assert fs._mount(path).point == point, path
    fs.add_mount("/logs/intelliagents", 1 << 20)     # drops the memo
    assert fs._mount("/logs/intelliagents/osnet/ok.300.0").point == \
        "/logs/intelliagents"
    assert fs._mount("/logs/syslog").point == "/logs"


# -- timeseries rings --------------------------------------------------------


def test_timeseries_ring_bounds_growth_and_counts():
    ts = TimeSeries("x", maxlen=10)
    for i in range(100):
        ts.append(float(i), float(i))
    assert len(ts) < 2 * 10
    assert ts.dropped + len(ts) == 100
    # clipped lookups fall back to the oldest *retained* sample
    assert ts.value_at(0.0) == ts.times[0]


# -- sampler history -----------------------------------------------------------


def _live_timeseries() -> int:
    gc.collect()
    return sum(isinstance(o, TimeSeries) for o in gc.get_objects())


def test_sampler_history_is_the_circular_log_and_nothing_else(
        database, notifications):
    """The measurement history has one copy, the ringed ASCII log: no
    series object outlives a wake, and a timeline is that log read
    back -- the newest ``log_maxlen`` samples, no more."""
    from repro.core.performance_agent import PerformanceAgent
    host = database.host
    agent = PerformanceAgent(host, notifications=notifications)
    host.crond.remove(agent.name)               # manual drive only
    agent.samplers = SamplerSuite(host, log_maxlen=5)
    before = _live_timeseries()
    wakes = []
    for _ in range(12):
        host.sim.run(until=host.sim.now + 300)
        agent.run()
        wakes.append(host.sim.now)
    assert _live_timeseries() == before
    for group in WORKGROUPS:
        assert len(host.fs.read(f"/logs/perf/{host.name}/{group}")) == 5
    ts = agent.timeline("os", "cpu_idle")
    assert list(ts.times) == wakes[-5:]
    del ts
    assert _live_timeseries() == before


# -- telemetry condition log -------------------------------------------------


def test_condition_log_ring_drops_and_counts():
    hub = TelemetryHub(_FakeSim())
    ledger = ConditionLedger()
    hub.attach_ledger(ledger)
    cap = 16 * 720
    n = cap + 40
    for i in range(n):
        ledger.append("flag", "db01", status="fault", time=float(i))
    assert isinstance(hub.condition_log, deque)
    assert len(hub.condition_log) == cap
    assert hub.condition_log_dropped == n - cap
    # newest retained, oldest shed
    assert hub.condition_log[-1].time == float(n - 1)
    assert hub.condition_log[0].time == float(n - cap)
    # the SLI rings hold 12 h of 60 s rollups, trimmed amortised
    ring = hub.series("svc/web/attempted")
    for i in range(3 * MAXLEN):
        ring.append(60.0 * i, float(i))
    assert MAXLEN == 720 and 720 <= len(ring) < 1440


# -- condition ledger backlog cap --------------------------------------------


def test_ledger_force_trim_counts_and_flags_overrun():
    ledger = ConditionLedger()
    ledger.maxlen = 8
    cursor = ledger.subscribe("slow")
    for i in range(20):
        ledger.append("flag", "db01", time=float(i))
    assert len(ledger._entries) <= 8
    assert ledger.trimmed == 20 - len(ledger._entries)
    retained = len(ledger._entries)
    fresh, overrun = cursor.poll()
    assert overrun                       # the cap blew past this cursor
    assert cursor.overruns == 1
    assert len(fresh) == retained        # only the survivors are seen
    assert fresh[-1].version == 20


def test_ledger_cursor_driven_trim_keeps_backlog_small():
    ledger = ConditionLedger()
    cursor = ledger.subscribe("fast")
    for i in range(50):
        ledger.append("flag", "db01", time=float(i))
        cursor.poll()                    # consume eagerly
    assert len(ledger._entries) == 0     # everything consumed -> trimmed
    assert ledger.trimmed == 50
    assert cursor.overruns == 0
