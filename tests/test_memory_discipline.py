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
import os
import tracemalloc
from collections import deque

from repro.controlplane.ledger import ConditionLedger
from repro.metrics.samplers import WORKGROUPS, SamplerSuite
from repro.metrics.timeseries import TimeSeries
from repro.observe.pipeline import MAXLEN, TelemetryHub
from repro.persist import FORMAT_VERSION, CheckpointManager
from repro.persist.core import canonical_json, discard, seal, state_hash


class _FakeSim:
    now = 0.0


# -- shell history -----------------------------------------------------------


def test_shell_history_ring_trims_and_counts(db_host):
    shell = db_host.shell
    limit = shell.HISTORY_LIMIT
    for i in range(2 * limit + 5):
        shell.run(f"echo {i}")
    assert len(shell.history) <= 2 * limit
    # the ring trimmed, and what it kept is the unbroken newest run
    n = 2 * limit + 5
    assert len(shell.history) < n
    assert shell.history == [f"echo {i}"
                             for i in range(n - len(shell.history), n)]
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
    # and the restored ring goes on trimming as the original does
    for i in range(shell.HISTORY_LIMIT + 1):
        shell.run(f"false {i}")
        other.run(f"false {i}")
    assert other.history == shell.history


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


def test_hosts_share_the_names_of_the_directories_every_host_makes():
    """A host-independent agent's directory name is one object on every
    host -- the key of its directory table entry, its listing and its
    mount memo -- and stays one through a snapshot round trip.  Each
    host used to split its own copy off every path written there: ten
    names a host, 0.73 MB at 1 000 hosts.  So are the parents
    ``mkdir`` files on its way up (``/logs/intelliagents`` above the
    agents' directories, ``/logs/perf`` above the samplers' per-host
    ones), which have no listing or memo of their own."""
    from repro.core.status_agent import DLSP_DIR
    from repro.experiments.wakes import build_fleet
    sim, _dc, suites = build_fleet(2, "fixed", seed=0)
    sim.run(until=sim.now + 600.0)
    first, second = (suite.host.fs for suite in suites)

    def keys(fs, name):
        tables = (fs._dirs, fs._dir_index, fs._mount_cache)
        return [next(key for key in table if key == name)
                for table in tables[:1 if name in parents else 3]]
    names = [agent.flags.dir for agent in suites[0].agents
             if agent.shared_name] + [DLSP_DIR]
    assert len(names) == 6
    parents = ["/logs/intelliagents", "/logs/perf"]
    for _round_trip in range(2):
        for name in names + parents:
            shared = keys(first, name)[0]
            assert all(key is shared for key in keys(first, name)
                       + keys(second, name)), name
        for fs in (first, second):
            fs.restore_state(fs.snapshot_state())
        sim.run(until=sim.now + 600.0)


def test_a_fresh_site_heap_holds_no_dead_entry():
    """Each agent registers its cron job once, at its staggered offset:
    a freshly built site's heap is every event it will fire and nothing
    else.  A second registration used to leave one cancelled
    ``Crond._fire`` per agent (59 of 129 entries at test scale)."""
    from repro.experiments.site import SiteConfig, build_site
    site = build_site(SiteConfig.test_scale(with_workload=False))
    dead = [entry[-1] for entry in site.sim._heap if not entry[-1].alive]
    assert dead == []
    assert len(site.sim._heap) == len(site.sim.live_events()) > 0


def test_mount_of_answers_by_longest_prefix_through_the_memo(db_host):
    from repro.cluster.filesystem import _parent
    fs = db_host.fs
    mount_of = lambda path: fs._mount(path, _parent(path))
    fs.add_mount("/logs/archive", 1 << 20)
    cases = {"/": "/", "/logs": "/logs", "/logs/archive": "/logs/archive",
             "/logs/syslog": "/logs", "/logsx": "/", "/unmounted/x": "/",
             "/logs/intelliagents/osnet/ok.300.0": "/logs",
             "/logs/archive/2002/jan": "/logs/archive",
             "/logs//intelliagents///osnet/": "/logs", "/var/": "/var",
             "//": "/"}
    for _cold_then_warm in range(2):
        for path, point in cases.items():
            assert mount_of(path).point == point, path
    fs.add_mount("/logs/intelliagents", 1 << 20)     # drops the memo
    assert mount_of("/logs/intelliagents/osnet/ok.300.0").point == \
        "/logs/intelliagents"
    assert mount_of("/logs/syslog").point == "/logs"


# -- what a wake leaves behind -----------------------------------------------


def _traced_bytes(build) -> int:
    """Bytes ``build()`` allocates and still holds when it returns."""
    tracemalloc.start()
    try:
        kept = build()      # noqa: F841 -- alive until measured
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_a_flag_costs_its_path_its_mtime_and_two_dict_entries():
    """A flag is one ``_files`` entry plus one entry in its directory's
    listing, which holds its mtime: no more than the same flags in two
    plain dicts, plus 8 B a flag for the directory itself.  Measured
    against plain dicts in the same interpreter, because a dict entry
    is 8 B larger on 3.10 and a ``str`` 8 B smaller on 3.12.  On
    CPython 3.11 (x86-64) the 1000 flags cost 159 B each against the
    dicts' 162 B; a store that also kept a path-keyed mtime map and a
    per-directory ``set`` paid 192 B."""
    from repro.cluster.filesystem import FileSystem
    n, flag_dir = 1000, "/logs/intelliagents/osnet"
    fs = FileSystem()

    def flags():
        for i in range(n):
            t = 300.0 * (i + 1)
            fs.write(f"{flag_dir}/ok.{t:.1f}", [], now=t)
        return fs

    def two_dicts():
        lines, mtimes = {}, {}
        for i in range(n):
            t = 300.0 * (i + 1)
            path = f"{flag_dir}/ok.{t:.1f}"
            lines[path], mtimes[path] = (), t
        return lines, mtimes

    store, plain = _traced_bytes(flags), _traced_bytes(two_dicts)
    assert store <= plain + 8 * n, (store / n, plain / n)


#: the DLSP lines whose values are unbounded, so never interned
UNSHARED = ("#GENERATED ", "load_avg=", "cpu_util=", "free_mem_mb=",
            "response_ms=")


def test_consecutive_profiles_share_every_line_that_did_not_change():
    """Two consecutive DLSP files hold the same line objects exactly
    where their text is equal -- the measured floats of a quiet host
    included, which are reused from the previous profile rather than
    interned -- and differ at the stamp.  Other hosts' profiles share
    the interned lines; the text is what a full rebuild renders at the
    same instant."""
    from repro.core.status_agent import DLSP_DIR
    from repro.experiments.wakes import build_fleet
    from repro.ontology.dlsp import build_dlsp
    sim, _dc, suites = build_fleet(2, "fixed", seed=0)
    host, other = (suite.host for suite in suites)
    status = next(a for a in suites[0].agents if a.category == "status")
    rebuilt, ship = [], status.build_and_ship

    def build_and_ship():
        dlsp = ship()
        rebuilt.append(build_dlsp(host).render())
        return dlsp
    status.build_and_ship = build_and_ship
    sim.run(until=sim.now + 600.0)

    def profiles(h):
        paths = sorted(h.fs.files_in_dir(DLSP_DIR),
                       key=lambda p: float(p.rsplit(".", 1)[1]))
        return [list(h.fs.stat(p).lines) for p in paths]
    first, second = profiles(host)[-2:]
    assert [first, second] == rebuilt
    assert len(first) == len(second)
    differ = [i for i, (a, b) in enumerate(zip(first, second)) if a != b]
    assert [i for i, (a, b) in enumerate(zip(first, second))
            if a is not b] == differ
    assert any(first[i].startswith("#GENERATED ") for i in differ)
    common = [(a, b) for a, b in zip(second, profiles(other)[-1])
              if a == b and not a.startswith(UNSHARED)]
    assert {"cpus=2", "state=running"} <= {a for a, _ in common}
    assert all(a is b for a, b in common)


# -- what a clean host holds -------------------------------------------------


def _clean_host():
    """One fleet host an hour into a clean run: its agent suite."""
    from repro.experiments.wakes import build_fleet
    sim, _dc, suites = build_fleet(1, "fixed", seed=0)
    sim.run(until=sim.now + 3600.0)
    return suites[0]


def test_the_small_parts_of_a_host_carry_no_instance_dict():
    """Each agent's run counters, part switches, flag store, activity
    log and wake policy, and each metric band, exist by the thousand on
    a large site: none carries a ``__dict__``."""
    suite = _clean_host()
    parts = list(suite.baselines.bands.values())
    for agent in suite.agents:
        parts += [agent.stats, agent.parts, agent.flags, agent.activity,
                  agent.wake]
    assert {type(p).__name__ for p in parts} == {
        "Band", "RunStats", "PartSwitches", "FlagStore", "CircularLog",
        "WakePolicy"}
    assert [p for p in parts if hasattr(p, "__dict__")] == []


def test_a_clean_host_holds_no_fault_path_state():
    """No agent a fault has not reached holds a heal-attempt map or an
    escalation set of its own, and no process an advance has not reached
    holds microstate clocks of its own; their snapshot rows are the
    ones empty state always had, and a round trip keeps them shared."""
    suite = _clean_host()
    first, ptable = suite.agents[0], suite.host.ptable
    for agent in suite.agents:
        assert agent._attempts is first._attempts
        assert agent._escalated is first._escalated
        doc = agent.snapshot_state()
        assert (doc["attempts"], doc["escalated"]) == ({}, [])
        agent.restore_state(doc)
        assert agent._escalated is first._escalated
    assert not first._attempts and not first._escalated
    assert len(ptable) > 1
    assert len({id(proc.micro) for proc in ptable}) == 1
    doc = ptable.snapshot_state()
    assert [row["micro"] for row in doc["procs"]] == \
        [[0.0, 0.0, 0.0, 0.0]] * len(ptable)
    ptable.restore_state(doc)
    assert len({id(proc.micro) for proc in ptable}) == 1


def test_an_agent_holds_its_object_its_parts_and_its_run_method():
    """What building a hardware agent allocates and keeps, the cron and
    kernel books aside, is no more than a reference built here from
    what an agent must hold: an object with as many attributes, one
    slotted object per part with as many slots, and the bound method
    its cron job calls.  So no agent holds its own copy of a string
    every host's agent shares, an empty container only a fault would
    fill, or a part with a ``__dict__``.  Relative, because object and
    dict sizes differ across 3.10-3.12; on CPython 3.11 (x86-64) an
    agent kept 713 B against the reference's 716 B, and 1 496 B when it
    held all three."""
    from repro.core.hardware_agent import HardwareAgent
    from repro.experiments.wakes import build_fleet
    _sim, _dc, suites = build_fleet(100, "fixed", seed=0)
    hosts = [suite.host for suite in suites]
    for host in hosts:
        host.crond.remove("hardware")
    books = [tracemalloc.Filter(False, f"*{path}") for path in (
        "repro/cluster/cron.py", "repro/sim/kernel.py",
        "repro/sim/calendar.py")]

    def kept_bytes(build) -> int:
        tracemalloc.start()
        try:
            kept = build()      # noqa: F841 -- alive until measured
            snap = tracemalloc.take_snapshot().filter_traces(books)
            return sum(stat.size for stat in snap.statistics("filename"))
        finally:
            tracemalloc.stop()
    agents = kept_bytes(lambda: [HardwareAgent(h) for h in hosts])
    model = suites[0].hardware
    parts = {name: type(f"Slotted{name}", (), {"__slots__": tuple(
        f"s{i}" for i in range(len(type(getattr(model, name)).__slots__)))})
        for name in ("stats", "parts", "flags", "activity", "wake")}
    attrs = dict(vars(model))

    class Reference:
        def __init__(self):
            for name, value in attrs.items():
                setattr(self, name, value)
            for name, cls in parts.items():
                setattr(self, name, cls())
    # each held through a bound method of its own, as crond holds an
    # agent through its ``run``
    reference = kept_bytes(lambda: [Reference().__init__ for _ in hosts])
    assert agents <= reference, (agents / len(hosts), reference / len(hosts))


# -- timeseries rings --------------------------------------------------------


def test_timeseries_ring_bounds_growth_and_counts():
    ts = TimeSeries("x", maxlen=10)
    for i in range(100):
        ts.append(float(i), float(i))
    assert len(ts) < 2 * 10
    assert ts.times.tolist() == [float(i) for i in range(100 - len(ts), 100)]
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


def test_a_sampler_row_costs_its_values(database):
    """A sampler row is kept as its float64 values, not as its line: 200
    wakes of one host's five samplers (no log wraps) grow the heap by at
    most 8 B a value plus a small constant a row -- the row buffer's
    growth headroom, an eighth of it at most, included -- where a line
    kept as ``str`` costs about 190 B."""
    host = database.host
    suite = SamplerSuite(host)
    suite.sample_all()                  # make the logs and their rings
    values = sum(len(s.metrics) + 1 for s in suite.sample_all())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            host.sim.run(until=host.sim.now + 300)
            suite.sample_all()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = 200 * len(WORKGROUPS)
    assert grown <= 200 * values * 8 + rows * 32, (grown, rows, values)


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
    # newest retained, oldest shed: exactly n - cap dropped
    assert [c.time for c in hub.condition_log] == [
        float(i) for i in range(n - cap, n)]
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
    retained = len(ledger._entries)
    # the oldest 20 - retained went, and the floor says so
    assert [c.version for c in ledger._entries] == list(
        range(21 - retained, 21))
    assert ledger.floor == 20 - retained
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
    assert ledger.floor == 50
    assert cursor.overruns == 0


# -- a checkpoint in pieces --------------------------------------------------


def _peak_bytes(fn) -> int:
    """The most ``fn()`` had allocated at once, on top of what it was
    handed."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _host_like(i: int) -> dict:
    return {"fs": {"files": [
        {"path": f"/logs/perf/h{i:03d}/{group}",
         "lines": [f"{300.0 * n:.1f} 0.{i:03d} 12.500 {group}"
                   for n in range(40)]} for group in range(4)]},
        "load": [i, 0.5, None]}


def _document() -> dict:
    """300 members, the three that sort after ``"state_hash"`` among
    them."""
    doc = {f"host{i:03d}": _host_like(i) for i in range(296)}
    doc.update({key: _host_like(i) for i, key in enumerate(
        ("suites", "telemetry", "tracer"))})
    doc["format"] = FORMAT_VERSION
    return doc


def test_no_string_of_the_whole_document_is_made_to_seal_or_hash_it():
    """``seal`` writes each piece through and ``state_hash`` hashes the
    same pieces, so on a 300-member document neither peaks above a
    small multiple of what encoding one member takes; joining the
    document, or holding every member's encoding, takes 300 of them.
    The members that sort after ``"state_hash"`` are held until it is
    known.  Relative to one member, because object sizes differ across
    3.10-3.12."""
    doc = _document()
    one = _peak_bytes(lambda: canonical_json(doc["host000"]))
    assert _peak_bytes(lambda: state_hash(doc)) <= 2 * one
    assert _peak_bytes(lambda: seal(doc, write=discard)) <= 4 * one


def test_no_string_of_the_whole_file_is_held_to_load_it(tmp_path):
    """``CheckpointManager.load`` reads a file member by member and
    verifies it piece by piece: what it holds beyond the document it
    returns stays under a quarter of the file.  Reading the file's
    text whole, as ``json.load`` does, holds all of it."""
    doc, path = _document(), tmp_path / "doc.json"
    with open(path, "w") as fh:
        seal(doc, write=fh.write)
    tracemalloc.start()
    try:
        loaded = CheckpointManager.load(str(path))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == doc
    assert peak - held <= os.path.getsize(path) / 4
