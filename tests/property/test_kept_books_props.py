"""Property: what is kept on the write side equals a recount.

The process table's run-queue counts, the hardware inventory's
capacity, a front door's per-DGSPL weights, the tracer's suffix index
and a status agent's incremental profile are all derived state
maintained where their source is written instead of re-derived where
it is read.  Each test drives the source
through a random interleaving of every writer -- including the hostile
ones: a killed entry mutated again, an unknown pid, a restore into a
table already in use or a host that had crashed -- and demands after
every step that the books equal a from-scratch recount
(:func:`repro.chaos.oracles.table_books` / ``inventory_books``, the
same recount the chaos tier's ``host-books`` oracle runs).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.database import Database
from repro.apps.webserver import WebServer
from repro.chaos.oracles import inventory_books, table_books
from repro.cluster.datacenter import Datacenter
from repro.cluster.hardware import ComponentState, HardwareInventory
from repro.cluster.process import ProcessTable, ProcState
from repro.cluster.specs import SPEC_CATALOGUE
from repro.ontology.base import OntologyDoc
from repro.ontology.dgspl import Dgspl
from repro.ontology.dlsp import DlspBuilder, build_dlsp
from repro.sim import Simulator
from repro.trace.tracer import Tracer
from repro.traffic.frontdoor import FrontDoor
from tests.test_traffic_frontdoor import apps, dgspl_at


def _balanced(books) -> bool:
    kept, recount = books
    return kept == recount


# -- process table -----------------------------------------------------------

_cpu = st.sampled_from([0.0, 5.0, 29.9, 30.0, 30.1, 95.0])
_state = st.sampled_from(list(ProcState))
_pick = st.integers(min_value=0, max_value=40)
_table_op = st.one_of(
    st.tuples(st.just("spawn"), st.sampled_from(["a", "b", "c"]), _cpu),
    st.tuples(st.just("kill"), _pick),
    st.tuples(st.just("kill_command"), st.sampled_from(["a", "b", "zz"])),
    st.tuples(st.just("update"), _pick, st.none() | _cpu,
              st.none() | st.floats(0.0, 512.0), st.none() | _state),
    st.tuples(st.just("clear")),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")))


def _pid(pids, pick):
    """A pid that was live at some point, or one never issued."""
    return pids[pick] if pick < len(pids) else 7


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_table_op, max_size=60))
def test_process_table_books_survive_any_interleaving(ops):
    table = ProcessTable("h")
    pids, saved = [], None
    for op in ops:
        if op[0] == "spawn":
            pids.append(table.spawn("u", op[1], cpu_pct=op[2]).pid)
        elif op[0] == "kill":
            pid = _pid(pids, op[1])
            live = table.get(pid) is not None
            assert table.kill(pid) is live
        elif op[0] == "kill_command":
            table.kill_command(op[1])
        elif op[0] == "update":
            pid = _pid(pids, op[1])
            entry = table.get(pid)
            changed = table.update(pid, cpu_pct=op[2], mem_mb=op[3],
                                   state=op[4])
            assert changed is (entry is not None)
            if entry is not None and op[4] is not None:
                assert entry.state is op[4]
        elif op[0] == "clear":
            table.clear()
        elif op[0] == "snapshot":
            saved = table.snapshot_state()
        elif saved is not None:
            # into the table as it stands now: used, not fresh
            table.restore_state(saved)
            assert table.snapshot_state() == saved
        assert _balanced(table_books(table))
        assert table.runnable() >= 0 and table.blocked() >= 0


def test_a_killed_entry_is_out_of_the_books_for_good():
    table = ProcessTable("h")
    busy = table.spawn("u", "busy", cpu_pct=95.0)
    assert table.runnable() == 1
    assert table.kill(busy.pid)
    assert table.runnable() == 0
    # the stale handle a long-lived owner may still hold
    assert not table.update(busy.pid, cpu_pct=99.0, state=ProcState.BLOCKED)
    assert (busy.cpu_pct, busy.state) == (95.0, ProcState.RUNNING)
    assert not table.kill(busy.pid)
    assert not table.kill(424242)
    assert (table.runnable(), table.blocked()) == (0, 0)
    assert _balanced(table_books(table))


def test_restoring_into_a_crashed_host_rebuilds_its_books():
    sim = Simulator()
    dc = Datacenter(sim)
    host = dc.add_host("db01", "sun-e4500", group="db")
    for _ in range(3):
        host.ptable.spawn("u", "busy", cpu_pct=95.0)
    waiting = host.ptable.spawn("u", "io", cpu_pct=1.0)
    host.ptable.update(waiting.pid, state=ProcState.BLOCKED)
    host.inventory.of_kind(host.inventory.components[0].kind)[0].fail(0.0)
    load, metrics = host.load_average(), host.os_metrics()
    saved = host.snapshot_state()
    host.crash()
    host.inventory.components[0]._set_state(ComponentState.OK)
    assert (host.ptable.runnable(), host.ptable.blocked()) == (0, 0)
    host.restore_state(saved)
    assert _balanced(table_books(host.ptable))
    assert _balanced(inventory_books(host.inventory))
    assert (host.ptable.runnable(), host.ptable.blocked()) == (3, 1)
    assert host.load_average() == load
    assert host.os_metrics() == metrics


# -- hardware inventory ------------------------------------------------------

_unit = st.integers(min_value=0, max_value=63)
_inventory_op = st.one_of(
    st.tuples(st.sampled_from(["degrade", "fail", "replace"]), _unit),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")))


@settings(max_examples=150, deadline=None)
@given(model=st.sampled_from(sorted(SPEC_CATALOGUE)),
       ops=st.lists(_inventory_op, max_size=50))
def test_inventory_books_survive_any_interleaving(model, ops):
    inv = HardwareInventory(SPEC_CATALOGUE[model])
    assert _balanced(inventory_books(inv))
    saved = None
    for op in ops:
        if op[0] == "snapshot":
            saved = inv.snapshot_state()
        elif op[0] == "restore":
            if saved is not None:
                inv.restore_state(saved)
                assert inv.snapshot_state() == saved
        else:
            unit = inv.components[op[1] % len(inv.components)]
            if op[0] == "replace":
                unit._set_state(ComponentState.OK)
            else:
                getattr(unit, op[0])(1.0)
        assert _balanced(inventory_books(inv))


# -- front door --------------------------------------------------------------

_loads = st.dictionaries(st.sampled_from(["w1", "w2", "w3"]),
                         st.floats(-1.0, 20.0), max_size=3)
_publish = st.one_of(
    st.tuples(st.just("new"), _loads),
    st.tuples(st.just("same")),
    st.tuples(st.just("none")),
    st.tuples(st.just("restored")))


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(st.tuples(_publish, st.floats(0.0, 2000.0)),
                      max_size=30))
def test_door_weights_follow_whatever_is_published(steps):
    current = [None]
    door = FrontDoor("webserver", apps("w1", "w2", "w3"),
                     lambda: current[0])
    now = 0.0
    for (kind, *payload), dt in steps:
        now += dt
        if kind == "new":
            current[0] = dgspl_at(now, payload[0])
        elif kind == "none":
            current[0] = None
        elif kind == "restored" and current[0] is not None:
            # what a checkpoint load publishes: equal content, new object
            current[0] = Dgspl.from_doc(
                OntologyDoc.parse(current[0].render()))
        dgspl = current[0]
        expected = None
        if dgspl is not None and now - dgspl.generated_at <= 900.0:
            expected = door._derive_weights(dgspl)
        assert door._weights(now) == expected
        door.route(7, now)


def test_door_derives_once_per_published_list():
    first = dgspl_at(0.0, {"w1": 0.0, "w2": 3.0})
    current = [first]
    door = FrontDoor("webserver", apps("w1", "w2"),
                     lambda: current[0])
    derived = []
    derive = door._derive_weights
    door._derive_weights = lambda d: derived.append(d) or derive(d)
    once = door.route(100, 10.0)
    assert door.route(100, 20.0) == once        # the same list, twice
    assert derived == [first]
    current[0] = dgspl_at(30.0, {"w1": 3.0, "w2": 0.0})
    flipped = door.route(100, 40.0)
    assert derived == [first, current[0]]
    assert [n for _a, n in flipped[0]] == [n for _a, n in once[0]][::-1]
    # staleness is judged per call, against now, not per list
    assert door._weights(30.0 + 900.0) is not None
    assert door._weights(30.0 + 900.1) is None
    assert len(derived) == 2


# -- tracer ------------------------------------------------------------------

def _scan(correlations, subject):
    """The lookup as it was written before the index: first match in
    binding order."""
    fid = correlations.get(subject)
    if fid is not None:
        return fid
    for target, fid in correlations.items():
        if target.endswith("/" + subject):
            return fid
    return ""


_name = st.sampled_from(["db01", "fe01", "ora01", "httpd", "u01", "data",
                         "", "a/b"])
_target = st.one_of(
    _name,
    st.builds("{}/{}".format, _name, _name),
    st.builds("{}/{}/{}".format, _name, _name, _name),
    st.builds("{}:/{}".format, _name, _name),
    st.builds("{}:/{}/{}".format, _name, _name, _name))


@settings(max_examples=200, deadline=None)
@given(binds=st.lists(st.tuples(_target, st.integers(1, 5)), max_size=25),
       subjects=st.lists(_target, max_size=12))
def test_fault_id_lookup_equals_the_first_match_scan(binds, subjects):
    tracer = Tracer()
    probes = subjects + [t for t, _ in binds] + [
        t[i + 1:] for t, _ in binds for i, ch in enumerate(t) if ch == "/"]
    for target, n in binds:
        tracer.correlate(target, f"F{n:04d}")
        for subject in probes:
            assert tracer.fault_id_for(subject) == _scan(
                tracer._correlations, subject)
    restored = Tracer()
    restored.correlate("left/over", "F9999")
    restored.restore_state(tracer.snapshot_state())
    assert "suffix_keys" not in tracer.snapshot_state()
    for subject in probes + ["over"]:
        assert restored.fault_id_for(subject) == _scan(
            restored._correlations, subject)


# -- incremental profile -----------------------------------------------------

_app = st.integers(min_value=0, max_value=1)
_profile_op = st.one_of(
    st.tuples(st.sampled_from(["crash", "hang", "degrade", "stop",
                               "start", "restart"]), _app),
    st.tuples(st.just("version"), _app, st.sampled_from(["1.0", "8.1.7",
                                                         "9.2"])),
    st.tuples(st.just("port"), _app, st.sampled_from([0, 80, 1521, 8080])),
    st.tuples(st.just("load"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("host"), st.sampled_from(["crash", "boot"])),
    st.tuples(st.just("run"), st.sampled_from([1.0, 60.0, 300.0])))


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_profile_op, max_size=40))
def test_incremental_profile_equals_the_full_build(ops):
    """One builder carried through any run of crashes, restarts,
    version and port changes and load shifts renders every profile as
    the exhaustive :func:`build_dlsp` does at that moment."""
    sim = Simulator()
    dc = Datacenter(sim)
    host = dc.add_host("db01", "sun-e4500", group="db")
    apps = [Database(host, "ora01", db_type="oracle"),
            WebServer(host, "httpd01")]
    for app in apps:
        app.start()
    builder = DlspBuilder(host)
    assert builder.build().render() == build_dlsp(host).render()
    for op in ops:
        if op[0] == "version":
            apps[op[1]].version = op[2]
        elif op[0] == "port":
            apps[op[1]].port = op[2]
        elif op[0] == "load":
            host.extra_runnable = op[1]
        elif op[0] == "host":
            getattr(host, op[1])()
        elif op[0] == "run":
            sim.run(until=sim.now + op[1])
        else:
            getattr(apps[op[1]], op[0])()
        assert builder.build().render() == build_dlsp(host).render()
