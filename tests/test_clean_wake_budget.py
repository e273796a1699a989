"""A work budget for the clean wake: counts, not clocks.

A healthy fleet wakes six agents per host per grid point and nearly
every one of those wakes finds nothing.  What such a wake may cost is
pinned here as work that must *not* happen -- a Python-level heap
comparison, a directory listing with nothing to prune, a second render
of the same profile, a flag record built only to be named, a second
parse of the same command line, a second normalisation of the same
path -- so the cost cannot creep back unnoticed.  Same spirit as
``test_memory_discipline.py``; every count is deterministic.

What the wakes leave for the cyclic collector is pinned the same way:
nothing a clean wake writes (a flag, a profile) and nothing an agent
reasons with (its causal rules) is an object the collector tracks.
"""

import gc

import pytest

from repro.cluster import filesystem as fs_mod
from repro.cluster import shell as shell_mod
from repro.cluster.filesystem import FileSystem
from repro.core.flags import Flag, FlagStore
from repro.core.reasoning import CausalRule
from repro.core.status_agent import StatusAgent
from repro.experiments.wakes import build_fleet
from repro.ontology.dlsp import Dlsp
from repro.sim.kernel import Event

GRID = 300.0


@pytest.fixture
def fleet():
    """Twelve healthy hosts on the fixed grid, past their first wake."""
    sim, _dc, suites = build_fleet(12, "fixed", seed=0)
    return sim, suites


def _counted(monkeypatch, owner, name, on_call):
    """Swap ``owner.name`` for a wrapper that reports each call's
    arguments and result to ``on_call`` and is otherwise transparent."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        on_call(args, result)
        return result
    monkeypatch.setattr(owner, name, wrapper)


def test_heap_ordering_never_reaches_python(fleet, monkeypatch):
    sim, _suites = fleet
    compared = []
    _counted(monkeypatch, Event, "__lt__",
             lambda args, _r: compared.append(args))
    before = sim.events_processed
    sim.run(until=sim.now + 3 * GRID)
    assert sim.events_processed - before == 3 * 6 * 12
    assert compared == []


def _listings_during(monkeypatch, owner, name) -> list:
    """Directories listed while ``owner.name`` runs (filled in as the
    caller drives the fleet)."""
    pruning, listed = [], []
    original = getattr(owner, name)

    def pruner(self, *args):
        pruning.append(name)
        try:
            return original(self, *args)
        finally:
            pruning.pop()
    monkeypatch.setattr(owner, name, pruner)
    _counted(monkeypatch, FileSystem, "files_in_dir",
             lambda args, _r: pruning and listed.append(args[1]))
    return listed


def test_flag_maintenance_lists_nothing_while_nothing_can_expire(
        fleet, monkeypatch):
    """The first flags are minutes old and retention is four hours."""
    sim, _suites = fleet
    listed = _listings_during(monkeypatch, FlagStore, "clear_before")
    sim.run(until=sim.now + 3 * GRID)
    assert listed == []


def test_profile_pruning_lists_nothing_while_nothing_can_expire(
        fleet, monkeypatch):
    """The first profiles are minutes old and retention is an hour."""
    sim, _suites = fleet
    listed = _listings_during(monkeypatch, StatusAgent,
                              "_prune_old_profiles")
    sim.run(until=sim.now + 3 * GRID)
    assert listed == []


def test_a_clean_wake_builds_no_flag_record(fleet, monkeypatch):
    """A raised flag is named and written; no ``Flag`` is made for it."""
    sim, _suites = fleet
    raised, made = [], []
    _counted(monkeypatch, FlagStore, "raise_flag",
             lambda args, _r: raised.append(args[1]))
    _counted(monkeypatch, Flag, "__init__",
             lambda args, _r: made.append(args))
    sim.run(until=sim.now + 3 * GRID)
    assert raised == ["ok"] * (3 * 6 * 12)
    assert made == []


def test_status_wake_renders_its_profile_once():
    """Once for the file and the payload alike.  Needs the admin pair
    a profile is shipped to, hence a site."""
    from repro.experiments.site import SiteConfig, build_site
    site = build_site(SiteConfig.test_scale(seed=5,
                                            with_workload=False))
    renders = [0]
    counting = [True]
    per_wake = set()
    with pytest.MonkeyPatch.context() as patch:
        _counted(patch, Dlsp, "render",
                 lambda _a, _r: renders.__setitem__(
                     0, renders[0] + counting[0]))
        original = StatusAgent.build_and_ship

        def build_and_ship(self):
            before = renders[0]
            result = original(self)
            per_wake.add(renders[0] - before)
            return result
        patch.setattr(StatusAgent, "build_and_ship", build_and_ship)
        for suite in site.suites.values():
            # what the receiving admin server does with the profile is
            # its own work, not the wake's
            deliver = suite.status.deliver

            def received(dlsp, deliver=deliver):
                counting[0] = False
                try:
                    deliver(dlsp)
                finally:
                    counting[0] = True
            suite.status.deliver = received
        site.run(4 * 3600.0)        # clean agents back off to 1800 s
    assert per_wake == {1}


def test_clean_grids_leave_the_collector_only_the_rearmed_cron_events(
        fleet):
    """A flag or profile file is a tuple of strings the collector stops
    tracking; what three grids leave behind is each cron job's next
    event, its heap entry and its bound callback."""
    sim, suites = fleet
    sim.run(until=sim.now + 3 * GRID)        # past every first-wake cost
    gc.collect()
    before = gc.get_objects()       # held, so no id in it is reused
    known = {id(obj) for obj in before}
    sim.run(until=sim.now + 3 * GRID)
    gc.collect()
    tracked = gc.get_objects()
    survivors = [obj for obj in tracked if id(obj) not in known
                 and obj is not before and obj is not known]
    armed = {id(obj) for obj in survivors if type(obj) is Event}
    assert len(armed) == 6 * len(suites)
    owned = set(armed)
    for entry in sim._heap:
        if id(entry[-1]) in armed:
            owned |= {id(entry), id(entry[-1].fn)}
    assert [obj for obj in survivors if id(obj) not in owned] == []


def test_agents_of_one_class_share_one_rule_table(fleet):
    _sim, suites = fleet
    first, second = suites[0].agents, suites[1].agents
    assert [type(a) for a in first] == [type(a) for a in second]
    for mine, theirs in zip(first, second):
        assert mine.engine is theirs.engine
        assert "engine" not in vars(mine)


def test_a_second_fleet_build_mints_no_causal_rule(monkeypatch):
    build_fleet(2, "fixed", seed=0)
    made = []
    _counted(monkeypatch, CausalRule, "__init__",
             lambda args, _r: made.append(args))
    build_fleet(2, "fixed", seed=0)
    assert made == []


def test_a_command_line_is_tokenised_once(fleet, monkeypatch):
    sim, suites = fleet
    split = []
    _counted(monkeypatch, shell_mod.shlex, "split",
             lambda args, _r: split.append(args[0]))
    sim.run(until=sim.now + 3 * GRID)
    ran = [line for suite in suites for line in suite.host.shell.history]
    assert len(ran) >= 4 * 12            # prtdiag, every host, every wake
    assert len(split) == len(set(split)) <= len(set(ran))


def test_an_agent_write_normalises_its_canonical_path_once(
        fleet, monkeypatch):
    sim, _suites = fleet
    norms = []
    _counted(monkeypatch, fs_mod, "_norm",
             lambda args, result: norms.append(result is args[0]))
    per_call = set()
    for name in ("write", "append"):
        original = getattr(FileSystem, name)

        def op(self, path, *args, original=original, **kwargs):
            before = len(norms)
            result = original(self, path, *args, **kwargs)
            per_call.add(len(norms) - before)
            return result
        monkeypatch.setattr(FileSystem, name, op)
    sim.run(until=sim.now + 3 * GRID)
    assert per_call == {1}
    assert norms and all(norms)          # handed back as the same object


class _CountedTable(dict):
    """A process-table dict that reports every sweep over itself."""

    sweeps = 0

    def _swept(self):
        type(self).sweeps += 1

    def values(self):
        self._swept()
        return super().values()

    def items(self):
        self._swept()
        return super().items()

    def __iter__(self):
        self._swept()
        return super().__iter__()


def test_a_load_reading_never_walks_the_process_table(fleet):
    """Run queue and load are kept where the table is written."""
    _sim, suites = fleet
    host = suites[0].host
    host.ptable.spawn("u", "busy", cpu_pct=95.0)
    host.ptable._procs = _CountedTable(host.ptable._procs)
    _CountedTable.sweeps = 0
    readings = [host.load_average(), host._queued()]
    assert _CountedTable.sweeps == 0
    assert readings[1] == 1 and readings[0] == 1 / host.effective_cpus()
    host.os_metrics()           # the float totals are still summed
    assert _CountedTable.sweeps == 2


def test_capacity_is_derived_once_per_component_state_change(
        fleet, monkeypatch):
    from repro.cluster.hardware import (ComponentKind, ComponentState,
                                        HardwareInventory)
    _sim, suites = fleet
    host = suites[0].host
    derived = []
    _counted(monkeypatch, HardwareInventory, "_scaled",
             lambda args, _r: derived.append(args[2]))
    per_change = [ComponentKind.CPU_BOARD, ComponentKind.MEMORY_BANK]

    def reads():
        for _ in range(5):
            host.effective_cpus(), host.effective_ram_mb()
            host.load_average(), host.os_metrics(), host.online_disks()
        return (host.effective_cpus(), host.effective_ram_mb())

    healthy = reads()
    assert derived == []
    bank = host.inventory.of_kind(ComponentKind.MEMORY_BANK)[0]
    bank.fail(0.0)
    degraded = reads()
    assert derived == per_change
    bank.fail(1.0)              # already failed: no change, no derivation
    disk = host.inventory.of_kind(ComponentKind.DISK)[0]
    disk.degrade(0.0), disk.degrade(0.0)        # counted, still OK
    assert reads() == degraded and derived == per_change
    disk.degrade(0.0)           # third strike: OK -> DEGRADED
    bank._set_state(ComponentState.OK)           # a field engineer's swap
    assert derived == 3 * per_change
    assert reads() == healthy and degraded[1] < healthy[1]


def test_door_weights_are_derived_once_per_published_dgspl(monkeypatch):
    """... and a published DGSPL is never written again, which is what
    lets a door key its weights on the object."""
    from repro.core.admin import AdministrationServers
    from repro.federation import build_federation
    from repro.federation.config import three_site_config
    from repro.ontology.dgspl import Dgspl
    from repro.traffic.frontdoor import FrontDoor

    routing, derivations, routes = [], [0], [0]
    original = FrontDoor.route

    def route(self, n, now):
        routing.append(self)
        routes[0] += 1
        try:
            return original(self, n, now)
        finally:
            routing.pop()
    monkeypatch.setattr(FrontDoor, "route", route)
    _counted(monkeypatch, Dgspl, "services_of_type",
             lambda _a, _r: routing and derivations.__setitem__(
                 0, derivations[0] + 1))
    published = []              # (the object, its rendering when built)
    _counted(monkeypatch, AdministrationServers, "_build_dgspl",
             lambda args, _r: args[0].dgspl is not None and published.append(
                 (args[0].dgspl, args[0].dgspl.render())))

    fed = build_federation(three_site_config(population=1_000_000, seed=0))
    fed.start_traffic()
    fed.run(4 * 3600.0)

    doors = sum(len(site_doors) for site_doors in fed.traffic.doors.values())
    generations = sum(site.admin.dgspl_generations
                      for site in fed.sites.values())
    assert len(published) == generations >= 3 * 10
    assert routes[0] > 10 * generations
    assert 0 < derivations[0] <= doors * generations / len(fed.sites)
    assert len({id(dgspl) for dgspl, _ in published}) == len(published)
    for dgspl, rendered in published:
        assert dgspl.render() == rendered
