"""A work budget for the clean wake: counts, not clocks.

A healthy fleet wakes six agents per host per grid point and nearly
every one of those wakes finds nothing.  What such a wake may cost is
pinned here as work that must *not* happen -- a Python-level heap
comparison, a directory listing with nothing to prune, a second render
of the same profile, a second parse of the same command line, a second
normalisation of the same path -- so the cost cannot creep back
unnoticed.  Same spirit as ``test_memory_discipline.py``; every count
is deterministic.
"""

import pytest

from repro.cluster import filesystem as fs_mod
from repro.cluster import shell as shell_mod
from repro.cluster.filesystem import FileSystem
from repro.core.flags import FlagStore
from repro.core.status_agent import FULL_REBUILD_EVERY, StatusAgent
from repro.experiments.wakes import build_fleet
from repro.ontology.base import OntologyDoc
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


def test_flag_maintenance_lists_nothing_while_nothing_can_expire(
        fleet, monkeypatch):
    """The first flags are minutes old and retention is four hours."""
    sim, _suites = fleet
    pruning, listed = [], []
    original = FlagStore.clear_before

    def clear_before(self, cutoff):
        pruning.append(self.dir)
        try:
            return original(self, cutoff)
        finally:
            pruning.pop()
    monkeypatch.setattr(FlagStore, "clear_before", clear_before)
    _counted(monkeypatch, FileSystem, "files_in_dir",
             lambda args, _r: pruning and listed.append(args[1]))
    sim.run(until=sim.now + 3 * GRID)
    assert listed == []


def test_status_wake_renders_its_profile_once():
    """Once for the file and the payload alike; the every-8th
    cross-check renders the exhaustive build beside it.  Needs the
    admin pair a profile is shipped to, hence a site."""
    from repro.experiments.site import SiteConfig, build_site
    site = build_site(SiteConfig.test_scale(seed=5, with_feeds=False,
                                            with_workload=False))
    renders = [0]
    counting = [True]
    per_wake = {False: set(), True: set()}
    with pytest.MonkeyPatch.context() as patch:
        _counted(patch, OntologyDoc, "render",
                 lambda _a, _r: renders.__setitem__(
                     0, renders[0] + counting[0]))
        original = StatusAgent.build_and_ship

        def build_and_ship(self):
            before = renders[0]
            result = original(self)
            per_wake[self.profiles_built % FULL_REBUILD_EVERY == 0].add(
                renders[0] - before)
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
    assert per_wake == {False: {1}, True: {2}}


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
