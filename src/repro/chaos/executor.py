"""Episode execution: one scenario against one live world.

There is one executor and one world type.  Every scenario runs in a
:class:`~repro.federation.build.Federation`: the canonical three-site
one when ``scenario.sites == 3``, and for the classic single site a
federation of *one* -- no regions, no traffic tier, no cross-site
tier -- which ``tests/test_federation_parity.py`` proves state-hash
identical to a bare ``build_site`` world, so wrapping costs a barrier
loop (a digest and a site-loss probe per simulated minute, both
read-only) and changes no verdict.

Every site runs at test scale with a
:class:`~repro.chaos.oracles.ScanReference` attached to its admin pair
-- PR 4's full-rescan cross-check judges every sweep and DGSPL build
-- plus spare hosts so the relocation tier is reachable, the tracer
installed so incident reports can be built, and a
:class:`~repro.experiments.runner.FidelityHarness` keeping the
downtime books.  All of that is one :class:`_EpisodeBook` per site.

Events resolve their abstract target selectors against the built world
(indices wrap modulo pool size; a ``site:`` scope picks the site, no
scope means the home site) and dispatch through the injector's
structured catalog.  Site events are armed on *their own site's*
simulator; ``wan[i]`` events belong to no site, so the executor applies
them at the federation barrier at their time.  An event whose target
cannot take the fault -- already broken, host down, LAN already up on
a repair, a leased line on a world that has none -- **fizzles**: it is
recorded, counted, and the episode continues, exactly like lightning
striking a hole.  Fizzles are coverage markers too; the fuzzer learns
which compositions are even reachable.

``planted_bug`` is a test-only flag wiring in a deliberate regression
on every site (the watchdog's deadline wheel mis-arms entries whose
staleness gap is deeper than one backoff level, pushing them to
never-due) so the fuzzer demo and the shrinker tests have a real
defect to find.  It only manifests when an agent goes silent *after*
its host has quiesced into deep backoff -- adversarial timing the
fuzzer must compose.  Production code paths never set it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.chaos.scenario import Scenario, parse_target, split_site
from repro.faults.injector import OverlappingFaultError
from repro.persist.core import Persistent, pendings, scalar, sortedset

__all__ = ["Episode", "run_episode", "PLANTED_GAP"]

#: staleness gaps deeper than this get mis-armed when the planted bug
#: is on (base period + one backoff + grace = 900; deep backoff > 1500)
PLANTED_GAP = 1500.0

#: selector pool -> how to pull the pool out of a built site
_HOST_GROUPS = {"dbhost": "db", "tphost": "tp", "fehost": "frontend",
                "sphost": "spare", "admhost": "admin"}


@dataclass
class Episode:
    """One scenario's run: the world, per-site books, verdicts,
    coverage."""

    scenario: Scenario
    #: the federation the scenario ran in (one site or three)
    fed: object
    #: site name -> that site's share of the episode, home site first
    books: Dict[str, "_EpisodeBook"]
    horizon: float
    verdicts: List = field(default_factory=list)
    coverage: FrozenSet[str] = frozenset()

    @property
    def site(self):
        """The home site -- the only one of a single-site scenario."""
        return next(iter(self.books.values())).site

    def _fired(self, ok: bool) -> List[Tuple[int, str]]:
        """(scenario index, "t op target" line) of every event that
        applied / fizzled, on any site, in scenario order."""
        return sorted((i, line) for book in self.books.values()
                      for i, (applied, line) in book.outcomes.items()
                      if applied is ok)

    @property
    def applied(self) -> List[str]:
        return [line for _i, line in self._fired(True)]

    @property
    def fizzled(self) -> List[str]:
        return [line for _i, line in self._fired(False)]

    @property
    def applied_kinds(self) -> Set[str]:
        return {self.scenario.events[i].op for i, _l in self._fired(True)}

    @property
    def fizzled_kinds(self) -> Set[str]:
        return {self.scenario.events[i].op for i, _l in self._fired(False)}

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def violated(self) -> List[str]:
        """Names of oracles that fired."""
        return [v.oracle for v in self.verdicts if not v.ok]

    def summary(self) -> dict:
        """Picklable structured result for batch workers: scenario id
        + JSON, oracle verdicts, coverage signature, event outcomes."""
        return {
            "scenario_id": self.scenario.scenario_id,
            "scenario_json": self.scenario.to_json(),
            "verdicts": [v.to_dict() for v in self.verdicts],
            "violated": self.violated,
            "coverage": sorted(self.coverage),
            "applied": len(self.applied),
            "fizzled": len(self.fizzled),
        }


def _resolve(fed, site, selector: str):
    """An abstract target selector -> the live object, or None when
    the pool is empty on this site."""
    pool, idx = parse_target(selector)
    if pool == "db":
        seq = site.databases
    elif pool == "fe":
        seq = site.frontends
    elif pool == "web":
        seq = site.webservers
    elif pool in _HOST_GROUPS:
        seq = site.dc.group(_HOST_GROUPS[pool])
    elif pool == "lan":
        seq = [site.dc.lans[name]
               for name in sorted(site.dc.lans) if name != "agentnet"]
    elif pool == "dns":
        return site.nameservice
    elif pool == "lsf":
        return site.lsf_master
    elif pool == "wan":     # the idx-th site's leased lines
        names = sorted(fed.sites)
        return fed.wan, names[idx % len(names)]
    else:
        raise ValueError(f"unknown target pool {pool!r}")
    if not seq:
        return None
    return seq[idx % len(seq)]


def _apply_event(fed, site, injector, ev) -> None:
    """Apply one event; raises ValueError-family on fizzle."""
    target = _resolve(fed, site, ev.target)
    if target is None:
        raise OverlappingFaultError(ev.op, ev.target,
                                    "empty pool on this site")
    if ev.op == "lan-repair":
        if target.up:
            raise OverlappingFaultError(ev.op, target.name, "LAN is up")
        target.repair()
    elif ev.op == "nic-repair":
        failed = [nic for _n, nic in sorted(target.nics.items())
                  if not nic.ok]
        if not failed:
            raise OverlappingFaultError(ev.op, target.name,
                                        "no failed interface")
        for nic in failed:
            nic.repair()
    elif ev.op == "dns-repair":
        if target.up:
            raise OverlappingFaultError(ev.op, "dns", "already up")
        target.repair()
    elif ev.op == "wan-repair":
        wan, name = target
        if all(link.reachable() for link in wan.links_of(name)):
            raise OverlappingFaultError(ev.op, f"wan:{name}",
                                        "no cut lines")
        wan.repair_site(name)
    elif ev.op == "host-crash":
        if not target.is_up:
            raise OverlappingFaultError(ev.op, target.name,
                                        "host already down")
        target.crash("chaos: injected host crash")
    elif ev.op == "host-boot":
        if target.is_up:
            raise OverlappingFaultError(ev.op, target.name, "host is up")
        target.boot()
    else:
        injector.inject(ev.op, target, **ev.param_dict())


class _EpisodeBook(Persistent):
    """One site's share of an episode: its handles (tracer, harness,
    rescan reference), what the scenario did there, what the oracles
    and the coverage harvest read afterwards -- and, Snapshottable, the
    *not-yet-fired* scenario events.

    A site's events are scheduled up front on its own simulator as
    absolute-time closures; a checkpoint taken mid-episode serialises
    each pending event's heap token plus its index into the (canonical)
    scenario event list, so a restore re-arms ``fire(i)`` at the exact
    saved token and the resumed episode applies the remaining faults
    beat-for-beat.  The book rides its site's ``extras`` into the
    federation checkpoint.
    """

    _persist = (
        scalar("base", float),
        scalar("outcomes",
               lambda saved: {int(i): (bool(applied), line)
                              for i, applied, line in saved},
               enc=lambda outcomes: [[i, applied, line] for i, (applied, line)
                                     in sorted(outcomes.items())]),
        sortedset("condition_markers"),
        pendings("pending", "_pending", "fire", int))

    def __init__(self, fed, site, events, planted_bug: bool):
        from repro.chaos.oracles import ScanReference
        from repro.experiments.runner import FidelityHarness
        from repro.trace import install_tracer

        self.fed = fed
        self.site = site
        self.sim = site.sim
        self.events = events
        self.tracer = install_tracer(site.sim)
        self.harness = FidelityHarness(site)
        if planted_bug:
            _plant_bug(site.admin)
        #: the full-rescan reference attached to the site's admin pair
        self.reference = ScanReference.attach(site.admin)
        #: cond:<kind>[:<status>] markers collected live off the ledger
        self.condition_markers: Set[str] = set()
        site.ledger.on_append(self._collect)
        #: event times count from here (the build's warm-up already
        #: consumed ~400 s); a restore brings the original back
        self.base = fed.now
        #: scenario index -> (applied?, "t op target" line)
        self.outcomes: Dict[int, Tuple[bool, str]] = {}
        self._pending: List[tuple] = []  # (event_handle, scenario index)
        self.horizon = 0.0
        self.reports: List = []
        self.reconciliation: dict = {}

    def _collect(self, cond) -> None:
        self.condition_markers.add(f"cond:{cond.kind}")
        if cond.status:
            self.condition_markers.add(f"cond:{cond.kind}:{cond.status}")

    def extras(self) -> Dict[str, object]:
        """What this site adds to a checkpoint, by stable names."""
        return {**self.harness._extras(), "episode": self,
                "scan_reference": self.reference}

    def arm(self, i: int) -> None:
        handle = self.site.sim.schedule_at(
            self.base + self.events[i].time, self.fire, i)
        self._pending.append((handle, i))

    def fire(self, i: int) -> None:
        ev = self.events[i]
        line = f"{self.site.sim.now:.0f} {ev.op} {ev.target}"
        try:
            _apply_event(self.fed, self.site, self.harness.injector, ev)
        except ValueError as exc:   # includes OverlappingFaultError
            self.outcomes[i] = (False, f"{line} ({exc})")
        else:
            self.outcomes[i] = (True, line)

    def harvest(self) -> None:
        """Close the books: detection stamps, incident reports and
        their reconciliation against the downtime ledger."""
        from repro.observe.incidents import build_reports, reconcile
        site, downtime = self.site, self.harness.ledger
        self.harness.scan_flags_for_detection()
        self.horizon = site.sim.now
        self.reports = build_reports(
            self.tracer, downtime=downtime, horizon=self.horizon,
            admin=site.admin, relocator=site.relocator)
        self.reconciliation = reconcile(self.reports, downtime=downtime,
                                        horizon=self.horizon)


def _plant_bug(admin) -> None:
    """Test-only: wrap the watchdog wheel so deadlines implying a
    deep-backoff staleness gap are pushed to never-due.  The key stays
    tracked (the wheel-structure oracle passes); the *behaviour*
    diverges from the rescan plan only once that agent goes silent."""
    wheel = admin._wheel
    orig = wheel.set_deadline
    sim = admin.sim

    def mis_arm(key, deadline):
        if deadline - sim.now > PLANTED_GAP:
            orig(key, deadline + 1e9)
        else:
            orig(key, deadline)

    wheel.set_deadline = mis_arm


def _world_config(scenario: Scenario):
    """The federation a scenario runs in -- the one place
    ``scenario.sites`` is read (validation has pinned it to 1 or 3)."""
    from repro.federation.config import (FederationConfig, SiteSpec,
                                         three_site_config)
    if scenario.sites == 3:
        return three_site_config(population=60_000, seed=scenario.seed)
    from repro.experiments.site import SiteConfig
    config = SiteConfig.test_scale(
        seed=scenario.seed, spare_servers=1,
        with_workload=False, with_feeds=False)
    return FederationConfig(
        sites=[SiteSpec(config.site_name, "", config)], regions=(),
        with_traffic=False, cross_site_relocation=False,
        seed=scenario.seed)


def run_episode(scenario: Scenario, *, planted_bug: bool = False,
                oracle_names=None, checkpoint_dir: str = None,
                checkpoint_every: float = 900.0,
                from_checkpoint: str = None) -> Episode:
    """Build the world, run the scenario, judge every site of it.

    Deterministic for a fixed scenario (site seeds + canonical events):
    two runs produce identical decision logs, verdicts and coverage.

    With ``checkpoint_dir`` the episode checkpoints the whole world
    (every site, its harness books and tracer, the layers between
    sites, *and* the not-yet-fired scenario events) every
    ``checkpoint_every`` simulated seconds.  With ``from_checkpoint``
    the episode time-travels: it restores the world at that epoch and
    replays only the remainder -- a violation found at the end of a
    long scenario reproduces identically from the last pre-incident
    checkpoint, without re-running the preamble.
    """
    from repro.chaos.coverage import signature_of
    from repro.chaos.oracles import run_oracles
    from repro.federation import build_federation

    scenario = scenario.normalized()
    scenario.validate()
    events = scenario.events

    if from_checkpoint is not None:
        from repro.persist import CheckpointManager, restore_federation
        from repro.persist.core import check_format
        saved = CheckpointManager.load(from_checkpoint)
        check_format(saved, "federation")       # before anything is built

    fed = build_federation(_world_config(scenario))
    books = {name: _EpisodeBook(fed, fed.sites[name], events, planted_bug)
             for name in sorted(fed.sites)}
    home = next(iter(books.values()))
    extras = {name: book.extras() for name, book in books.items()}

    #: leased lines belong to no site: the executor fires these at the
    #: barrier and books them at home
    wan = [i for i, ev in enumerate(events)
           if parse_target(ev.target)[0] == "wan"]

    if from_checkpoint is not None:
        restore_federation(saved, fed=fed, extras_by_site=extras)
    else:
        if fed.traffic is not None:
            fed.start_traffic()
        for i, ev in enumerate(events):
            if i not in wan:
                books.get(split_site(ev.target)[0], home).arm(i)

    end = home.base + scenario.horizon
    mgr, next_ckpt = None, math.inf
    if checkpoint_dir is not None:
        from repro.persist import CheckpointManager
        mgr = CheckpointManager(fed, checkpoint_dir,
                                every_hours=checkpoint_every / 3600.0,
                                retain=1_000_000, extras=extras,
                                label=f"ep-{scenario.scenario_id}")
        next_ckpt = fed.now + checkpoint_every
    while fed.now < end - 1e-9:
        waiting = [(home.base + events[i].time, i) for i in wan
                   if i not in home.outcomes]
        fed.run(min([end, next_ckpt] + [t for t, _i in waiting]) - fed.now)
        for t, i in waiting:
            if t <= fed.now + 1e-9:
                home.fire(i)
        if next_ckpt - 1e-9 <= fed.now < end - 1e-9:
            mgr.epoch(force=True)
            next_ckpt = fed.now + checkpoint_every

    for book in books.values():
        book.harvest()
    ep = Episode(scenario=scenario, fed=fed, books=books, horizon=fed.now)
    ep.verdicts = run_oracles(ep, oracle_names)
    ep.coverage = signature_of(ep)
    return ep
