"""Episode execution: one scenario against one live site.

Every episode runs at test scale with a
:class:`~repro.chaos.oracles.ScanReference` attached to the admin pair
-- PR 4's full-rescan cross-check judges every sweep and DGSPL build
-- plus one spare host so the relocation tier is reachable, the tracer
installed so incident reports can be built, and a
:class:`~repro.experiments.runner.FidelityHarness` keeping the
downtime books.

Events resolve their abstract target selectors against the built site
(indices wrap modulo pool size) and dispatch through the injector's
structured catalog.  An event whose target cannot take the fault --
already broken, host down, LAN already up on a repair -- **fizzles**:
it is recorded, counted, and the episode continues, exactly like
lightning striking a hole.  Fizzles are coverage markers too; the
fuzzer learns which compositions are even reachable.

``planted_bug`` is a test-only flag wiring in a deliberate regression
(the watchdog's deadline wheel mis-arms entries whose staleness gap is
deeper than one backoff level, pushing them to never-due) so the
fuzzer demo and the shrinker tests have a real defect to find.  It
only manifests when an agent goes silent *after* its host has
quiesced into deep backoff -- adversarial timing the fuzzer must
compose.  Production code paths never set it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Set

from repro.chaos.scenario import Scenario, parse_target, split_site
from repro.faults.injector import OverlappingFaultError

__all__ = ["Episode", "FederationEpisode", "run_episode",
           "run_federation_episode", "PLANTED_GAP"]

#: staleness gaps deeper than this get mis-armed when the planted bug
#: is on (base period + one backoff + grace = 900; deep backoff > 1500)
PLANTED_GAP = 1500.0

#: selector pool -> how to pull the pool out of a built site
_HOST_GROUPS = {"dbhost": "db", "tphost": "tp", "fehost": "frontend",
                "sphost": "spare", "admhost": "admin"}


@dataclass
class Episode:
    """One scenario's run: handles, outcomes, verdicts, coverage."""

    scenario: Scenario
    site: object
    harness: object
    horizon: float
    #: the full-rescan reference attached to the site's admin pair
    reference: object
    #: "t op target" lines for events that applied / fizzled
    applied: List[str] = field(default_factory=list)
    fizzled: List[str] = field(default_factory=list)
    applied_kinds: Set[str] = field(default_factory=set)
    fizzled_kinds: Set[str] = field(default_factory=set)
    #: cond:<kind>[:<status>] markers collected live off the ledger
    condition_markers: Set[str] = field(default_factory=set)
    reports: List = field(default_factory=list)
    reconciliation: dict = field(default_factory=dict)
    verdicts: List = field(default_factory=list)
    coverage: FrozenSet[str] = frozenset()

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def violated(self) -> List[str]:
        """Names of oracles that fired."""
        return [v.oracle for v in self.verdicts if not v.ok]

    @property
    def violations(self) -> List[str]:
        return [msg for v in self.verdicts for msg in v.violations]

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


def _resolve(site, selector: str):
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
    elif pool == "wan":
        return None     # a single site has no leased lines to cut
    else:
        raise ValueError(f"unknown target pool {pool!r}")
    if not seq:
        return None
    return seq[idx % len(seq)]


def _apply_event(site, injector, ev) -> None:
    """Apply one event; raises ValueError-family on fizzle."""
    target = _resolve(site, ev.target)
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


class _EpisodeBook:
    """Snapshottable episode bookkeeping: outcome lines, coverage
    markers and the *not-yet-fired* scenario events.

    Scenario events are scheduled up front as absolute-time closures;
    a checkpoint taken mid-episode serialises each pending event's heap
    token plus its index into the (canonical) scenario event list, so a
    restore re-arms ``fire(events[i])`` at the exact saved token and
    the resumed episode applies the remaining faults beat-for-beat.
    """

    def __init__(self, ep: Episode):
        self.ep = ep
        self.sim = ep.site.sim
        self.base = 0.0
        self.fire = None                # bound by run_episode
        self._pending: List[tuple] = []  # (event_handle, scenario index)

    def arm(self, base: float, fire) -> None:
        self.base = base
        self.fire = fire
        for i, ev in enumerate(self.ep.scenario.events):
            handle = self.sim.schedule_at(base + ev.time, fire, ev)
            self._pending.append((handle, i))

    def snapshot_state(self) -> dict:
        ep = self.ep
        return {
            "base": self.base,
            "applied": list(ep.applied),
            "fizzled": list(ep.fizzled),
            "applied_kinds": sorted(ep.applied_kinds),
            "fizzled_kinds": sorted(ep.fizzled_kinds),
            "condition_markers": sorted(ep.condition_markers),
            "pending": [[[h.time, h.priority, h.seq], i]
                        for h, i in self._pending if h.alive],
        }

    def restore_state(self, state: dict) -> None:
        ep = self.ep
        self.base = float(state["base"])
        ep.applied = list(state["applied"])
        ep.fizzled = list(state["fizzled"])
        ep.applied_kinds = set(state["applied_kinds"])
        ep.fizzled_kinds = set(state["fizzled_kinds"])
        ep.condition_markers = set(state["condition_markers"])
        for handle, _i in self._pending:
            handle.cancel()
        self._pending = []
        events = ep.scenario.events
        for (t, prio, seq), i in state["pending"]:
            handle = self.sim.schedule_exact(t, prio, seq, self.fire,
                                             events[int(i)])
            self._pending.append((handle, int(i)))

    def claimed_seqs(self) -> List[int]:
        return [h.seq for h, _i in self._pending if h.alive]


def _collect_condition_markers(ep: Episode) -> None:
    """Harvest ``cond:<kind>[:<status>]`` markers live off the ledger."""
    def collect(cond):
        ep.condition_markers.add(f"cond:{cond.kind}")
        if cond.status:
            ep.condition_markers.add(f"cond:{cond.kind}:{cond.status}")
    ep.site.ledger.on_append(collect)


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


@dataclass
class FederationEpisode:
    """One multi-site scenario's run: the federation, per-site shim
    episodes for the oracles, outcomes and coverage.  Exposes the same
    verdict surface as :class:`Episode` so replay tooling is agnostic."""

    scenario: Scenario
    fed: object
    episodes: dict = field(default_factory=dict)
    horizon: float = 0.0
    applied: List[str] = field(default_factory=list)
    fizzled: List[str] = field(default_factory=list)
    applied_kinds: Set[str] = field(default_factory=set)
    fizzled_kinds: Set[str] = field(default_factory=set)
    verdicts: List = field(default_factory=list)
    coverage: FrozenSet[str] = frozenset()

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def violated(self) -> List[str]:
        return [v.oracle for v in self.verdicts if not v.ok]

    @property
    def violations(self) -> List[str]:
        return [msg for v in self.verdicts for msg in v.violations]

    def summary(self) -> dict:
        return {
            "scenario_id": self.scenario.scenario_id,
            "scenario_json": self.scenario.to_json(),
            "verdicts": [v.to_dict() for v in self.verdicts],
            "violated": self.violated,
            "coverage": sorted(self.coverage),
            "applied": len(self.applied),
            "fizzled": len(self.fizzled),
        }


def run_federation_episode(scenario: Scenario,
                           oracle_names=None) -> FederationEpisode:
    """One multi-site scenario against a live federation.

    Builds the canonical 3-site federation (a rescan reference on
    every site so the scan-ledger oracle bites), serves geo
    traffic throughout, applies the scenario's events at their absolute
    times -- site-scoped selectors resolve inside their named site,
    ``wan[i]`` selects the i-th site's leased lines -- and judges every
    site with the same oracle set as a single-site episode.
    """
    from repro.chaos.coverage import signature_of
    from repro.chaos.oracles import (OracleVerdict, ScanReference,
                                     run_oracles)
    from repro.experiments.runner import FidelityHarness
    from repro.federation import build_federation
    from repro.federation.config import three_site_config

    scenario = scenario.normalized()
    scenario.validate()
    if scenario.sites != 3:
        raise ValueError(
            f"federated episodes run the canonical 3-site world; "
            f"got sites={scenario.sites}")

    fed = build_federation(
        three_site_config(population=60_000, seed=scenario.seed))
    names = sorted(fed.sites)

    fep = FederationEpisode(scenario=scenario, fed=fed)
    harnesses = {}
    for name in names:
        site = fed.sites[name]
        harnesses[name] = FidelityHarness(site)
        shim = Episode(scenario=scenario, site=site,
                       harness=harnesses[name], horizon=scenario.horizon,
                       reference=ScanReference.attach(site.admin))
        _collect_condition_markers(shim)
        fep.episodes[name] = shim

    def apply_event(ev) -> None:
        line = f"{fed.now:.0f} {ev.op} {ev.target}"
        try:
            site_name, rest = split_site(ev.target)
            pool, idx = parse_target(rest)
            if pool == "wan":
                wan_site = names[idx % len(names)]
                if ev.op == "wan-repair":
                    if all(l.reachable() for l in
                           fed.wan.links_of(wan_site)):
                        raise OverlappingFaultError(
                            ev.op, f"wan:{wan_site}", "no cut lines")
                    fed.wan.repair_site(wan_site)
                else:
                    harnesses[names[0]].injector.inject(
                        ev.op, (fed.wan, wan_site), **ev.param_dict())
            else:
                if site_name not in fed.sites:
                    site_name = names[0]
                site = fed.sites[site_name]
                _apply_event(site, harnesses[site_name].injector, ev)
        except ValueError as exc:   # includes OverlappingFaultError
            fep.fizzled.append(f"{line} ({exc})")
            fep.fizzled_kinds.add(ev.op)
            return
        fep.applied.append(line)
        fep.applied_kinds.add(ev.op)

    fed.start_traffic()
    base = fed.now
    for ev in scenario.events:     # already time-sorted (normalized)
        at = base + ev.time
        if at > fed.now:
            fed.run(at - fed.now)
        apply_event(ev)
    end = base + scenario.horizon
    if end > fed.now:
        fed.run(end - fed.now)
    for name in names:
        harnesses[name].scan_flags_for_detection()

    fep.horizon = fed.now
    coverage = set()
    for name in names:
        shim = fep.episodes[name]
        shim.horizon = fed.sites[name].sim.now
        for v in run_oracles(shim, oracle_names):
            fep.verdicts.append(OracleVerdict(
                f"{name}:{v.oracle}", v.ok, v.violations))
        shim.coverage = signature_of(shim)
        coverage |= shim.coverage
    coverage |= {f"fault:{k}" for k in fep.applied_kinds}
    coverage |= {f"fizzle:{k}" for k in fep.fizzled_kinds}
    if fed.site_loss_events:
        coverage.add("fed:site-loss")
    if fed.site_recovery_events:
        coverage.add("fed:site-recovery")
    if fed.crosssite is not None and fed.crosssite.succeeded:
        coverage.add("fed:takeover:ok")
    if fed.geo is not None and fed.geo.remote_steered:
        coverage.add("fed:geo-steered")
    fep.coverage = frozenset(coverage)
    return fep


def run_episode(scenario: Scenario, *, planted_bug: bool = False,
                oracle_names=None, checkpoint_dir: str = None,
                checkpoint_every: float = 900.0,
                from_checkpoint: str = None) -> Episode:
    """Build the site, run the scenario, judge it.

    Deterministic for a fixed scenario (site seed + canonical events):
    two runs produce identical decision logs, verdicts and coverage.

    With ``checkpoint_dir`` the episode checkpoints the whole world
    (site, harness books, tracer, *and* the not-yet-fired scenario
    events) every ``checkpoint_every`` simulated seconds.  With
    ``from_checkpoint`` the episode time-travels: it restores the
    world at that epoch and replays only the remainder -- a violation
    found at the end of a long scenario reproduces identically from
    the last pre-incident checkpoint, without re-running the preamble.
    """
    if scenario.sites != 1:
        if planted_bug or checkpoint_dir or from_checkpoint:
            raise ValueError("multi-site episodes support neither the "
                             "planted bug nor checkpointing")
        return run_federation_episode(scenario, oracle_names)

    from repro.chaos.coverage import signature_of
    from repro.chaos.oracles import ScanReference, run_oracles
    from repro.experiments.runner import FidelityHarness
    from repro.experiments.site import SiteConfig, build_site
    from repro.observe.incidents import build_reports, reconcile
    from repro.trace import install_tracer

    scenario = scenario.normalized()
    scenario.validate()

    config = SiteConfig.test_scale(
        seed=scenario.seed, spare_servers=1,
        with_workload=False, with_feeds=False)
    site = build_site(config)
    tracer = install_tracer(site.sim)
    harness = FidelityHarness(site)
    if planted_bug:
        _plant_bug(site.admin)

    ep = Episode(scenario=scenario, site=site, harness=harness,
                 horizon=scenario.horizon,
                 reference=ScanReference.attach(site.admin))

    _collect_condition_markers(ep)

    injector = harness.injector
    book = _EpisodeBook(ep)

    def fire(ev):
        line = f"{site.sim.now:.0f} {ev.op} {ev.target}"
        try:
            _apply_event(site, injector, ev)
        except ValueError as exc:   # includes OverlappingFaultError
            ep.fizzled.append(f"{line} ({exc})")
            ep.fizzled_kinds.add(ev.op)
            return
        ep.applied.append(line)
        ep.applied_kinds.add(ev.op)

    book.fire = fire
    extras = dict(harness._extras())
    extras["episode"] = book
    extras["scan_reference"] = ep.reference

    if from_checkpoint is not None:
        from repro.persist import CheckpointManager, restore_site
        restore_site(CheckpointManager.load(from_checkpoint),
                     site=site, extras=extras)
    else:
        book.arm(site.sim.now, fire)  # warm-up already consumed ~400 s

    end = book.base + scenario.horizon
    if checkpoint_dir is not None:
        from repro.persist import CheckpointManager
        mgr = CheckpointManager(site, checkpoint_dir,
                                every_hours=checkpoint_every / 3600.0,
                                retain=1_000_000, extras=extras,
                                label=f"ep-{scenario.scenario_id}")
        while site.sim.now < end - 1e-9:
            site.sim.run(until=min(end, site.sim.now + checkpoint_every))
            if site.sim.now < end - 1e-9:
                mgr.epoch(force=True)
    else:
        site.sim.run(until=end)
    harness.scan_flags_for_detection()

    horizon = site.sim.now
    ep.horizon = horizon
    ep.reports = build_reports(
        tracer, downtime=harness.ledger, horizon=horizon,
        admin=site.admin, relocator=site.relocator)
    ep.reconciliation = reconcile(ep.reports, downtime=harness.ledger,
                                  horizon=horizon)
    ep.verdicts = run_oracles(ep, oracle_names)
    ep.coverage = signature_of(ep)
    return ep
