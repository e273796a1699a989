"""Decision-path coverage for chaos episodes.

A *coverage signature* is the set of behavioural path markers one
episode exercised, harvested from ledgers the substrate already keeps
(nothing is instrumented for the fuzzer's sake):

- ``decision:<action>`` -- the admin pair's sweep decisions
  (demand_wake / cron_repair / escalate / clear);
- ``cond:<kind>[:<status>]`` -- condition kinds streamed through the
  site ledger (flag, dlsp, host up/down, wake interval/demand, route
  drain/cutover, alert);
- ``relocate:<phase>`` / ``relocate:ok|rollback[:cold]`` -- how far
  each relocation got and how it ended;
- ``resolved:<tier>`` -- which escalation tier closed each incident
  (agent-heal, relocation, human, unresolved);
- ``fault:<kind>`` / ``fizzle:<kind>`` -- what the scenario actually
  managed to break (a fault against an already-broken target fizzles);
- ``wake:*`` / ``notify:*`` / ``admin:*`` -- demand wakes, backoff
  depth, pages by medium and severity, HA failovers;
- ``fed:*`` -- what happened *between* sites: a site lost or
  recovered, a cross-site takeover, geo-steered demand.

Per-site markers are the union over the episode's sites.

The fuzzer mutates *toward* signatures containing un-hit markers; the
:class:`CoverageMap` is the accumulated union with hit counts, and its
size is monotonic by construction.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

__all__ = ["CoverageMap", "signature_of"]


class CoverageMap:
    """Accumulated path-marker hit counts across episodes."""

    def __init__(self):
        self.counts: Dict[str, int] = {}
        #: (episode_index, size_after) checkpoints, appended per add
        self.growth: List[Tuple[int, int]] = []
        self.episodes = 0

    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, marker: str) -> bool:
        return marker in self.counts

    def add(self, signature: Iterable[str]) -> int:
        """Fold one episode's signature in; returns how many markers
        were new.  The map only ever grows."""
        new = 0
        for marker in signature:
            if marker not in self.counts:
                self.counts[marker] = 0
                new += 1
            self.counts[marker] += 1
        self.episodes += 1
        self.growth.append((self.episodes, len(self.counts)))
        return new

    def rarest(self, n: int = 10) -> List[Tuple[str, int]]:
        """The n least-hit markers -- what the fuzzer should chase."""
        return sorted(self.counts.items(),
                      key=lambda kv: (kv[1], kv[0]))[:n]

    def __repr__(self) -> str:   # pragma: no cover - debug aid
        return (f"<CoverageMap markers={len(self.counts)} "
                f"episodes={self.episodes}>")


def signature_of(episode) -> FrozenSet[str]:
    """Harvest the path markers of one finished episode (see module
    docstring for the marker families)."""
    sig = set()
    for book in episode.books.values():
        _site_markers(book, sig)

    # what the scenario actually broke
    for kind in episode.applied_kinds:
        sig.add(f"fault:{kind}")
    for kind in episode.fizzled_kinds:
        sig.add(f"fizzle:{kind}")

    # what happened between the sites
    fed = episode.fed
    if fed.site_loss_events:
        sig.add("fed:site-loss")
    if fed.site_recovery_events:
        sig.add("fed:site-recovery")
    if fed.crosssite is not None and fed.crosssite.succeeded:
        sig.add("fed:takeover:ok")
    if fed.geo is not None and fed.geo.remote_steered:
        sig.add("fed:geo-steered")
    return frozenset(sig)


def _site_markers(book, sig: set) -> None:
    """One site's markers, off its episode book."""
    site = book.site
    admin = site.admin

    # sweep decisions + admin behaviour
    if admin is not None:
        for _t, action, _host, _reason in admin.decisions:
            sig.add(f"decision:{action}")
        if admin.demand_wakes:
            sig.add("wake:demand")
        if admin.cron_repairs:
            sig.add("admin:cron-repair")
        if admin.hosts_escalated:
            sig.add("admin:escalated")
        if admin.failovers:
            sig.add("admin:failover")
        if admin.model_resyncs:
            sig.add("admin:resync")
        if admin.service_probe_failures:
            sig.add("admin:probe-failure")

    # condition kinds seen on the site ledger (push-collected live)
    sig.update(book.condition_markers)

    # relocation phase outcomes
    relocator = site.relocator
    if relocator is not None:
        for rec in relocator.records:
            sig.add(f"relocate:{rec.phase}")
            if rec.finished is not None:
                out = "ok" if rec.success else "rollback"
                sig.add(f"relocate:{out}")
                if rec.cold:
                    sig.add(f"relocate:{out}:cold")

    # escalation tier that resolved each incident
    for rep in book.reports:
        sig.add(f"resolved:{rep.resolved_by}")
        if rep.category:
            sig.add(f"category:{rep.category}")

    # wake-policy depth reached anywhere in the fleet
    deepest = 0.0
    resets = 0
    for suite in site.suites.values():
        for agent in suite.agents:
            wake = getattr(agent, "wake", None)
            if wake is None:
                continue
            deepest = max(deepest, wake.current_period)
            resets += wake.resets
    if deepest > 0.0:
        sig.add(f"wake:depth:{int(deepest)}")
    if resets:
        sig.add("wake:reset")

    # notification behaviour
    for note in site.notifications.sent:
        sig.add(f"notify:{note.medium}:{note.severity}")
