"""Cross-site relocation: the escalation tier above local-relocate.

When a whole datacentre dies (or a site's own relocation tier has
nowhere left to place a service), the federation tries to land the
lost services on *another* site's spare pool before paging a human.
The placement reuses the same SLKT + DGSPL constraint machinery as
:class:`repro.relocate.PlacementPlanner` -- now with site
anti-affinity (never back into the failing datacentre) -- and the
verify/cutover deadline is WAN-aware: the control chatter to a far
site crosses the leased line many times, so remote takeovers get a
proportionally longer budget before the tier gives up and pages.

Unlike the local :class:`ServiceRelocator`, which is a SimProcess
inside one site's event loop, a cross-site relocation spans *two*
simulators.  It therefore runs as a federation-epoch state machine:
the start is issued into the target site's world at a barrier, and
each subsequent barrier advances plan -> start -> verify -> cutover
until the deadline.  A successful cutover registers the service alias
in the target site's name-service zone (which the federated delegation
makes visible everywhere) and records a *takeover*: the geo traffic
tier uses those to route the dead site's pinned demand to wherever its
services came back up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.healing import apply_action
from repro.ontology.slkt import app_template_of
from repro.persist.core import (Persistent, rows, scalar, scalars,
                                sortedset, via)
from repro.relocate.reroute import service_alias

__all__ = ["CrossSiteRecord", "CrossSiteRelocator"]


@dataclass
class CrossSiteRecord:
    """One attempted cross-site takeover, start to finish."""

    subject: str                 # "<source-site>/<app>"
    app_name: str
    app_type: str
    version: str
    source_site: str
    source_host: str
    target_site: str = ""
    target_host: str = ""
    target_app: str = ""
    cold: bool = True
    reason: str = ""
    started: float = 0.0
    deadline: float = 0.0
    finished: Optional[float] = None
    phase: str = "plan"          # plan | start | verify | done | failed
    success: bool = False
    detail: str = ""

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "subject", "app_name", "app_type", "version", "source_site",
            "source_host", "target_site", "target_host", "target_app",
            "cold", "reason", "started", "deadline", "finished", "phase",
            "success", "detail")}

    @classmethod
    def from_dict(cls, doc: dict) -> "CrossSiteRecord":
        return cls(**doc)


@dataclass
class _Takeover:
    """A completed cutover the geo tier can route pinned demand to."""

    source_site: str
    app_type: str
    target_site: str
    target_host: str
    target_app: str

    def to_dict(self) -> dict:
        return {"source_site": self.source_site, "app_type": self.app_type,
                "target_site": self.target_site,
                "target_host": self.target_host,
                "target_app": self.target_app}

    @classmethod
    def from_dict(cls, doc: dict) -> "_Takeover":
        return cls(**doc)


class CrossSiteRelocator(Persistent):
    """Epoch-driven cross-site takeover state machines.

    ``sites`` maps site name -> the built :class:`Site` world; the
    federation registers them all and calls :meth:`tick` at every
    barrier.  ``page_cb(subject, reason)`` is the last tier -- wired by
    the federation to a surviving site's paging channel.
    """

    _persist = (
        sortedset("lost_sites"),
        rows("records", CrossSiteRecord.from_dict, CrossSiteRecord.to_dict),
        via("active", "_save_active", "_load_active"),
        rows("takeovers", _Takeover.from_dict, _Takeover.to_dict),
        scalar("tier_totals",
               lambda saved: {tuple(key.split("|", 1)): int(n)
                              for key, n in saved.items()},
               enc=lambda totals: {"|".join(key): n for key, n
                                   in sorted(totals.items())}),
        *scalars(int, "attempted", "succeeded", "failed", "paged"))

    #: base verify budget (s), and the control-plane round trips a
    #: verify/cutover handshake costs: the WAN-aware budget adds this
    #: many RTTs to the base
    VERIFY_BUDGET, CHATTER_ROUNDS = 600.0, 100

    def __init__(self, *, wan, nameservice=None, page_cb=None):
        self.wan = wan
        self.nameservice = nameservice
        self.page_cb = page_cb
        self.sites: Dict[str, object] = {}
        #: sites currently considered lost (no placements into them)
        self.lost_sites: set = set()
        self.records: List[CrossSiteRecord] = []
        self.active: List[CrossSiteRecord] = []
        self.takeovers: List[_Takeover] = []
        #: (source_site, app_type) -> how many services that tier had
        #: when the site was declared lost (the takeover denominator)
        self.tier_totals: Dict[Tuple[str, str], int] = {}
        self.attempted = 0
        self.succeeded = 0
        self.failed = 0
        self.paged = 0

    def register_site(self, name: str, site) -> None:
        self.sites[name] = site

    # -- queries -------------------------------------------------------------

    def takeovers_for(self, source_site: str,
                      app_type: str) -> List[_Takeover]:
        return [t for t in self.takeovers
                if t.source_site == source_site and t.app_type == app_type]

    def takeover_fraction(self, source_site: str, app_type: str) -> float:
        """What fraction of a lost site's tier is back up elsewhere --
        the share of its pinned demand the geo tier can recover."""
        total = self.tier_totals.get((source_site, app_type), 0)
        if total <= 0:
            return 0.0
        return min(1.0, len(self.takeovers_for(source_site, app_type))
                   / total)

    def _budget_for(self, source_site: str, target_site: str) -> float:
        rtt_s = 2.0 * self.wan.latency_ms(source_site, target_site) / 1000.0
        return self.VERIFY_BUDGET + self.CHATTER_ROUNDS * rtt_s

    # -- entry points --------------------------------------------------------

    def site_loss(self, source_site: str, now: float) -> int:
        """Relocate every user-facing database service of a lost site.

        The databases are the *pinned* tier -- their region's demand
        cannot be geo-steered away -- so they are what cross-site
        relocation exists for.  Returns how many takeovers started.
        """
        site = self.sites.get(source_site)
        if site is None:
            return 0
        self.lost_sites.add(source_site)
        key = (source_site, "database")
        self.tier_totals.setdefault(key, len(site.databases))
        started = 0
        settled = {r.subject for r in self.active}
        settled |= {r.subject for r in self.records if r.success}
        for app in sorted(site.databases, key=lambda a: a.name):
            subject = f"{source_site}/{app.name}"
            if subject in settled:
                continue
            if self._start(app, source_site, now, "site loss"):
                started += 1
        return started

    def relocate_host(self, source_site: str, host_name: str, now: float,
                      reason: str) -> int:
        """The per-host escalation hook: the site's own relocation tier
        had nowhere to place ``host_name``'s services, so try the other
        datacentres before anyone gets paged."""
        site = self.sites.get(source_site)
        if site is None:
            return 0
        host = site.dc.hosts.get(host_name)
        if host is None:
            return 0
        started = 0
        inflight = {r.subject for r in self.active}
        for app_name in sorted(host.apps):
            app = host.apps[app_name]
            if app.started_at is None:       # idle slot, nothing to move
                continue
            subject = f"{source_site}/{app.name}"
            if subject in inflight:
                continue
            if self._start(app, source_site, now, reason):
                started += 1
        return started

    # -- the state machine ---------------------------------------------------

    def _start(self, app, source_site: str, now: float,
               reason: str) -> bool:
        """Plan and issue the start at a target site.  Returns whether a
        takeover is now in flight."""
        template = app_template_of(app)
        rec = CrossSiteRecord(
            subject=f"{source_site}/{app.name}", app_name=app.name,
            app_type=app.app_type, version=app.version,
            source_site=source_site, source_host=app.host.name,
            reason=reason, started=now)
        self.attempted += 1

        candidates = sorted(
            (name for name in self.sites
             if name != source_site and name not in self.lost_sites),
            key=lambda name: (self.wan.latency_ms(source_site, name), name))
        plan = None
        target_site_name = None
        for name in candidates:
            target = self.sites[name]
            if target.relocator is None:
                continue
            plan = target.relocator.planner.plan(
                template, source_host=f"{source_site}:{app.host.name}",
                failed_sites=[source_site])
            if plan is not None:
                target_site_name = name
                break
        if plan is None:
            rec.phase, rec.finished = "failed", now
            rec.detail = "no site can place it"
            self.records.append(rec)
            self._fail(rec)
            return False

        target = self.sites[target_site_name]
        rec.target_site = target_site_name
        rec.target_host, rec.target_app = plan.target_host, plan.target_app
        rec.cold = plan.cold
        rec.deadline = now + self._budget_for(source_site, target_site_name)
        if plan.cold:
            if not target.spares.claim(plan.target_host, rec.subject):
                rec.phase, rec.finished = "failed", now
                rec.detail = f"spare {plan.target_host} already claimed"
                self.records.append(rec)
                self._fail(rec)
                return False
            host = target.dc.hosts[plan.target_host]
            result = apply_action("start_app", host, plan.target_app)
            if not result.success:
                target.spares.release(plan.target_host)
                rec.phase, rec.finished = "failed", now
                rec.detail = f"start script failed: {result.detail}"
                self.records.append(rec)
                self._fail(rec)
                return False
        rec.phase = "verify"
        self.records.append(rec)
        self.active.append(rec)
        return True

    def tick(self, now: float) -> None:
        """Advance every in-flight takeover one federation epoch."""
        still = []
        for rec in self.active:
            target = self.sites[rec.target_site]
            app = target.dc.hosts[rec.target_host].apps[rec.target_app]
            ok = app.is_running() and app.probe()[0]
            if ok:
                self._cutover(rec, app, now)
            elif now >= rec.deadline:
                if rec.cold:
                    target.spares.release(rec.target_host)
                rec.phase, rec.finished = "failed", now
                rec.detail = "verify deadline exceeded"
                self._fail(rec)
            else:
                still.append(rec)
        self.active = still

    def _cutover(self, rec: CrossSiteRecord, app, now: float) -> None:
        target = self.sites[rec.target_site]
        ip = next((n.ip for n in app.host.nics.values()), "0.0.0.0")
        target.nameservice.register(service_alias(rec.app_name), ip)
        rec.phase, rec.success, rec.finished = "done", True, now
        self.succeeded += 1
        self.takeovers.append(_Takeover(
            source_site=rec.source_site, app_type=rec.app_type,
            target_site=rec.target_site, target_host=rec.target_host,
            target_app=rec.target_app))

    def _fail(self, rec: CrossSiteRecord) -> None:
        self.failed += 1
        if self.page_cb is not None:
            self.paged += 1
            self.page_cb(rec.subject,
                         f"cross-site relocation failed: {rec.detail} "
                         f"({rec.reason})")

    # -- persistence ---------------------------------------------------------

    def _save_active(self) -> list:
        return [r.subject for r in self.active]

    def _load_active(self, subjects: list) -> None:
        by_subject = {r.subject: r for r in self.records}
        self.active = [by_subject[s] for s in subjects]
