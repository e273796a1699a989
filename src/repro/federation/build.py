"""Build and drive a geo-federation of single-site worlds.

Design: every :class:`~repro.experiments.site.Site` keeps its *own*
simulator and RNG namespace, exactly as built by ``build_site`` --
the federation never schedules events inside a site.  Sites advance
in **lockstep** to each federation epoch boundary (sorted site order),
and all cross-site coupling happens at the barrier, in deterministic
order, driven by federation-level state and a federation-level RNG:

1. digest exchange -- each site's DGSPL is aggregated to a
   :class:`~repro.ontology.dgspl.SiteDigest` and shipped over the WAN
   (partitioned sites drop out; the freshness windows do the rest);
2. the site-loss monitor -- a site whose user-facing tiers are all
   dark is flagged down at the geo door and handed to the cross-site
   relocation tier;
3. cross-site relocation state machines advance (verify/cutover);
4. the geo traffic tier samples and serves one epoch of per-region
   demand.

Because the coupling is strictly at the barrier and reads are
side-effect-free, an N=1 federation with traffic off is byte-identical
to a standalone ``build_site`` world run for the same duration -- the
parity regression the tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.site import Site, build_site
from repro.federation.config import DIGEST_PERIOD, FederationConfig, SiteSpec
from repro.federation.traffic import GeoTrafficDriver
from repro.net.nameservice import FederatedNameService
from repro.net.network import Wan
from repro.net.routing import WanCourier
from repro.ontology.dgspl import FederatedDgspl, digest_of
from repro.relocate.crosssite import CrossSiteRelocator
from repro.sim.rand import RandomStreams
from repro.traffic.engine import doors_for_site
from repro.traffic.frontdoor import GeoFrontDoor
from repro.traffic.workload import FINANCIAL_REGIONS, regional_curves

__all__ = ["Federation", "build_federation"]


@dataclass
class Federation:
    """Handles to the federated world."""

    config: FederationConfig
    #: site name -> its Site world, insertion-ordered by name
    sites: Dict[str, Site]
    wan: Wan
    courier: WanCourier
    nameservice: FederatedNameService
    fed_dgspl: FederatedDgspl
    streams: RandomStreams
    geo: Optional[GeoFrontDoor] = None
    traffic: Optional[GeoTrafficDriver] = None
    crosssite: Optional[CrossSiteRelocator] = None
    now: float = 0.0
    #: sites the monitor currently believes lost
    lost_sites: set = field(default_factory=set)
    traffic_on: bool = False
    _next_digest: float = 0.0
    site_loss_events: int = 0
    site_recovery_events: int = 0

    # -- lifecycle -----------------------------------------------------------

    def start_traffic(self) -> None:
        """Begin serving user demand from the next :meth:`run` epoch
        (kept explicit so warm-up runs don't pollute the SLIs)."""
        if self.traffic is None:
            raise RuntimeError("federation built with with_traffic=False")
        self.traffic_on = True

    def run(self, seconds: float) -> None:
        """Advance the whole federation ``seconds`` forward in
        lockstep epochs."""
        end = self.now + seconds
        epoch = self.config.epoch
        while self.now < end - 1e-9:
            dt = min(epoch, end - self.now)
            self._barrier(self.now)
            if self.traffic is not None and self.traffic_on:
                self.traffic.tick(self.now, dt)
            target = self.now + dt
            for name in sorted(self.sites):
                self.sites[name].sim.run(until=target)
            self.now = target

    # -- the barrier control plane -------------------------------------------

    def _barrier(self, now: float) -> None:
        if now >= self._next_digest - 1e-9:
            self._exchange_digests(now)
            self._next_digest = now + DIGEST_PERIOD
        self._monitor(now)
        if self.crosssite is not None:
            self.crosssite.tick(now)

    def _exchange_digests(self, now: float) -> None:
        """Ship every site's DGSPL digest over the WAN.  A site's
        digest reaches the merged view iff at least one peer can still
        talk to it (single-site federations short-circuit: the digest
        is local)."""
        for name in sorted(self.sites):
            site = self.sites[name]
            dgspl = (site.admin.current_dgspl()
                     if site.admin is not None else None)
            if dgspl is None:
                continue
            if len(self.sites) > 1:
                delivered = any(
                    self.courier.send(name, peer).ok
                    for peer in sorted(self.sites) if peer != name)
                if not delivered:
                    continue
            digest = digest_of(dgspl, name,
                               hosts_up=len(site.dc.up_hosts()))
            self.fed_dgspl.ingest(digest, now)

    def _site_dark(self, site: Site) -> bool:
        """All user-facing tiers down -- the site-loss predicate."""
        dc = site.dc
        for group in ("db", "frontend"):
            if any(h.is_up for h in dc.group(group)):
                return False
        return True

    def _monitor(self, now: float) -> None:
        """Detect site-loss and recovery transitions."""
        for name in sorted(self.sites):
            dark = self._site_dark(self.sites[name])
            if dark and name not in self.lost_sites:
                self.lost_sites.add(name)
                self.site_loss_events += 1
                if self.geo is not None:
                    self.geo.flag_down(name)
                if self.crosssite is not None:
                    self.crosssite.site_loss(name, now)
            elif not dark and name in self.lost_sites:
                self.lost_sites.discard(name)
                self.site_recovery_events += 1
                if self.geo is not None:
                    self.geo.flag_up(name)
                if self.crosssite is not None:
                    self.crosssite.lost_sites.discard(name)

    def _page(self, subject: str, reason: str) -> None:
        """Page through the first surviving site's channel."""
        for name in sorted(self.sites):
            if name in self.lost_sites:
                continue
            self.sites[name].notifications.sms(
                "oncall-admin", f"federation: {subject}: {reason}",
                severity="critical", sender="federation")
            return

    # -- reporting -----------------------------------------------------------

    def site_summary(self, name: str) -> dict:
        site = self.sites[name]
        dc = site.dc
        hosts_total = len(dc.hosts)
        hosts_up = len(dc.up_hosts())
        out = {
            "hosts_up": hosts_up,
            "hosts_total": hosts_total,
            "open_conditions": hosts_total - hosts_up,
            "lost": name in self.lost_sites,
        }
        if self.traffic is not None:
            roll = self.traffic.site_rollup(name)
            out["attempted"] = round(roll["attempted"], 6)
            out["served"] = round(roll["served"], 6)
            out["availability"] = round(roll["availability"], 9)
            out["user_minutes_lost"] = round(
                self.traffic.user_minutes_lost.get(name, 0.0), 6)
        if self.crosssite is not None:
            out["takeovers_hosted"] = sum(
                1 for t in self.crosssite.takeovers
                if t.target_site == name)
        return out

    def summary(self) -> dict:
        out = {
            "now": self.now,
            "sites": {name: self.site_summary(name)
                      for name in sorted(self.sites)},
            "site_loss_events": self.site_loss_events,
            "site_recovery_events": self.site_recovery_events,
            "wan": {"delivered": self.courier.delivered,
                    "failed": self.courier.failed},
        }
        if self.traffic is not None:
            out["global"] = self.traffic.global_rollup()
            out["global"]["availability"] = round(
                out["global"]["availability"], 9)
            out["geo"] = {"steered": self.geo.steered,
                          "remote_steered": self.geo.remote_steered,
                          "shed": self.geo.shed_total}
        if self.crosssite is not None:
            out["crosssite"] = {
                "attempted": self.crosssite.attempted,
                "succeeded": self.crosssite.succeeded,
                "failed": self.crosssite.failed,
                "paged": self.crosssite.paged,
            }
        return out


def build_federation(config: FederationConfig) -> Federation:
    """Assemble the federated world from a :class:`FederationConfig`."""

    sites: Dict[str, Site] = {}
    for spec in sorted(config.sites, key=lambda s: s.name):
        sites[spec.name] = build_site(spec.config)

    wan = Wan()
    names = sorted(sites)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            wan.connect(a, b, base_latency_ms=config.pair_latency_ms(a, b))
    courier = WanCourier(wan)

    nameservice = FederatedNameService(wan)
    for name, site in sites.items():
        nameservice.delegate(name, site.nameservice)

    fed_dgspl = FederatedDgspl()
    streams = RandomStreams(config.seed)

    fed = Federation(config=config, sites=sites, wan=wan, courier=courier,
                     nameservice=nameservice, fed_dgspl=fed_dgspl,
                     streams=streams)
    # build_site ends with an in-simulator warm-up, so a freshly built
    # site's clock is already past zero.  The federation clock must pick
    # up from there (and every site must reach the same origin) or an
    # N=1 run would advance the site less than a standalone run of the
    # same duration -- breaking the parity contract.
    fed.now = max(site.sim.now for site in sites.values())
    for name in sorted(sites):
        sites[name].sim.run(until=fed.now)
    fed._next_digest = fed.now

    if config.cross_site_relocation:
        crosssite = CrossSiteRelocator(wan=wan, page_cb=fed._page)
        for name, site in sites.items():
            crosssite.register_site(name, site)
            if site.admin is not None:
                site.admin.cross_site_cb = (
                    lambda host, reason, _name=name, _site=site:
                    crosssite.relocate_host(_name, host,
                                            _site.sim.now, reason))
        fed.crosssite = crosssite

    if config.with_traffic:
        by_region = {spec.region: spec for spec in config.sites}
        home_site = {region.name: by_region[region.name].name
                     for region in FINANCIAL_REGIONS}
        latency = {}
        for region in FINANCIAL_REGIONS:
            for spec in config.sites:
                latency[(region.name, spec.name)] = spec.latency_for(
                    region.name)
        geo = GeoFrontDoor(fed_dgspl, home_site=home_site,
                           region_latency_ms=latency,
                           geo_steering=config.geo_steering)
        traffic = GeoTrafficDriver(regional_curves(config.population), geo,
                                   fed.crosssite, streams)
        for name, site in sites.items():
            geo.register_site(name)
            doors = doors_for_site(site)
            if site.reroute is not None:
                for door in doors.values():
                    site.reroute.register_door(door)
            if site.ledger is not None:
                for door in doors.values():
                    door.attach_ledger(site.ledger)
            traffic.attach_site(name, doors)
        fed.geo = geo
        fed.traffic = traffic

    return fed
