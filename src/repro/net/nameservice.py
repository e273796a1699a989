"""Name service (DNS / NIS / NIS+ / LDAP).

§3.6 lists "name server response (DNS, NIS, NIS+, LDAP)" among the
network measurements.  The model is a registry with a configurable
response time that the network agents probe; an outage makes lookups
fail, which is one of the firewall/network fault flavours in Fig. 2.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.persist.core import Persistent, scalar, table

__all__ = ["FederatedNameService", "NameService"]


class NameService(Persistent):
    """A single logical name server for the site."""

    #: records too, not just health: spare promotion and cutovers can
    #: register names after build, so the table is state
    _persist = (table("records"), scalar("up", bool),
                scalar("degraded", bool))
    #: an answering, undegraded lookup (ms)
    base_response_ms = 2.0

    def __init__(self, sim):
        self.sim = sim
        self.records: Dict[str, str] = {}
        self.up = True
        self.degraded = False      # slow but answering

    def register(self, name: str, ip: str) -> None:
        self.records[name] = ip

    def register_host(self, host) -> None:
        """Register every NIC address of a host."""
        for nic in host.nics.values():
            self.records[f"{host.name}.{nic.lan.name}"] = nic.ip
        self.records.setdefault(host.name, next(
            (n.ip for n in host.nics.values()), "0.0.0.0"))

    def lookup(self, name: str) -> Tuple[Optional[str], float]:
        """Resolve ``name``.  Returns (ip-or-None, response_ms)."""
        if not self.up:
            return (None, 0.0)
        response = self.base_response_ms * (50.0 if self.degraded else 1.0)
        return (self.records.get(name), response)

    def response_ms(self) -> float:
        """What a health probe of the name server observes (negative
        means no answer)."""
        if not self.up:
            return -1.0
        return self.base_response_ms * (50.0 if self.degraded else 1.0)

    def fail(self) -> None:
        self.up = False

    def slow(self) -> None:
        self.degraded = True

    def repair(self) -> None:
        self.up = True
        self.degraded = False


class FederatedNameService:
    """Cross-site delegation over the per-site authoritative servers.

    Each site keeps its own :class:`NameService` as the authority for
    its zone.  A lookup in another site's zone delegates to it over
    the WAN: a *partitioned* link fails the lookup outright
    (unreachable), a degraded remote server merely inflates the
    response time -- the two must stay distinguishable.
    :meth:`resolve_service` searches all zones
    home-first, which is how a cross-site cutover would become visible:
    the takeover site registers the ``svc.<app>`` alias in *its* zone
    and every other site finds it there on the next resolution.  No
    product run resolves a service across sites yet.
    """

    def __init__(self, wan):
        self.wan = wan
        self.zones: Dict[str, NameService] = {}

    def delegate(self, site: str, ns: NameService) -> None:
        """Install ``ns`` as the authority for ``site``'s zone."""
        self.zones[site] = ns

    def _ask(self, name: str, from_site: str, target: str
             ) -> Tuple[Optional[str], float, Optional[str]]:
        zone = self.zones.get(target)
        if zone is None:
            return (None, 0.0, None)
        wan_ms = 0.0
        if target != from_site:
            delivered, wan_ms = self.wan.send(from_site, target, 512)
            if not delivered:
                return (None, 0.0, None)
        ip, response_ms = zone.lookup(name)
        if ip is None:
            return (None, 2.0 * wan_ms + response_ms, target)
        return (ip, 2.0 * wan_ms + response_ms, target)

    def resolve_service(self, alias: str, from_site: str
                        ) -> Tuple[Optional[str], float, Optional[str]]:
        """Find a service alias wherever it lives: the caller's own
        zone first, then every reachable peer zone in name order."""
        order = [from_site] + [s for s in sorted(self.zones)
                               if s != from_site]
        spent_ms = 0.0
        for site in order:
            ip, ms, authority = self._ask(alias, from_site, site)
            spent_ms += ms
            if ip is not None:
                return (ip, spent_ms, authority)
        return (None, spent_ms, None)
