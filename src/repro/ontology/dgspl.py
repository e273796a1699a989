"""Dynamic global service profile lists (DGSPL).

"Information about all running and available services across the entire
datacentre.  Available services are presented by <Server type, OS,
memory and CPUs, Application type and version, Current Load, Users
logged in, Geographical Location, Site Name>."

Built by the administration servers from collected DLSPs, regenerated
"per database type every 15 minutes on average", and queried by the
job manager to produce the best-server-first shortlist for
resubmissions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional

from repro.cluster.specs import SPEC_CATALOGUE
from repro.ontology.base import OntologyDoc, OntologyError
from repro.ontology.dlsp import Dlsp
from repro.persist.core import Persistent, table

__all__ = ["GlobalServiceEntry", "Dgspl", "build_dgspl", "host_entries",
           "TierDigest", "SiteDigest", "digest_of", "FederatedDgspl",
           "DIGEST_FRESHNESS"]

#: a site's digest ages out of the merged view past this, on either
#: clock (generated or received)
DIGEST_FRESHNESS = 1800.0


@dataclass(frozen=True)
class GlobalServiceEntry:
    """One available service, exactly the paper's 8-tuple."""

    server: str
    server_type: str
    os: str
    ram_mb: int
    cpus: int
    app_name: str
    app_type: str
    app_version: str
    current_load: float
    users: int
    location: str
    site: str

    @property
    def power(self) -> float:
        spec = SPEC_CATALOGUE.get(self.server_type)
        if spec is not None:
            return spec.power
        return float(self.cpus * 400 + self.ram_mb / 16.0)


class Dgspl:
    """The datacentre-wide service list."""

    def __init__(self, generated_at: float = 0.0):
        self.generated_at = generated_at
        self.entries: List[GlobalServiceEntry] = []

    def add(self, entry: GlobalServiceEntry) -> None:
        self.entries.append(entry)

    # -- queries -------------------------------------------------------------

    def services_of_type(self, app_type: str) -> List[GlobalServiceEntry]:
        return [e for e in self.entries if e.app_type == app_type]

    def shortlist(self, app_type: str, *, min_power: float = 0.0,
                  exclude_servers: Iterable[str] = ()
                  ) -> List[GlobalServiceEntry]:
        """Best-first candidates: running services of the right type,
        power >= min_power, not excluded, ordered by (load asc, power
        desc) -- "the best available database server ... in a shortlist,
        with the best choice always first"."""
        excluded = set(exclude_servers)
        out = [e for e in self.services_of_type(app_type)
               if e.server not in excluded and e.power >= min_power]
        out.sort(key=lambda e: (e.current_load, -e.power, e.server))
        return out

    def power_of(self, server: str) -> float:
        for e in self.entries:
            if e.server == server:
                return e.power
        return 0.0

    # -- codec -------------------------------------------------------------------

    def render(self) -> List[str]:
        """The document's lines in one pass, spelled as ``Dlsp.render``."""
        one_line = OntologyDoc._check_value
        lines = OntologyDoc.header("DGSPL", self.generated_at)
        for e in self.entries:
            lines += (
                "", "record=service", f"server={one_line(e.server)}",
                f"server_type={one_line(e.server_type)}",
                f"os={one_line(e.os)}", f"ram_mb={e.ram_mb}",
                f"cpus={e.cpus}", f"app_name={one_line(e.app_name)}",
                f"app_type={one_line(e.app_type)}",
                f"app_version={one_line(e.app_version)}",
                f"current_load={e.current_load!r}", f"users={e.users}",
                f"location={one_line(e.location)}",
                f"site={one_line(e.site)}")
        return lines

    @classmethod
    def from_doc(cls, doc: OntologyDoc) -> "Dgspl":
        if doc.kind != "DGSPL":
            raise OntologyError(f"not a DGSPL document: {doc.kind!r}")
        out = cls(doc.generated_at)
        for r in doc.of_type("service"):
            out.add(GlobalServiceEntry(
                server=r["server"], server_type=r["server_type"],
                os=r["os"], ram_mb=int(r["ram_mb"]), cpus=int(r["cpus"]),
                app_name=r["app_name"], app_type=r["app_type"],
                app_version=r["app_version"],
                current_load=float(r["current_load"]),
                users=int(r["users"]), location=r["location"],
                site=r["site"]))
        return out


def host_entries(dlsp: Dlsp) -> List[GlobalServiceEntry]:
    """One host's contribution to the global list.  Only *healthy*
    services on *up* hosts are "available" -- the whole point is that
    the shortlist never offers a dead server.  The incremental control
    plane caches this per host and recomputes it only for hosts whose
    DLSP changed since the last build."""
    if not dlsp.up:
        return []
    return [GlobalServiceEntry(
        server=dlsp.hostname, server_type=dlsp.model, os=dlsp.os,
        ram_mb=dlsp.ram_mb, cpus=dlsp.cpus,
        app_name=svc.name, app_type=svc.app_type,
        app_version=svc.version, current_load=dlsp.load_avg,
        users=dlsp.users, location=dlsp.location, site=dlsp.site)
        for svc in dlsp.services if svc.healthy]


def build_dgspl(dlsps: Iterable[Dlsp], now: float = 0.0) -> Dgspl:
    """Aggregate collected DLSPs into the global list (the full
    rebuild; the ledger-driven path assembles the same entries from
    its per-host cache)."""
    out = Dgspl(now)
    for dlsp in dlsps:
        out.entries.extend(host_entries(dlsp))
    return out


# -- federation: per-site digests instead of raw DLSPs -----------------------

@dataclass(frozen=True)
class TierDigest:
    """One application tier of one site, aggregated."""

    app_type: str
    services: int            # healthy services advertised
    hosts: int               # distinct servers carrying them
    total_load: float
    total_power: float

    @property
    def mean_load(self) -> float:
        return self.total_load / self.services if self.services else 0.0

    @classmethod
    def from_dict(cls, doc: dict) -> "TierDigest":
        return cls(app_type=str(doc["app_type"]),
                   services=int(doc["services"]), hosts=int(doc["hosts"]),
                   total_load=float(doc["total_load"]),
                   total_power=float(doc["total_power"]))


@dataclass(frozen=True)
class SiteDigest:
    """What one site ships to the federation instead of its raw DLSPs.

    Shipping every DLSP across the WAN would scale the control-plane
    traffic with host count; the digest scales with *tier* count.  The
    federation's global view is assembled from these, each under its
    own freshness window (:class:`FederatedDgspl`).
    """

    site: str
    generated_at: float
    hosts_up: int
    tiers: Dict[str, TierDigest]

    def capacity(self, app_type: str) -> float:
        """Spare-power score the geo steering weighs: aggregate tier
        power deflated by its mean load."""
        tier = self.tiers.get(app_type)
        if tier is None or tier.services == 0:
            return 0.0
        return tier.total_power / (1.0 + tier.mean_load)

    @classmethod
    def from_dict(cls, doc: dict) -> "SiteDigest":
        return cls(site=str(doc["site"]),
                   generated_at=float(doc["generated_at"]),
                   hosts_up=int(doc["hosts_up"]),
                   tiers={k: TierDigest.from_dict(t)
                          for k, t in doc["tiers"].items()})


def digest_of(dgspl: Dgspl, site: str, *, hosts_up: int = 0) -> SiteDigest:
    """Aggregate a site's DGSPL into its federation digest."""
    by_tier: Dict[str, List[GlobalServiceEntry]] = {}
    for entry in dgspl.entries:
        by_tier.setdefault(entry.app_type, []).append(entry)
    tiers = {
        app_type: TierDigest(
            app_type=app_type,
            services=len(entries),
            hosts=len({e.server for e in entries}),
            total_load=sum(e.current_load for e in entries),
            total_power=sum(e.power for e in entries))
        for app_type, entries in sorted(by_tier.items())
    }
    return SiteDigest(site=site, generated_at=dgspl.generated_at,
                      hosts_up=hosts_up, tiers=tiers)


class FederatedDgspl(Persistent):
    """The global service view, merged from per-site digests.

    Each site's digest carries two clocks: when the site *generated*
    it (its own DGSPL build time) and when the federation *received*
    it (the last successful WAN exchange).  A digest is fresh only if
    both are inside :data:`DIGEST_FRESHNESS` -- a partitioned site
    stops being received, a dead site stops generating, and either
    path ages the site out of the merged view.
    """

    _persist = (table("digests", SiteDigest.from_dict, asdict),
                table("received_at", float))

    def __init__(self):
        self.digests: Dict[str, SiteDigest] = {}
        self.received_at: Dict[str, float] = {}

    def ingest(self, digest: SiteDigest, now: float) -> None:
        self.digests[digest.site] = digest
        self.received_at[digest.site] = float(now)

    def is_fresh(self, site: str, now: float) -> bool:
        digest = self.digests.get(site)
        if digest is None:
            return False
        return (now - self.received_at[site] <= DIGEST_FRESHNESS
                and now - digest.generated_at <= DIGEST_FRESHNESS)
