"""Federation configuration: N sites, their regions, and the WAN.

The single-site :class:`repro.experiments.site.SiteConfig` stays the
unit of construction -- a :class:`FederationConfig` is a list of
:class:`SiteSpec` wrappers around it plus the couplings that only
exist *between* datacentres: WAN latency, geo steering and the
cross-site relocation tier.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List

from repro.experiments.site import SiteConfig
from repro.traffic.workload import FINANCIAL_REGIONS

__all__ = ["SiteSpec", "FederationConfig", "three_site_config",
           "DIGEST_PERIOD"]

#: how often sites exchange DGSPL digests over the WAN
DIGEST_PERIOD = 300.0
#: user-path latency (ms) to a site from a region its spec does not list
REMOTE_LATENCY_MS = 150.0
#: pairwise WAN latency (ms) of a site pair no override names
WAN_LATENCY_MS = 70.0


@dataclass
class SiteSpec:
    """One datacentre of the federation."""

    name: str
    #: the user region this site is home to (lowest-latency)
    region: str
    config: SiteConfig
    #: region name -> user-path latency to this site (ms); absent
    #: regions default to ``REMOTE_LATENCY_MS``
    region_latency_ms: Dict[str, float] = field(default_factory=dict)

    def latency_for(self, region: str) -> float:
        if region == self.region:
            return self.region_latency_ms.get(region, 10.0)
        return self.region_latency_ms.get(region, REMOTE_LATENCY_MS)

    def to_dict(self) -> dict:
        return {"name": self.name, "region": self.region,
                "config": asdict(self.config),
                "region_latency_ms": dict(sorted(
                    self.region_latency_ms.items()))}


@dataclass
class FederationConfig:
    """The whole geo-federation."""

    sites: List[SiteSpec]
    #: total users across :data:`FINANCIAL_REGIONS` (split by share)
    population: int = 1_000_000
    #: federation barrier interval: sites advance in lockstep to each
    #: epoch boundary, then the WAN-coupled control plane runs
    epoch: float = 60.0
    #: pairwise WAN latency (ms) by site pair, keys "a|b" with a < b;
    #: other pairs get ``WAN_LATENCY_MS``
    wan_latency_overrides: Dict[str, float] = field(default_factory=dict)
    #: the federation's traffic tier (off for parity/persistence tests)
    with_traffic: bool = True
    #: geo-aware steering of stateless demand (the A/B arm)
    geo_steering: bool = True
    #: cross-site relocation of pinned services (the other A/B arm)
    cross_site_relocation: bool = True
    #: federation-level RNG seed (site worlds keep their own seeds)
    seed: int = 0

    def __post_init__(self):
        names = [s.name for s in self.sites]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate site names: {names}")
        homes = {s.region for s in self.sites}
        for region in FINANCIAL_REGIONS if self.with_traffic else ():
            if region.name not in homes:
                raise ValueError(
                    f"region {region.name!r} has no home site")

    def pair_latency_ms(self, a: str, b: str) -> float:
        key = "|".join(sorted((a, b)))
        return float(self.wan_latency_overrides.get(key, WAN_LATENCY_MS))

    def to_dict(self) -> dict:
        return {
            "sites": [s.to_dict() for s in self.sites],
            "population": self.population,
            "epoch": self.epoch,
            "wan_latency_overrides": dict(sorted(
                self.wan_latency_overrides.items())),
            "with_traffic": self.with_traffic,
            "geo_steering": self.geo_steering,
            "cross_site_relocation": self.cross_site_relocation,
            "seed": self.seed,
        }


def three_site_config(*, population: int = 1_000_000, seed: int = 0,
                      **overrides) -> FederationConfig:
    """The canonical 3-site follow-the-sun federation: London (emea),
    New York (amer), Hong Kong (apac), each a test-scale site with two
    spares."""
    def site_cfg(name: str, offset: int) -> SiteConfig:
        return SiteConfig.test_scale(
            site_name=name, seed=seed + offset, spare_servers=2,
            with_workload=False)

    sites = [
        SiteSpec("hkg", "apac", site_cfg("hkg", 3),
                 region_latency_ms={"apac": 12.0, "emea": 180.0,
                                    "amer": 210.0}),
        SiteSpec("lon", "emea", site_cfg("lon", 1),
                 region_latency_ms={"emea": 8.0, "amer": 75.0,
                                    "apac": 180.0}),
        SiteSpec("nyc", "amer", site_cfg("nyc", 2),
                 region_latency_ms={"amer": 10.0, "emea": 75.0,
                                    "apac": 210.0}),
    ]
    return FederationConfig(
        sites=sites, population=population, seed=seed,
        wan_latency_overrides={"lon|nyc": 35.0, "hkg|lon": 90.0,
                               "hkg|nyc": 100.0},
        **overrides)
