"""Federation configuration: N sites, their regions, and the WAN.

The single-site :class:`repro.experiments.site.SiteConfig` stays the
unit of construction -- a :class:`FederationConfig` is a list of
:class:`SiteSpec` wrappers around it plus the couplings that only
exist *between* datacentres: WAN latency, digest cadence and freshness,
geo steering and the cross-site relocation tier.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.site import SiteConfig
from repro.traffic.workload import FINANCIAL_REGIONS, Region

__all__ = ["SiteSpec", "FederationConfig", "three_site_config"]


@dataclass
class SiteSpec:
    """One datacentre of the federation."""

    name: str
    #: the user region this site is home to (lowest-latency)
    region: str
    config: SiteConfig
    #: region name -> user-path latency to this site (ms); absent
    #: regions default to ``remote_latency_ms``
    region_latency_ms: Dict[str, float] = field(default_factory=dict)
    remote_latency_ms: float = 150.0

    def latency_for(self, region: str) -> float:
        if region == self.region:
            return self.region_latency_ms.get(region, 10.0)
        return self.region_latency_ms.get(region, self.remote_latency_ms)

    def to_dict(self) -> dict:
        return {"name": self.name, "region": self.region,
                "config": asdict(self.config),
                "region_latency_ms": dict(sorted(
                    self.region_latency_ms.items())),
                "remote_latency_ms": self.remote_latency_ms}


@dataclass
class FederationConfig:
    """The whole geo-federation."""

    sites: List[SiteSpec]
    regions: Tuple[Region, ...] = FINANCIAL_REGIONS
    #: total users across all regions (split by region share)
    population: int = 1_000_000
    #: federation barrier interval: sites advance in lockstep to each
    #: epoch boundary, then the WAN-coupled control plane runs
    epoch: float = 60.0
    #: how often sites exchange DGSPL digests over the WAN
    digest_period: float = 300.0
    #: per-site digest freshness window (both clocks: generated and
    #: received); a site outside it drops out of the merged view
    digest_freshness: float = 1800.0
    #: pairwise WAN latency (ms); keys "a|b" with a < b override the
    #: default for specific site pairs
    wan_latency_ms: float = 70.0
    wan_latency_overrides: Dict[str, float] = field(default_factory=dict)
    #: the federation's traffic tier (off for parity/persistence tests)
    with_traffic: bool = True
    #: geo-aware steering of stateless demand (the A/B arm)
    geo_steering: bool = True
    #: cross-site relocation of pinned services (the other A/B arm)
    cross_site_relocation: bool = True
    #: fraction of each class's demand pinned to its home site (data
    #: gravity: the db tier cannot be steered away)
    pinned_fraction: Dict[str, float] = field(
        default_factory=lambda: {"db": 1.0})
    #: federation-level RNG seed (site worlds keep their own seeds)
    seed: int = 0

    def __post_init__(self):
        names = [s.name for s in self.sites]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate site names: {names}")
        homes = {s.region for s in self.sites}
        for region in self.regions:
            if region.name not in homes:
                raise ValueError(
                    f"region {region.name!r} has no home site")

    def pair_latency_ms(self, a: str, b: str) -> float:
        key = "|".join(sorted((a, b)))
        return float(self.wan_latency_overrides.get(
            key, self.wan_latency_ms))

    def to_dict(self) -> dict:
        return {
            "sites": [s.to_dict() for s in self.sites],
            "regions": [[r.name, r.share, r.utc_offset_hours]
                        for r in self.regions],
            "population": self.population,
            "epoch": self.epoch,
            "digest_period": self.digest_period,
            "digest_freshness": self.digest_freshness,
            "wan_latency_ms": self.wan_latency_ms,
            "wan_latency_overrides": dict(sorted(
                self.wan_latency_overrides.items())),
            "with_traffic": self.with_traffic,
            "geo_steering": self.geo_steering,
            "cross_site_relocation": self.cross_site_relocation,
            "pinned_fraction": dict(sorted(self.pinned_fraction.items())),
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
            with_workload=False, with_feeds=False)

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
