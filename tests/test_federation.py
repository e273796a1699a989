"""Federation building blocks: WAN links, cross-site name service,
digest freshness, regional demand and the geo front door."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.nameservice import FederatedNameService, NameService
from repro.net.network import Wan, WanLink
from repro.net.routing import WanCourier
from repro.ontology.dgspl import FederatedDgspl, SiteDigest, TierDigest
from repro.sim import Simulator
from repro.traffic.frontdoor import GeoFrontDoor
from repro.traffic.slo import Sli, rollup_slis
from repro.traffic.workload import (FINANCIAL_CLASSES, DemandCurve,
                                    financial_curve, regional_curves)


# -- WAN links ---------------------------------------------------------------


def _wan():
    wan = Wan()
    wan.connect("lon", "nyc", base_latency_ms=35.0)
    wan.connect("hkg", "lon", base_latency_ms=90.0)
    wan.connect("hkg", "nyc", base_latency_ms=100.0)
    return wan


def test_wanlink_partition_means_unreachable_not_slow():
    """The core semantic split: a partitioned line fails sends outright
    (latency is meaningless), a degraded line still delivers -- slowly."""
    link = WanLink("lon", "nyc", base_latency_ms=35.0)
    ok, ms = link.send(4096)
    assert ok and ms == 35.0

    link.partition()
    assert not link.reachable()
    ok, ms = link.send(4096)
    assert not ok
    assert link.latency_ms() == 0.0     # no number: nothing crosses
    assert link.drops == 1

    link.repair()
    link.degrade()
    assert link.reachable()             # slow is still reachable
    ok, ms = link.send(4096)
    assert ok and ms == 35.0 * WanLink.DEGRADED_FACTOR


def test_wan_partition_site_cuts_every_line_and_repairs():
    wan = _wan()
    wan.partition_site("nyc")
    assert not wan.link("lon", "nyc").reachable()
    assert not wan.link("hkg", "nyc").reachable()
    assert wan.link("hkg", "lon").reachable()      # the survivors still talk
    wan.repair_site("nyc")
    assert wan.link("lon", "nyc").reachable()


def test_wan_courier_counts_partition_failures():
    wan = _wan()
    courier = WanCourier(wan)
    assert courier.send("lon", "nyc").ok
    wan.partition_site("nyc")
    d = courier.send("lon", "nyc")
    assert not d.ok and d.error == "wan-partitioned"
    assert courier.delivered == 1 and courier.failed == 1


# -- federated name service --------------------------------------------------


def _fed_ns():
    sim = Simulator()
    wan = _wan()
    fns = FederatedNameService(wan)
    zones = {}
    for site in ("hkg", "lon", "nyc"):
        zones[site] = NameService(sim)
        fns.delegate(site, zones[site])
    return wan, fns, zones


def test_federated_lookup_delegates_across_the_wan():
    wan, fns, zones = _fed_ns()
    zones["nyc"].register("db01", "192.168.1.10")
    ip, ms, authority = fns._ask("db01", "lon", "nyc")
    assert ip == "192.168.1.10"
    assert authority == "nyc"
    assert ms >= 2 * 35.0               # at least one WAN round trip


def test_federated_lookup_fails_closed_under_partition():
    wan, fns, zones = _fed_ns()
    zones["nyc"].register("db01", "192.168.1.10")
    wan.partition_site("nyc")
    ip, ms, authority = fns._ask("db01", "lon", "nyc")
    assert ip is None and authority is None
    assert fns.wan_failures == 1


def test_resolve_service_prefers_home_then_searches_peers():
    wan, fns, zones = _fed_ns()
    zones["lon"].register("svc.oracle_db000", "10.1.0.5")
    ip, ms, authority = fns.resolve_service("svc.oracle_db000",
                                            from_site="nyc")
    assert ip == "10.1.0.5" and authority == "lon"
    # home zone wins over any peer copy
    zones["nyc"].register("svc.oracle_db000", "10.2.0.9")
    ip, _ms, authority = fns.resolve_service("svc.oracle_db000",
                                             from_site="nyc")
    assert ip == "10.2.0.9" and authority == "nyc"


# -- federated DGSPL ---------------------------------------------------------


def _digest(site: str, generated_at: float) -> SiteDigest:
    tier = TierDigest(app_type="database", services=4, hosts=4,
                      total_load=2.0, total_power=4000.0)
    return SiteDigest(site=site, generated_at=generated_at, hosts_up=10,
                      tiers={"database": tier})


def test_fed_dgspl_freshness_checks_both_clocks():
    """A site drops out of the merged view when its digest is stale on
    *either* clock: generated long ago (dead site keeps resending old
    state) or received long ago (partitioned site stops arriving)."""
    fd = FederatedDgspl(freshness=600.0)
    fd.ingest(_digest("nyc", generated_at=0.0), now=100.0)
    assert fd.is_fresh("nyc", now=400.0)
    # received recently but generated too long ago
    fd.ingest(_digest("lon", generated_at=0.0), now=700.0)
    assert not fd.is_fresh("lon", now=710.0)
    # generated recently but received too long ago
    assert not fd.is_fresh("nyc", now=800.0)


def test_fed_dgspl_capacity_prices_load():
    fd = FederatedDgspl(freshness=600.0)
    fd.ingest(_digest("nyc", generated_at=50.0), now=100.0)
    cap = fd.digests["nyc"].capacity("database")
    assert cap == pytest.approx(4000.0 / (1.0 + 0.5))


# -- regional demand ---------------------------------------------------------


def test_regional_curves_split_population_exactly():
    curves = regional_curves(1_000_000)
    assert sorted(curves) == ["amer", "apac", "emea"]
    assert sum(c.population for c in curves.values()) == 1_000_000


def test_tz_offset_shifts_the_diurnal_peak():
    """APAC (UTC+8) peaks 8 hours earlier in simulation time."""
    base = financial_curve(100_000)
    apac = DemandCurve(FINANCIAL_CLASSES, 100_000, tz_offset=8 * 3600.0)
    cls = base.classes[0]
    t = 2 * 3600.0                      # 02:00 UTC = 10:00 in APAC
    assert float(apac.rate(cls, t)) > 4 * float(base.rate(cls, t))


def test_zero_tz_offset_is_byte_identical_to_single_site():
    base = financial_curve(250_000)
    shifted = DemandCurve(FINANCIAL_CLASSES, 250_000, tz_offset=0.0)
    t = np.linspace(0.0, 86400.0, 97)
    for cls_a, cls_b in zip(base.classes, shifted.classes):
        assert np.array_equal(base.rate(cls_a, t), shifted.rate(cls_b, t))


# -- geo front door ----------------------------------------------------------


def _geo(geo_steering=True):
    fd = FederatedDgspl(freshness=600.0)
    fd.ingest(_digest("lon", generated_at=50.0), now=100.0)
    fd.ingest(_digest("nyc", generated_at=50.0), now=100.0)
    geo = GeoFrontDoor(
        fd, home_site={"emea": "lon", "amer": "nyc"},
        region_latency_ms={("emea", "lon"): 8.0, ("emea", "nyc"): 75.0,
                           ("amer", "nyc"): 10.0, ("amer", "lon"): 75.0},
        geo_steering=geo_steering)
    geo.register_site("lon")
    geo.register_site("nyc")
    return geo


def test_geo_steering_prefers_the_low_latency_site():
    geo = _geo()
    split, shed = geo.steer("emea", "database", 1000, now=200.0)
    assert shed == 0
    alloc = dict(split)
    assert alloc["lon"] > alloc.get("nyc", 0)


def test_geo_steering_sheds_only_when_every_site_is_dark():
    geo = _geo()
    geo.flag_down("lon")
    split, shed = geo.steer("emea", "database", 1000, now=200.0)
    assert shed == 0 and dict(split) == {"nyc": 1000}
    geo.flag_down("nyc")
    split, shed = geo.steer("emea", "database", 1000, now=200.0)
    assert split == [] and shed == 1000


def test_geo_weight_follows_the_digest_and_the_clock():
    """The weight is kept per ingested digest; a newer digest replaces
    it and freshness is still judged on every call."""
    geo = _geo()
    fd = geo.fed_dgspl
    first = geo._weight("emea", "lon", "database", 200.0)
    assert first == geo._weight("emea", "lon", "database", 300.0)
    assert first == pytest.approx(
        fd.digests["lon"].capacity("database") / (1.0 + 8.0 / 100.0))
    assert geo._weight("amer", "lon", "database", 200.0) < first
    assert geo._weight("emea", "lon", "webserver", 200.0) == 0.0
    assert geo._weight("emea", "lon", "database", 701.0) == 0.0   # stale
    busier = TierDigest(app_type="database", services=4, hosts=4,
                        total_load=12.0, total_power=4000.0)
    fd.ingest(SiteDigest(site="lon", generated_at=690.0, hosts_up=10,
                         tiers={"database": busier}), now=700.0)
    assert 0.0 < geo._weight("emea", "lon", "database", 701.0) < first


def test_geo_steering_disabled_pins_to_home():
    geo = _geo(geo_steering=False)
    split, shed = geo.steer("emea", "database", 1000, now=200.0)
    assert dict(split) == {"lon": 1000}
    geo.flag_down("lon")
    split, shed = geo.steer("emea", "database", 1000, now=200.0)
    assert split == [] and shed == 1000     # no steering: home or nothing


# -- request-weighted rollup -------------------------------------------------


def test_rollup_sums_raw_counters_not_ratios():
    a, b = Sli("db"), Sli("db")
    a.record_batch(90, 10, 5.0)         # 0.9 availability on 100
    b.record_batch(9990, 10, 5.0)       # 0.999 on 10000
    roll = rollup_slis([a, b])
    assert roll["attempted"] == 10100
    # request-weighted: dominated by the big site, not the mean of ratios
    assert roll["availability"] == pytest.approx(10080 / 10100)
