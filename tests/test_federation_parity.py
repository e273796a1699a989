"""Federation world contracts: N=1 parity with the single-site build,
byte-identical determinism, and checkpoint/restore equivalence."""

from __future__ import annotations

import json

from repro.experiments.site import SiteConfig, build_site
from repro.federation import (FederationConfig, SiteSpec,
                              build_federation, three_site_config)
from repro.persist import (restore_federation, sealed_federation,
                           snapshot_site)
from repro.persist.core import discard
from repro.sim.calendar import HOUR


def _solo_config(seed: int = 5) -> SiteConfig:
    return SiteConfig.test_scale(site_name="london", seed=seed,
                                 with_workload=False,
                                 spare_servers=1)


def _one_site_federation(seed: int = 5) -> FederationConfig:
    return FederationConfig(
        sites=[SiteSpec("london", "emea", _solo_config(seed))],
        with_traffic=False)


def test_n1_federation_is_byte_identical_to_standalone_site():
    """The refactor contract: wrapping one site in a federation (no
    traffic tier, nothing to steer to) must not perturb a single
    random draw -- the site's full state hash matches a standalone
    build run for the same duration."""
    until = 2 * HOUR + 5.0

    solo = build_site(_solo_config())
    solo.sim.run(until=until)
    solo_hash = snapshot_site(solo)["state_hash"]

    fed = build_federation(_one_site_federation())
    fed.run(until - fed.now)
    fed_hash = snapshot_site(fed.sites["london"])["state_hash"]

    assert fed_hash == solo_hash


def test_three_site_run_is_deterministic():
    """Same config, same seed, fresh processes of the barrier loop:
    the summaries (counters, availability, WAN stats) are identical."""

    def one_run() -> str:
        fed = build_federation(three_site_config(population=60_000))
        fed.start_traffic()
        fed.run(1 * HOUR - fed.now)
        site = fed.sites["nyc"]
        for name in sorted(site.dc.hosts):
            site.dc.hosts[name].crash()
        fed.run(1 * HOUR)
        return json.dumps(fed.summary(), sort_keys=True)

    assert one_run() == one_run()


def test_checkpoint_restore_continues_identically():
    """Snapshot mid-run, restore into a fresh federation, run both to
    the end: the restored arm must match the uninterrupted one, and
    re-snapshotting at the checkpoint must be idempotent."""
    def build():
        fed = build_federation(three_site_config(population=60_000))
        fed.start_traffic()
        return fed

    fed = build()
    fed.run(1 * HOUR - fed.now)
    snap = sealed_federation(fed, write=discard)

    restored = restore_federation(snap, fed=build())
    assert sealed_federation(restored, write=discard)["state_hash"] \
        == snap["state_hash"]

    fed.run(1 * HOUR)
    restored.run(1 * HOUR)
    assert (json.dumps(restored.summary(), sort_keys=True)
            == json.dumps(fed.summary(), sort_keys=True))


def test_site_loss_is_detected_and_survivors_host_takeovers():
    """The headline behaviour at test scale: a dead site is flagged,
    the survivors pick up its pinned databases, and recovery of the
    remaining sites' service keeps global availability partial, not
    zero."""
    fed = build_federation(three_site_config(population=60_000))
    fed.start_traffic()
    fed.run(1 * HOUR - fed.now)
    site = fed.sites["nyc"]
    for name in sorted(site.dc.hosts):
        site.dc.hosts[name].crash()
    fed.run(1 * HOUR)

    summary = fed.summary()
    assert summary["site_loss_events"] == 1
    assert "nyc" in fed.lost_sites
    assert summary["crosssite"]["succeeded"] > 0
    hosted = sum(s["takeovers_hosted"]
                 for name, s in summary["sites"].items() if name != "nyc")
    assert hosted == summary["crosssite"]["succeeded"]
    assert 0.0 < summary["global"]["availability"] < 1.0
    assert summary["global"]["user_minutes_lost"] > 0.0
