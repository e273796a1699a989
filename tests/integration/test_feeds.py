"""Integration: market-data feeds across the agented site.

§4: market data flowed in from international sites and Reuters.  The
feed rides the public LANs into the databases; when a target database
dies the feed stalls for exactly as long as the healing takes, which is
minutes under the agents.
"""

import pytest

from repro.experiments.site import SiteConfig, build_site
from repro.sim.calendar import HOUR


@pytest.fixture
def site():
    return build_site(SiteConfig.test_scale(seed=61, with_workload=False,
                                            with_feeds=True))


def test_feed_flows_into_databases(site):
    feed = site.feeds[0]
    site.run(1 * HOUR)
    assert feed.ticks_delivered > 0
    assert feed.delivery_rate() == 1.0
    assert all(db.transactions > 0 for db in feed.targets)


def test_feed_stall_bounded_by_healing_time(site):
    feed = site.feeds[0]
    site.run(1 * HOUR)
    victim = feed.targets[0]
    victim.crash("mid-feed")
    site.run(1 * HOUR)
    # the database came back via its agent, so drops are bounded:
    # ~ (detection + restart) / tick interval per target
    assert victim.is_healthy()
    assert feed.ticks_dropped <= 10
    assert feed.delivery_rate() > 0.9
    # and the stall is over
    assert site.sim.now - feed.last_delivery < 3 * feed.interval


def test_feed_survives_one_public_lan(site):
    feed = site.feeds[0]
    site.run(0.5 * HOUR)
    site.dc.lan("public0").fail()
    dropped_before = feed.ticks_dropped
    site.run(1 * HOUR)
    # the second public LAN carries the feed (never the agent LAN)
    assert feed.ticks_dropped == dropped_before
    assert "reuters-gw" in site.dc.lan("agentnet").nics  # attached but unused
