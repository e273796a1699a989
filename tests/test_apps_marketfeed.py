"""Unit tests for the market data feed."""

import pytest

from repro.apps.marketfeed import MarketFeed


@pytest.fixture
def feed(dc, database):
    f = MarketFeed(dc, "reuters", "adm02", [database], interval=60.0)
    f.start()
    return f


def test_ticks_flow_into_database(sim, feed, database):
    t0 = database.transactions
    sim.run(until=sim.now + 600.0)
    assert feed.ticks_delivered >= 9
    assert feed.ticks_dropped == 0
    assert database.transactions > t0
    assert feed.delivery_rate() == 1.0


def test_ticks_drop_when_db_down(sim, feed, database):
    sim.run(until=sim.now + 300.0)
    database.crash("x")
    sim.run(until=sim.now + 300.0)
    assert feed.ticks_dropped >= 4
    assert feed.delivery_rate() < 1.0


def test_stall_detection(sim, feed, database):
    sim.run(until=sim.now + 120.0)
    assert sim.now - feed.last_delivery < 120.0
    database.crash("x")
    sim.run(until=sim.now + 600.0)
    assert sim.now - feed.last_delivery >= 500.0


def test_network_outage_drops_ticks(sim, feed, dc):
    sim.run(until=sim.now + 120.0)
    dc.lan("public0").fail()
    dc.lan("agentnet").fail()
    dropped0 = feed.ticks_dropped
    sim.run(until=sim.now + 300.0)
    assert feed.ticks_dropped > dropped0


def test_stop_halts_pump(sim, feed):
    sim.run(until=sim.now + 120.0)
    sent = feed.ticks_sent
    feed.stop()
    sim.run(until=sim.now + 600.0)
    assert feed.ticks_sent == sent
    # double stop is safe
    feed.stop()


def test_start_idempotent(sim, feed):
    feed.start()
    sim.run(until=sim.now + 120.0)
    # one pump only: ticks at 60s cadence, 2 per 120s per target
    assert feed.ticks_sent <= 3
