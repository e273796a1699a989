"""Front-door reaction time across a relocation (satellite of the
incremental control plane): a door fed by the condition ledger stops
routing to a flagged-down origin within one ledger delivery --
synchronously at append time -- with no DGSPL refresh or sweep wait.
"""

import pytest

from repro.experiments.site import SiteConfig, build_site
from repro.traffic.frontdoor import FrontDoor


@pytest.fixture
def site():
    return build_site(SiteConfig.test_scale(
        seed=11, spare_servers=1, with_workload=False, with_feeds=False))


def _targets(door, n, now):
    alloc, shed = door.route(n, now)
    return {app.host.name for app, _count in alloc}


def test_host_down_condition_sheds_within_one_delivery(site):
    """A ledger-only door (never told anything directly) sheds the
    crashed origin the instant the down condition is appended -- before
    any admin sweep, DGSPL build or sim step runs."""
    site.run(1200.0)
    door = FrontDoor("frontend", site.frontends)
    door.attach_ledger(site.ledger)
    assert _targets(door, 100, site.sim.now) == {"fe000", "fe001"}

    site.dc.host("fe000").crash("power supply")
    # zero simulated seconds later: the delivery already happened
    assert "fe000" in door._down
    assert door.conditions_applied >= 1
    assert _targets(door, 100, site.sim.now) == {"fe001"}


def test_cutover_restores_routing_via_the_ledger(site):
    """Through the full relocation: drain sheds the origin, cutover
    swaps the target in -- and a directory-registered door needs no
    refresh at any point (it routes correctly at every probe)."""
    site.run(1200.0)
    door = FrontDoor("frontend", site.frontends)
    site.reroute.register_door(door)        # also attaches the ledger
    seen = []                               # conditions, as delivered
    site.ledger.on_append(seen.append)
    victim = site.dc.host("fe000")
    old_fe = victim.apps["finapp_fe000"]

    victim.crash("power supply")
    assert _targets(door, 100, site.sim.now) == {"fe001"}

    site.run(3 * site.admin.watch_period)   # escalate -> relocate
    assert site.relocator.succeeded >= 1
    # relocated instance is routable immediately post-cutover; the dead
    # origin is not
    targets = _targets(door, 100, site.sim.now)
    assert "fe000" not in targets
    assert targets == {"fe001", "sp000"}
    assert old_fe not in door.apps
    # the ledger carried the route phases to every subscriber
    routes = [(c.status, c.host, c.agent)
              for c in seen if c.kind == "route"]
    assert ("drain", "fe000", "finapp_fe000") in routes
    assert any(status == "cutover" and host == "sp000"
               for status, host, _agent in routes)


def test_ledger_only_door_survives_drain_of_other_tiers(site):
    """Route conditions are tier-scoped: a frontend door ignores a
    database drain."""
    site.run(1200.0)
    door = FrontDoor("frontend", site.frontends)
    door.attach_ledger(site.ledger)
    db_app = site.databases[0]
    site.reroute.drain(db_app)
    assert db_app.host.name not in door._down
    assert door._down == set()
