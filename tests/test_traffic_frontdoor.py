"""Unit tests for the QoS-aware front door."""

import pytest

from repro.ontology.dgspl import Dgspl, GlobalServiceEntry
from repro.traffic.frontdoor import FrontDoor


class FakeHost:
    def __init__(self, name):
        self.name = name


class FakeApp:
    def __init__(self, host, name):
        self.host = FakeHost(host)
        self.name = name


def apps(*hosts):
    return [FakeApp(h, "httpd") for h in hosts]


def entry(server, load):
    return GlobalServiceEntry(
        server=server, server_type="ibm-sp2", os="aix", ram_mb=1024,
        cpus=4, app_name="httpd", app_type="webserver", app_version="1",
        current_load=load, users=0, location="dc", site="site")


def dgspl_at(t, loads):
    d = Dgspl(generated_at=t)
    for server, load in loads.items():
        d.add(entry(server, load))
    return d


def test_requires_servers():
    with pytest.raises(ValueError):
        FrontDoor("webserver", [])


def test_round_robin_split_exact_and_rotating():
    door = FrontDoor("webserver", apps("a", "b", "c"))
    alloc, shed = door.route(10, now=0.0)
    assert shed == 0
    assert sum(c for _, c in alloc) == 10
    counts = {a.host.name: c for a, c in alloc}
    assert counts == {"a": 4, "b": 3, "c": 3}
    # the extra request rotates on the next batch
    alloc, shed = door.route(10, now=0.0)
    counts = {a.host.name: c for a, c in alloc}
    assert counts == {"a": 3, "b": 4, "c": 3}
    assert shed == 0 and sum(counts.values()) == 10   # 20 routed in all


def test_weighted_split_favours_low_load():
    door = FrontDoor("webserver", apps("a", "b"),
                     dgspl_fn=lambda: dgspl_at(0.0, {"a": 0.0, "b": 4.0}))
    alloc, shed = door.route(1000, now=10.0)
    assert shed == 0
    counts = {a.host.name: c for a, c in alloc}
    # weights 1.0 vs 0.2 -> ~833/167
    assert counts["a"] > 4 * counts["b"]
    assert counts["a"] + counts["b"] == 1000
    # largest-remainder rounding of 1000 * (1.0, 0.2) / 1.2
    assert counts == {"a": 833, "b": 167}


def test_stale_dgspl_degrades_to_round_robin():
    door = FrontDoor("webserver", apps("a", "b"),
                     dgspl_fn=lambda: dgspl_at(0.0, {"a": 0.0, "b": 9.0}))
    alloc, _ = door.route(100, now=10_000.0)  # DGSPL 10000 s old: stale
    assert {a.host.name: c for a, c in alloc} == {"a": 50, "b": 50}
    alloc, _ = door.route(100, now=800.0)     # fresh again: weighted
    counts = {a.host.name: c for a, c in alloc}
    assert counts["a"] > 4 * counts["b"]


def test_absent_dgspl_is_round_robin():
    door = FrontDoor("webserver", apps("a", "b"),
                     dgspl_fn=lambda: None)
    alloc, _ = door.route(10, now=0.0)
    assert {a.host.name: c for a, c in alloc} == {"a": 5, "b": 5}


def test_flag_down_redistributes_then_sheds():
    door = FrontDoor("webserver", apps("a", "b"))
    door.flag_down("a")
    alloc, shed = door.route(10, now=0.0)
    assert shed == 0
    assert {a.host.name for a, _ in alloc} == {"b"}
    door.flag_down("b")
    alloc, shed = door.route(10, now=0.0)
    assert alloc == [] and shed == 10
    assert door.shed_total == 10
    door.flag_up("a")
    alloc, shed = door.route(10, now=0.0)
    assert shed == 0 and {a.host.name for a, _ in alloc} == {"a"}


def test_flagged_server_excluded_from_weighted_split():
    door = FrontDoor("webserver", apps("a", "b"),
                     dgspl_fn=lambda: dgspl_at(0.0, {"a": 0.0, "b": 0.0}))
    door.flag_down("a")
    alloc, shed = door.route(10, now=1.0)
    assert shed == 0
    assert {a.host.name for a, _ in alloc} == {"b"}


def test_fresh_dgspl_listing_nobody_sheds():
    """A fresh DGSPL that lists no server of this tier means the admin
    pair saw every server sick: shed, do not round-robin into them."""
    door = FrontDoor("webserver", apps("a", "b"),
                     dgspl_fn=lambda: dgspl_at(0.0, {}))
    alloc, shed = door.route(10, now=1.0)
    assert alloc == [] and shed == 10


def test_split_is_deterministic():
    def run():
        door = FrontDoor("webserver", apps("c", "a", "b"),
                         dgspl_fn=lambda: dgspl_at(
                             0.0, {"a": 0.3, "b": 1.7, "c": 0.9}))
        out = []
        for _ in range(5):
            alloc, _ = door.route(997, now=1.0)
            out.append(tuple((a.host.name, c) for a, c in alloc))
        return out

    assert run() == run()


def test_zero_and_negative_n():
    door = FrontDoor("webserver", apps("a"))
    assert door.route(0, now=0.0) == ([], 0)
    assert door.route(-5, now=0.0) == ([], 0)
