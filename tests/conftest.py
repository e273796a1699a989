"""Shared fixtures: a simulator, a two-LAN mini datacentre, and a
small fully-agented site; and two collection options that check tier-1
is hermetic: ``--order {file,reverse,<seed>}`` runs the tests in file
order (the default), reversed, or shuffled by an integer seed, and
``--shard i/n`` runs the ``i``-th of ``n`` disjoint parts, picked by a
stable hash of each test's node id."""

from __future__ import annotations

import contextlib
import multiprocessing
import random
import zlib
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest

from repro import parallel
from repro.apps.database import Database
from repro.apps.frontend import FrontendApp
from repro.apps.webserver import WebServer
from repro.faults import campaign
from repro.cluster.datacenter import Datacenter
from repro.net.network import Lan
from repro.net.routing import AgentChannel
from repro.net.nfs import SharedPool
from repro.ops.notifications import NotificationChannel
from repro.sim import RandomStreams, Simulator


def pytest_addoption(parser):
    parser.addoption("--order", default="file",
                     help="file, reverse, or an integer shuffle seed")
    parser.addoption("--shard", default="1/1",
                     help="i/n: run the i-th of n parts (1-based)")


def pytest_collection_modifyitems(config, items):
    order, shard = config.getoption("--order"), config.getoption("--shard")
    if order == "reverse":
        items.reverse()
    elif order != "file":
        random.Random(int(order)).shuffle(items)
    i, n = map(int, shard.split("/"))
    if not 1 <= i <= n:
        raise pytest.UsageError(f"--shard {shard}: want i/n with 1 <= i <= n")
    if n > 1:   # crc32, not hash(): the same split under any PYTHONHASHSEED
        items[:] = [item for item in items
                    if zlib.crc32(item.nodeid.encode()) % n == i - 1]


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def rs():
    return RandomStreams(1234)


@pytest.fixture
def dc(sim):
    """Two hosts (db + admin pair) on a public LAN and the agent LAN."""
    dc = Datacenter(sim)
    dc.add_lan(Lan(sim, "public0", kind="public", subnet="192.168.1"))
    dc.add_lan(Lan(sim, "agentnet", kind="private", subnet="10.0.0"))
    for name, model, group in (
            ("db01", "sun-e4500", "db"),
            ("fe01", "ibm-sp2", "frontend"),
            ("adm01", "admin-server", "admin"),
            ("adm02", "admin-server", "admin")):
        dc.add_host(name, model, group=group)
        dc.connect(name, "public0")
        dc.connect(name, "agentnet")
    return dc


@pytest.fixture
def db_host(dc):
    return dc.host("db01")


@pytest.fixture
def database(dc, sim):
    """A running database on db01."""
    db = Database(dc.host("db01"), "ora01", db_type="oracle")
    db.start()
    sim.run(until=sim.now + 200.0)
    assert db.is_healthy()
    return db


@pytest.fixture
def webserver(dc, sim):
    ws = WebServer(dc.host("fe01"), "httpd01")
    ws.start()
    sim.run(until=sim.now + 60.0)
    assert ws.is_healthy()
    return ws


@pytest.fixture
def frontend(dc, sim, database):
    fe = FrontendApp(dc.host("fe01"), "finapp01", backend=database)
    fe.start()
    sim.run(until=sim.now + 120.0)
    assert fe.is_healthy()
    return fe


@pytest.fixture
def notifications(sim):
    return NotificationChannel(sim)


@pytest.fixture
def channel(dc):
    return AgentChannel(dc, "agentnet", ["public0"])


@pytest.fixture
def pool(sim):
    return SharedPool(sim)


@pytest.fixture
def test_site():
    """A small agented site (built fresh per test: mutation-heavy)."""
    from repro.experiments.site import SiteConfig, build_site
    return build_site(SiteConfig.test_scale(seed=7))


@contextlib.contextmanager
def _campaigns_spanning(span: float):
    """Every fault campaign run inside spans ``span`` seconds, in
    process-pool workers too: the pool forks them, so they inherit the
    patched module whatever the platform's default start method."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("pool workers must fork to inherit a patched horizon")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign, "HORIZON", span)
        patch.setattr(parallel, "ProcessPoolExecutor", partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        yield


@pytest.fixture
def short_campaigns(request):
    """This test's fault campaigns span its module's ``HORIZON``."""
    with _campaigns_spanning(request.module.HORIZON):
        yield


@pytest.fixture(scope="module")
def short_campaigns_module(request):
    """Every fault campaign in the requesting module spans its
    ``HORIZON``."""
    with _campaigns_spanning(request.module.HORIZON):
        yield
