"""Unit tests for the fluid traffic engine, checked against a
per-request reference engine that lives here as the test oracle."""

import pytest

from repro.sim import RandomStreams
from repro.sim.calendar import HOUR
from repro.traffic import FluidTrafficEngine, FrontDoor, financial_curve

POP = 100_000


class Fluid(FluidTrafficEngine):
    """The engine plus the whole-engine totals these tests read, summed
    over its per-class SLIs, and a stop that ends its tick chain."""

    @property
    def attempted(self):
        return sum(s.attempted for s in self.slis.values())

    @property
    def served(self):
        return sum(s.served for s in self.slis.values())

    @property
    def availability(self):
        return 1.0 if self.attempted <= 0 else self.served / self.attempted

    def stop(self):
        self._running = False


class DiscreteTrafficEngine(Fluid):
    """Per-request reference: every request is its own simulation event.

    The same sampled counts as the fluid engine, but each request lands
    at a uniformly-drawn instant inside the tick and goes through the
    front door and serving surface on its own, so the fluid engine's
    aggregation can be checked against it.  ``max_requests_per_tick``
    guards against pointing a million-user curve at it.
    """

    def __init__(self, sim, curve, doors, streams, *, step=60.0,
                 max_requests_per_tick=10_000):
        super().__init__(sim, curve, doors, streams, step=step)
        self.max_requests_per_tick = int(max_requests_per_tick)

    def _dispatch(self, cls_name, n, now):
        if n > self.max_requests_per_tick:
            raise RuntimeError(
                f"{n} requests in one tick: the discrete engine is for "
                f"small horizons; use FluidTrafficEngine")
        offsets = sorted(float(x) for x in
                         self.rng.uniform(0.0, self.step, size=n))
        for off in offsets:
            self.sim.schedule(off, self._one_request, cls_name)

    def _one_request(self, cls_name):
        alloc, shed = self.doors[cls_name].route(1, self.sim.now)
        if shed:
            self._account_shed(cls_name, shed)
            return
        for app, count in alloc:
            served, failed, ms = app.serve_batch(count)
            self._account(cls_name, served, failed, ms)


@pytest.fixture
def curve():
    return financial_curve(population=POP)


@pytest.fixture
def small_curve():
    # small enough for the discrete engine's per-request events
    return financial_curve(population=20_000)


def doors_for(webserver):
    return {"web": FrontDoor("webserver", [webserver])}


def run_engine(engine_cls, sim, curve, webserver, seed=42, **kw):
    eng = engine_cls(sim, curve, doors_for(webserver),
                     RandomStreams(seed), step=60.0, **kw)
    eng.start()
    sim.run(until=sim.now + HOUR)
    eng.stop()
    return eng


def test_rejects_door_for_unknown_class(sim, curve, webserver):
    with pytest.raises(ValueError):
        Fluid(sim, curve, {"bogus": FrontDoor(
            "webserver", [webserver])}, RandomStreams(1))


def test_fluid_healthy_site_full_availability(sim, curve, webserver):
    batches = []
    serve_batch = webserver.serve_batch
    webserver.serve_batch = lambda n: batches.append(serve_batch(n)) \
        or batches[-1]
    eng = run_engine(Fluid, sim, curve, webserver)
    assert eng.ticks >= 60
    assert eng.attempted > 0
    assert eng.availability == 1.0
    # what the engine counts served is what the server served
    assert sum(served for served, _failed, _ms in batches) == eng.served


def test_fluid_attempted_tracks_demand_curve(sim, curve, webserver):
    """Poisson totals over an hour land near the curve's expectation."""
    t0 = sim.now
    eng = run_engine(Fluid, sim, curve, webserver)
    cls = curve.by_name["web"]
    expected = curve.expected_requests(cls, t0, t0 + HOUR)
    assert eng.attempted == pytest.approx(expected, rel=0.15)


def test_fluid_crash_fails_requests_then_shed_recovers(sim, curve, webserver):
    door = FrontDoor("webserver", [webserver])
    eng = Fluid(sim, curve, {"web": door}, RandomStreams(3),
                             step=60.0)
    eng.start()
    sim.run(until=sim.now + 10 * 60.0)
    webserver.crash("x")
    sim.run(until=sim.now + 10 * 60.0)
    sli = eng.slis["web"]
    assert sli.failed > 0
    assert eng.availability < 1.0
    door.flag_down(webserver.host.name)
    failed_at_shed = sli.failed
    sim.run(until=sim.now + 10 * 60.0)
    # everything since the flag was shed, not failed at the server
    assert sli.failed > failed_at_shed           # shed counts as failed...
    assert sli.shed == sli.failed - failed_at_shed   # ...but via shedding
    eng.stop()


def test_discrete_healthy_site(sim, small_curve, webserver):
    eng = run_engine(DiscreteTrafficEngine, sim, small_curve, webserver)
    assert eng.attempted > 0
    assert eng.availability == 1.0


def test_discrete_guards_against_large_batches(sim, webserver):
    big = financial_curve(population=50_000_000)
    eng = DiscreteTrafficEngine(sim, big, doors_for(webserver),
                                RandomStreams(1), step=300.0,
                                max_requests_per_tick=1000)
    eng.start()
    with pytest.raises(RuntimeError, match="discrete engine"):
        sim.run(until=sim.now + HOUR)


def test_fluid_and_discrete_agree_on_expectation(sim, small_curve,
                                                 webserver):
    """Same curve, same healthy server: both modes serve everything and
    each window's total straddles that window's Poisson mean."""
    cls = small_curve.by_name["web"]
    results = []
    for engine_cls in (Fluid, DiscreteTrafficEngine):
        t0 = sim.now
        eng = run_engine(engine_cls, sim, small_curve, webserver, seed=7)
        expected = small_curve.expected_requests(cls, t0, t0 + HOUR)
        results.append((eng, expected))
    (fluid, fexp), (discrete, dexp) = results
    assert fluid.availability == discrete.availability == 1.0
    assert fluid.attempted == pytest.approx(fexp, rel=0.2)
    assert discrete.attempted == pytest.approx(dexp, rel=0.2)


def test_engine_deterministic_with_seed(curve):
    from repro.sim import Simulator

    def total(seed):
        sim = Simulator()
        from repro.apps.webserver import WebServer
        from repro.cluster.datacenter import Datacenter
        from repro.net.network import Lan
        dc = Datacenter(sim)
        dc.add_lan(Lan(sim, "public0", kind="public", subnet="192.168.1"))
        dc.add_host("fe01", "ibm-sp2", group="frontend")
        dc.connect("fe01", "public0")
        ws = WebServer(dc.host("fe01"), "httpd01")
        ws.start()
        sim.run(until=sim.now + 60.0)
        eng = Fluid(sim, curve, {"web": FrontDoor(
            "webserver", [ws])}, RandomStreams(seed), step=60.0)
        eng.start()
        sim.run(until=sim.now + HOUR)
        return eng.attempted

    assert total(5) == total(5)
    assert total(5) != total(6)


def test_tick_counter_and_stop(sim, curve, webserver):
    eng = Fluid(sim, curve, doors_for(webserver),
                             RandomStreams(1), step=300.0)
    eng.start()
    eng.start()                       # idempotent
    sim.run(until=sim.now + HOUR)
    ticks = eng.ticks
    assert ticks == pytest.approx(12, abs=1)
    eng.stop()
    sim.run(until=sim.now + HOUR)
    assert eng.ticks == ticks         # no ticks after stop


def test_metrics_counters_when_traced(curve, webserver):
    """With a tracer installed the engine bumps traffic.* counters."""
    sim = webserver.host.sim
    from repro.trace import install_tracer
    install_tracer(sim)
    eng = Fluid(sim, curve, doors_for(webserver),
                             RandomStreams(2), step=60.0)
    eng.start()
    sim.run(until=sim.now + 10 * 60.0)
    m = sim.tracer.metrics.snapshot()["counters"]
    assert m["traffic.attempted"] == eng.attempted
    assert m["traffic.served"] == eng.served
