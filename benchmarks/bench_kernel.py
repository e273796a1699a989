"""Substrate microbenchmarks: DES kernel throughput and the live-site
event rate.  These guard the simulation-speed assumptions DESIGN.md's
fast-path note depends on.
"""

from repro.sim import Simulator


def test_kernel_event_throughput(benchmark):
    """Pure scheduler throughput: schedule-and-fire chains."""

    def chain():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 20_000:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    events = benchmark(chain)
    assert events == 20_000


def test_kernel_heap_stress(benchmark):
    """A wide heap: many pending events, interleaved cancels."""

    def stress():
        sim = Simulator()
        fired = [0]
        events = [sim.schedule(float(i % 977), lambda: None)
                  for i in range(10_000)]
        for ev in events[::3]:
            ev.cancel()
        sim.schedule(1000.0, lambda: fired.__setitem__(0, 1))
        sim.run()
        return sim.events_processed

    processed = benchmark(stress)
    assert processed > 6000


def test_kernel_armed_cron_grid(benchmark):
    """The shape of a 1000-host site: 6 000 periodic events armed at
    once, each re-armed as it fires, nine rounds.  Unlike the chain
    above (one entry in the heap, so nothing is ever compared) every
    push and pop here sifts through ~12 levels -- this is the case that
    prices heap ordering."""
    armed, rounds = 6_000, 9

    def grid():
        sim = Simulator()
        for i in range(armed):
            sim.every(300.0, int, offset=299.0 * i / armed)
        sim.run(until=rounds * 300.0 - 1.0)
        return sim.events_processed

    events = benchmark(grid)
    assert events == armed * rounds


def test_site_simulation_rate(benchmark):
    """A live agented site must simulate hours-per-second: one simulated
    hour of the test-scale site, timed."""
    from repro.experiments.site import SiteConfig, build_site

    site = build_site(SiteConfig.test_scale(seed=99, with_feeds=False,
                                            with_workload=False))

    def one_hour():
        site.run(3600.0)
        return site.sim.events_processed

    events = benchmark.pedantic(one_hour, rounds=3, iterations=1)
    assert events > 0
