"""Tracing-overhead guard: the observability layer must be free when
off.  The disabled-tracer event loop differs from an uninstrumented
loop by one hoisted ``is not None`` check per event; this bench times
both on bench_kernel's schedule-and-fire chain and asserts the
disabled overhead stays under 5%.  The enabled cost is reported too
(informational -- tracing on is allowed to cost).
"""

import heapq
import math
import time

from repro.sim import Simulator
from repro.trace import install_tracer

from conftest import emit

_CHAIN = 20_000
_REPEATS = 7


class _BareSimulator(Simulator):
    """The event loop with the instrumentation taken out: verbatim
    ``Simulator.run`` -- same heap entries, scheduling and budget
    bookkeeping -- minus the tracer and profiler checks.  The honest
    baseline the <5% bound is against."""

    def run(self, until=None, max_events=None):
        if self._running:
            raise RuntimeError("Simulator.run is not reentrant")
        self._running = True
        budget = math.inf if max_events is None else max_events
        heap = self._heap
        try:
            while heap and budget > 0:
                time, _priority, _seq, ev = heap[0]
                if not ev._alive:
                    heapq.heappop(heap)
                    continue
                if until is not None and time > until:
                    break
                heapq.heappop(heap)
                self.now = time
                ev._fired = True
                self.events_processed += 1
                budget -= 1
                ev.fn(*ev.args)
        finally:
            self._running = False
        if until is not None and self.now < until < self.peek():
            self.now = float(until)


def _chain(sim: Simulator) -> int:
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < _CHAIN:
            sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return count[0]


def _timed(make_sim) -> float:
    sim = make_sim()
    t0 = time.perf_counter()
    assert _chain(sim) == _CHAIN
    return time.perf_counter() - t0


def _enabled_sim() -> Simulator:
    sim = Simulator()
    install_tracer(sim)
    return sim


def _best_of_interleaved():
    """Min wall time per variant, with the variants interleaved round
    by round so cache/CPU-frequency warm-up hits all three equally."""
    best = {"bare": float("inf"), "off": float("inf"), "on": float("inf")}
    for sims in ((_BareSimulator, Simulator, _enabled_sim),) * (_REPEATS + 1):
        for key, make in zip(("bare", "off", "on"), sims):
            best[key] = min(best[key], _timed(make))
    return best["bare"], best["off"], best["on"]


def test_disabled_tracing_overhead_under_5pct(benchmark):
    _timed(_BareSimulator)      # warm-up round, discarded
    bare, disabled, enabled = benchmark.pedantic(
        _best_of_interleaved, rounds=1, iterations=1)

    overhead = (disabled - bare) / bare
    emit(f"trace overhead on a {_CHAIN}-event chain (best of {_REPEATS}):\n"
         f"  bare loop      {bare * 1e3:8.2f} ms\n"
         f"  tracer off     {disabled * 1e3:8.2f} ms  "
         f"({overhead * 100:+.1f}%)\n"
         f"  tracer on      {enabled * 1e3:8.2f} ms  "
         f"({(enabled - bare) / bare * 100:+.1f}%)")
    assert overhead < 0.05, (
        f"disabled tracing costs {overhead * 100:.1f}% (budget: 5%)")


def test_null_span_is_allocation_free():
    """The disabled fast path hands every caller one shared span."""
    sim = Simulator()
    spans = {id(sim.tracer.span(f"s{i}", k=i)) for i in range(100)}
    assert len(spans) == 1
    assert sim.tracer.spans == []
