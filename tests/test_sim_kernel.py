"""Unit tests for the discrete-event kernel."""

import math

import pytest

from repro.sim import Event, SimProcess


def test_schedule_runs_in_time_order(sim):
    order = []
    sim.schedule(5.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(9.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9.0


def test_ties_broken_by_insertion_order(sim):
    order = []
    for tag in "abc":
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == ["a", "b", "c"]


def test_equal_times_fire_first_in_first_out_however_scheduled(sim):
    """``schedule``, ``schedule_at`` and an event scheduled while the
    tie is already firing share one insertion order."""
    order = []

    def first():
        order.append("a")
        sim.schedule(0.0, order.append, "d")

    sim.schedule(1.0, first)
    sim.schedule_at(1.0, order.append, "b")
    sim.schedule(1.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_run_until_advances_clock_even_without_events(sim):
    sim.schedule(1.0, lambda: None)
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_run_until_does_not_fire_later_events(sim):
    fired = []
    sim.schedule(50.0, fired.append, 1)
    sim.run(until=10.0)
    assert fired == []
    sim.run(until=60.0)
    assert fired == [1]


def test_cancelled_event_does_not_fire(sim):
    fired = []
    ev = sim.schedule(1.0, fired.append, 1)
    ev.cancel()
    sim.run()
    assert fired == []
    assert not ev.alive


def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule(float("nan"), lambda: None)


def test_schedule_at_past_rejected(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(1.0, lambda: None)


def test_events_scheduled_during_run_fire(sim):
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, order.append, "second")

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "second"]
    assert sim.now == 2.0


def test_max_events_budget(sim):
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_budgeted_run_never_jumps_past_a_pending_event(sim):
    """``run(until=T, max_events=n)`` ended by the budget leaves the
    clock at the last event fired; only a run that reached the horizon
    tiles to it.  (It used to jump to ``T`` and then step *back*.)"""
    fired = []
    for t in (1.0, 2.0, 2.0, 3.0):
        sim.schedule(t, lambda: fired.append(sim.now))
    cancelled = sim.schedule(1.5, fired.append, "never")
    cancelled.cancel()
    clock = []
    for _ in range(4):
        sim.run(until=100.0, max_events=1)
        assert sim.now <= sim.peek()
        clock.append(sim.now)
    # the fourth run fired t=3 and, nothing left before 100, tiled
    assert clock == [1.0, 2.0, 2.0, 100.0]
    assert fired == [1.0, 2.0, 2.0, 3.0]
    sim.schedule_at(100.0, lambda: fired.append(sim.now))
    sim.run(until=100.0, max_events=0)      # due exactly at the horizon
    assert sim.now == 100.0 and len(fired) == 4
    sim.run(until=100.0)
    assert fired[-1] == 100.0


def test_peek_skips_cancelled(sim):
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    ev.cancel()
    assert sim.peek() == 2.0


def test_peek_empty_is_inf(sim):
    assert sim.peek() == math.inf


def test_generator_process_sleeps(sim):
    trace = []

    def proc():
        trace.append(sim.now)
        yield 10.0
        trace.append(sim.now)
        yield 5.0
        trace.append(sim.now)

    p = sim.spawn(proc())
    sim.run()
    assert trace == [0.0, 10.0, 15.0]
    assert p.done


def test_signal_subscribers_called_synchronously(sim):
    seen = []
    s = sim.signal()
    s.subscribe(seen.append)
    s.fire(1)
    assert seen == [1]          # no event-loop turn needed
    s.fire(2)
    assert seen == [1, 2]       # persistent across fires


def test_process_invalid_yield_raises(sim):
    def bad():
        yield "nonsense"

    sim.spawn(bad())
    with pytest.raises(TypeError):
        sim.run()


def test_periodic_fires_now_then_every_period(sim):
    ticks = []
    ctl = sim.every(10.0, lambda: ticks.append(sim.now))
    sim.run(until=35.0)
    assert ticks == [0.0, 10.0, 20.0, 30.0]
    # four fired, counted in the callback, and the fifth is armed
    assert len(ticks) == 4 and ctl._event.time == 40.0


def test_run_not_reentrant(sim):
    def evil():
        sim.run(until=10.0)

    sim.schedule(1.0, evil)
    with pytest.raises(RuntimeError):
        sim.run()


def test_event_repr_safe_on_partial_init(sim):
    ev = sim.schedule(1.5, sim.run)
    assert "1.500" in repr(ev) and "alive" in repr(ev)
    partial = Event.__new__(Event)        # nothing set yet
    assert "Event" in repr(partial)       # must not raise


def test_process_repr_safe_on_partial_init(sim):
    def p():
        yield 1.0

    proc = sim.spawn(p(), name="worker")
    assert "worker" in repr(proc)
    partial = SimProcess.__new__(SimProcess)
    assert "SimProcess" in repr(partial)  # must not raise
