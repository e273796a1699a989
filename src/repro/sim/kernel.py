"""Deterministic discrete-event simulation kernel.

A heap of callbacks plus a light generator-process layer.  The kernel
is deliberately small and allocation-lean: a whole simulated year of a
215-server datacentre runs through this loop, so the per-event cost
matters (see the hpc-parallel guide note in DESIGN.md).

Two programming models coexist:

* **Callbacks** -- ``sim.schedule(delay, fn, *args)`` runs ``fn`` at
  ``sim.now + delay``.  This is what most substrate components use.
* **Generator processes** -- ``sim.spawn(gen)`` drives a generator that
  yields a number: sleep that many simulated seconds.  Long-lived
  workload drivers (batch jobs, a relocation's failover) are written
  this way.

Event ordering is total and deterministic: ties on time are broken by
insertion sequence number.

A heap entry is the tuple ``(time, seq, event)``.  ``seq`` is unique,
so ``heapq`` orders entries by comparing two numbers in C and never
reaches the event: with thousands of armed cron events a push or pop
makes about a dozen comparisons, and a Python-level comparison for
each was most of the dispatch cost.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Optional

from repro.persist.core import Persistent, pending, scalar
from repro.trace.tracer import NULL_TRACER

__all__ = ["Simulator", "Event", "Signal", "SimProcess"]


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Cancellation is O(1): the heap entry is tombstoned and skipped when
    popped.  An event fires at most once; ``alive`` is true until it
    fires or is cancelled.
    """

    __slots__ = ("time", "seq", "fn", "args", "alive")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.alive = True

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call repeatedly."""
        self.alive = False

    def __repr__(self) -> str:
        # a repr must never raise mid-debug, even on a half-built event
        state = "alive" if getattr(self, "alive", False) else "dead"
        t = getattr(self, "time", None)
        ts = f"{t:.3f}" if isinstance(t, (int, float)) else "?"
        fn = getattr(self, "fn", None)
        return f"<Event t={ts} {getattr(fn, '__name__', fn)} {state}>"


class Signal:
    """A broadcast condition: :meth:`fire` calls every subscriber,
    synchronously and in subscription order."""

    __slots__ = ("name", "_subscribers")

    def __init__(self, name: str = ""):
        self.name = name
        self._subscribers: list[Callable[[Any], None]] = []

    def fire(self, value: Any = None) -> None:
        for fn in list(self._subscribers):
            fn(value)

    def subscribe(self, fn: Callable[[Any], None]) -> None:
        """Register a persistent callback run on every fire (observers
        like ledgers and the admin servers' host watch)."""
        self._subscribers.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Signal {self.name!r} subscribers={len(self._subscribers)}>"


class SimProcess:
    """A generator driven by the kernel.

    The generator yields a delay (an ``int`` or ``float``, simulated
    seconds) and is resumed that much later.  When it returns,
    :attr:`done` becomes true.
    """

    __slots__ = ("sim", "gen", "name", "done")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "proc")
        self.done = False

    def _resume(self) -> None:
        try:
            delay = next(self.gen)
        except StopIteration:
            self.done = True
            return
        if not isinstance(delay, (int, float)):
            raise TypeError(
                f"process {self.name!r} yielded {delay!r}, not a delay")
        self.sim.schedule(float(delay), self._resume)

    def __repr__(self) -> str:
        # safe on a partially initialised process (mid-debug aid)
        name = getattr(self, "name", "?")
        done = getattr(self, "done", False)
        return f"<SimProcess {name!r} done={done}>"


class Simulator(Persistent):
    """The event loop.

    Time is a float number of seconds since the simulation epoch
    (defined by :mod:`repro.sim.calendar` as a Monday, 00:00).  The loop
    never moves time backwards; scheduling in the past raises.
    """

    #: kernel scalars only; pending events are claimed and re-armed by
    #: the components that own them (see repro.persist)
    _persist = (scalar("now", float), scalar("next_seq", int, "_seq"),
                scalar("events_processed", int))

    def __init__(self):
        self.now = 0.0
        #: ``(time, seq, event)`` entries (see module docstring)
        self._heap: list[tuple] = []
        #: next insertion sequence number (a plain int, not an
        #: itertools.count, so checkpoints can capture and restore it)
        self._seq = 0
        self._running = False
        self.events_processed = 0
        #: observability hook; the shared off tracer by default so
        #: instrumented components can call it unconditionally
        self.tracer = NULL_TRACER

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any],
                 *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0 or math.isnan(delay):
            raise ValueError(f"negative or NaN delay: {delay!r}")
        return self._push(self.now + delay, fn, args)

    def schedule_at(self, time: float, fn: Callable[..., Any],
                    *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time} before now={self.now}")
        return self._push(float(time), fn, args)

    def _push(self, time: float, fn: Callable[..., Any],
              args: tuple) -> Event:
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args)
        heapq.heappush(self._heap, (time, seq, ev))
        return ev

    def schedule_exact(self, time: float, seq: int,
                       fn: Callable[..., Any], *args: Any) -> Event:
        """Re-arm a restored event at its exact original heap token.

        Checkpoint restore rebuilds pending events with the ``(time,
        seq)`` they held when the snapshot was taken, so the resumed run
        pops them in byte-identical order.  The insertion counter is
        *not* consumed -- the kernel's own counter is restored
        separately -- but it is bumped past ``seq`` defensively so a
        partially restored kernel can never mint a duplicate token.
        """
        if time < self.now:
            raise ValueError(
                f"cannot re-arm at {time} before now={self.now}")
        if seq >= self._seq:
            self._seq = seq + 1
        ev = Event(float(time), int(seq), fn, args)
        heapq.heappush(self._heap, (ev.time, ev.seq, ev))
        return ev

    def spawn(self, gen: Generator, name: str = "") -> SimProcess:
        """Attach a generator process; it starts at the current time."""
        proc = SimProcess(self, gen, name)
        self.schedule(0.0, proc._resume)
        return proc

    def signal(self, name: str = "") -> Signal:
        """Create a :class:`Signal`."""
        return Signal(name)

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or
        ``max_events`` events have fired.

        With ``until`` set, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run``
        calls tile time cleanly -- unless ``max_events`` ended the run
        with a live event at or before ``until`` still queued: the clock
        then stays at the last event fired, never ahead of a pending one.
        """
        if self._running:
            raise RuntimeError("Simulator.run is not reentrant")
        self._running = True
        budget = math.inf if max_events is None else max_events
        heap = self._heap
        start = self.events_processed
        try:
            while heap and budget > 0:
                time, _seq, ev = heap[0]
                if not ev.alive:
                    heapq.heappop(heap)
                    continue
                if until is not None and time > until:
                    break
                heapq.heappop(heap)
                self.now = time
                ev.alive = False
                self.events_processed += 1
                budget -= 1
                ev.fn(*ev.args)
        finally:
            self._running = False
            # counted once per run, not per event: the loop makes no
            # tracer call, and nothing reads the count mid-run
            self.tracer.count("sim.events", self.events_processed - start)
        if until is not None and self.now < until < self.peek():
            self.now = float(until)

    def peek(self) -> float:
        """Time of the next live event, or ``inf`` if none is queued."""
        heap = self._heap
        while heap and not heap[0][2].alive:
            heapq.heappop(heap)
        return heap[0][0] if heap else math.inf

    # -- persistence -----------------------------------------------------

    def live_events(self) -> list[Event]:
        """The live heap entries in firing order (the persist layer walks
        this to verify every pending event is claimed by a component
        snapshot before a checkpoint is allowed)."""
        return [entry[2] for entry in sorted(
            entry for entry in self._heap if entry[2].alive)]

    def clear_events(self) -> None:
        """Tombstone and drop every queued event.  Restore uses this to
        wipe the freshly built world's schedule before re-arming the
        snapshot's pending events at their exact tokens."""
        for entry in self._heap:
            entry[2].alive = False
        self._heap.clear()

    # -- conveniences ----------------------------------------------------

    def every(self, period: float, fn: Callable[..., Any],
              *args: Any) -> Periodic:
        """Run ``fn`` every ``period`` seconds, starting now."""
        return Periodic(self, period, fn, args).start()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now:.3f} queued={len(self._heap)}>"


class Periodic(Persistent):
    """A periodic callback, returned by :meth:`Simulator.every` (the BMC
    console's poll and the LSF dispatcher; ``cluster/cron.py`` arms its
    own events)."""

    __slots__ = ("sim", "period", "fn", "args", "_event")
    #: the pending tick (fn/args are structural -- the rebuilt
    #: controller supplies them)
    _persist = (pending("event", "_event", "_tick"),)

    def __init__(self, sim: Simulator, period: float, fn: Callable[..., Any],
                 args: tuple):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        self.sim = sim
        self.period = float(period)
        self.fn = fn
        self.args = args
        self._event: Optional[Event] = None

    def start(self) -> "Periodic":
        self._event = self.sim.schedule(0.0, self._tick)
        return self

    def _tick(self) -> None:
        self.fn(*self.args)
        self._event = self.sim.schedule(self.period, self._tick)
