"""Deterministic discrete-event simulation kernel.

A classic heap-ordered event scheduler plus a light generator-process
layer.  The kernel is deliberately small and allocation-lean: a whole
simulated year of a 215-server datacentre runs through this loop, so the
per-event cost matters (see the hpc-parallel guide note in DESIGN.md).

Two programming models coexist:

* **Callbacks** -- ``sim.schedule(delay, fn, *args)`` runs ``fn`` at
  ``sim.now + delay``.  This is what most substrate components use.
* **Generator processes** -- ``sim.spawn(gen)`` drives a generator that
  yields either a number (sleep that many simulated seconds) or a
  :class:`Signal` (sleep until the signal fires).  Long-lived workload
  drivers (batch jobs, operators) are written this way.

Event ordering is total and deterministic: ties on time are broken by an
explicit priority, then by insertion sequence number.

A heap entry is the tuple ``(time, priority, seq, event)``.  ``seq`` is
unique, so ``heapq`` orders entries by comparing three numbers in C and
never reaches the event: with thousands of armed cron events a push or
pop makes about a dozen comparisons, and a Python-level ``__lt__`` for
each was most of the dispatch cost.  :meth:`Event.__lt__` remains for
callers that sort events themselves.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Optional

from repro.persist.core import Persistent, pending, scalar
from repro.trace.tracer import NULL_TRACER

__all__ = ["Simulator", "Event", "Signal", "SimProcess", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a generator process by :meth:`SimProcess.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Cancellation is O(1): the heap entry is tombstoned and skipped when
    popped.  An event fires at most once.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "_alive", "_fired")

    def __init__(self, time: float, priority: int, seq: int,
                 fn: Callable[..., Any], args: tuple):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self._alive = True
        self._fired = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call repeatedly."""
        self._alive = False

    @property
    def alive(self) -> bool:
        """True until the event fires or is cancelled."""
        return self._alive and not self._fired

    @property
    def fired(self) -> bool:
        return self._fired

    def __lt__(self, other: "Event") -> bool:  # firing order
        return (self.time, self.priority, self.seq) < (
            other.time, other.priority, other.seq)

    def __repr__(self) -> str:
        # a repr must never raise mid-debug, even on a half-built event
        fired = getattr(self, "_fired", False)
        alive = getattr(self, "_alive", False)
        state = "fired" if fired else ("alive" if alive else "cancelled")
        t = getattr(self, "time", None)
        ts = f"{t:.3f}" if isinstance(t, (int, float)) else "?"
        fn = getattr(self, "fn", None)
        return f"<Event t={ts} {getattr(fn, '__name__', fn)} {state}>"


class Signal:
    """A broadcast condition generator processes can wait on.

    ``yield signal`` suspends the process until someone calls
    :meth:`fire`; the fired value becomes the value of the yield
    expression.  A signal can fire many times; each firing wakes the
    waiters registered at that moment.
    """

    __slots__ = ("sim", "name", "_waiters", "_subscribers", "last_value",
                 "fire_count")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._waiters: list[SimProcess] = []
        self._subscribers: list[Callable[[Any], None]] = []
        self.last_value: Any = None
        self.fire_count = 0

    def fire(self, value: Any = None) -> None:
        """Wake every currently-waiting process with ``value`` and call
        the persistent subscribers (synchronously, in firing order)."""
        self.last_value = value
        self.fire_count += 1
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.sim.schedule(0.0, proc._resume, value)
        for fn in list(self._subscribers):
            fn(value)

    def subscribe(self, fn: Callable[[Any], None]) -> None:
        """Register a persistent callback run synchronously on every
        fire (observers like ledgers; processes should ``yield`` the
        signal instead)."""
        self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[Any], None]) -> None:
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass

    def _add_waiter(self, proc: "SimProcess") -> None:
        self._waiters.append(proc)

    def _discard_waiter(self, proc: "SimProcess") -> None:
        try:
            self._waiters.remove(proc)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Signal {self.name!r} waiters={len(self._waiters)}>"


class SimProcess:
    """A generator driven by the kernel.

    The generator may yield:

    * ``float``/``int`` -- sleep that many simulated seconds;
    * :class:`Signal` -- sleep until the signal fires (the yield
      evaluates to the fired value);
    * ``None`` -- yield the floor (resume in the same timestep, after
      currently queued events).

    When the generator returns, :attr:`done` becomes true,
    :attr:`result` holds the return value, and :attr:`finished` (a
    Signal) fires with that value.
    """

    __slots__ = ("sim", "gen", "name", "done", "result", "finished",
                 "_pending_event", "_waiting_signal", "_interrupted")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "proc")
        self.done = False
        self.result: Any = None
        self.finished = Signal(sim, f"{self.name}.finished")
        self._pending_event: Optional[Event] = None
        self._waiting_signal: Optional[Signal] = None
        self._interrupted = False

    # -- lifecycle -------------------------------------------------------

    def _start(self) -> None:
        self._pending_event = self.sim.schedule(0.0, self._resume, None)

    def _resume(self, value: Any) -> None:
        if self.done:
            return
        tracer = self.sim.tracer
        if tracer.enabled and tracer.capture_resumes:
            with tracer.span("proc.resume", proc=self.name):
                self._advance(value)
        else:
            self._advance(value)

    def _advance(self, value: Any) -> None:
        self._pending_event = None
        self._waiting_signal = None
        try:
            if self._interrupted:
                self._interrupted = False
                target = self.gen.throw(Interrupt(value))
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupt:
            # The process chose not to handle its interrupt: treat as exit.
            self._finish(None)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if target is None:
            self._pending_event = self.sim.schedule(0.0, self._resume, None)
        elif isinstance(target, Signal):
            self._waiting_signal = target
            target._add_waiter(self)
        elif isinstance(target, (int, float)):
            if target < 0 or math.isnan(target):
                raise ValueError(
                    f"process {self.name!r} yielded invalid delay {target!r}")
            self._pending_event = self.sim.schedule(float(target),
                                                    self._resume, None)
        else:
            raise TypeError(
                f"process {self.name!r} yielded unsupported {target!r}")

    def _finish(self, value: Any) -> None:
        self.done = True
        self.result = value
        self.finished.fire(value)

    # -- external control ------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if self.done:
            return
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        if self._waiting_signal is not None:
            self._waiting_signal._discard_waiter(self)
            self._waiting_signal = None
        self._interrupted = True
        self.sim.schedule(0.0, self._resume, cause)

    def stop(self) -> None:
        """Terminate the process without running any more of its body."""
        if self.done:
            return
        if self._pending_event is not None:
            self._pending_event.cancel()
        if self._waiting_signal is not None:
            self._waiting_signal._discard_waiter(self)
        self.gen.close()
        self._finish(None)

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

    def __init__(self, start: float = 0.0):
        self.now = float(start)
        #: ``(time, priority, seq, event)`` entries (see module docstring)
        self._heap: list[tuple] = []
        #: next insertion sequence number (a plain int, not an
        #: itertools.count, so checkpoints can capture and restore it)
        self._seq = 0
        self._running = False
        self.events_processed = 0
        #: observability hook; the shared disabled tracer by default so
        #: instrumented components can call it unconditionally
        self.tracer = NULL_TRACER

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 priority: int = 0) -> Event:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0 or math.isnan(delay):
            raise ValueError(f"negative or NaN delay: {delay!r}")
        return self._push(self.now + delay, priority, fn, args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any,
                    priority: int = 0) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time} before now={self.now}")
        return self._push(float(time), priority, fn, args)

    def _push(self, time: float, priority: int,
              fn: Callable[..., Any], args: tuple) -> Event:
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, priority, seq, fn, args)
        heapq.heappush(self._heap, (time, priority, seq, ev))
        return ev

    def schedule_exact(self, time: float, priority: int, seq: int,
                       fn: Callable[..., Any], *args: Any) -> Event:
        """Re-arm a restored event at its exact original heap token.

        Checkpoint restore rebuilds pending events with the ``(time,
        priority, seq)`` they held when the snapshot was taken, so the
        resumed run pops them in byte-identical order.  The insertion
        counter is *not* consumed -- the kernel's own counter is restored
        separately -- but it is bumped past ``seq`` defensively so a
        partially restored kernel can never mint a duplicate token.
        """
        if time < self.now:
            raise ValueError(
                f"cannot re-arm at {time} before now={self.now}")
        if seq >= self._seq:
            self._seq = seq + 1
        ev = Event(float(time), int(priority), int(seq), fn, args)
        heapq.heappush(self._heap, (ev.time, ev.priority, ev.seq, ev))
        return ev

    def spawn(self, gen: Generator, name: str = "") -> SimProcess:
        """Attach a generator process; it starts at the current time."""
        proc = SimProcess(self, gen, name)
        proc._start()
        return proc

    def signal(self, name: str = "") -> Signal:
        """Create a :class:`Signal` bound to this simulator."""
        return Signal(self, name)

    # -- execution -------------------------------------------------------

    def step(self) -> bool:
        """Run the next live event.  Returns False when the heap is empty."""
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[3]
            if not ev._alive:
                continue
            if ev.time < self.now:  # pragma: no cover - invariant guard
                raise RuntimeError("event scheduled in the past")
            self.now = ev.time
            ev._fired = True
            self.events_processed += 1
            if self.tracer.enabled:
                self.tracer.metrics.counter("sim.events").inc()
            ev.fn(*ev.args)
            return True
        return False

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
        # hoisted per-run: keeps the disabled-tracer loop branch-only
        count_event = (self.tracer.metrics.counter("sim.events").inc
                       if self.tracer.enabled else None)
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
                if count_event is not None:
                    count_event()
                ev.fn(*ev.args)
        finally:
            self._running = False
        if until is not None and self.now < until < self.peek():
            self.now = float(until)

    def peek(self) -> float:
        """Time of the next live event, or ``inf`` if none is queued."""
        heap = self._heap
        while heap and not heap[0][3]._alive:
            heapq.heappop(heap)
        return heap[0][0] if heap else math.inf

    # -- persistence -----------------------------------------------------

    def live_events(self) -> list[Event]:
        """The live heap entries in firing order (the persist layer walks
        this to verify every pending event is claimed by a component
        snapshot before a checkpoint is allowed)."""
        return [entry[3] for entry in sorted(
            entry for entry in self._heap if entry[3].alive)]

    def clear_events(self) -> None:
        """Tombstone and drop every queued event.  Restore uses this to
        wipe the freshly built world's schedule before re-arming the
        snapshot's pending events at their exact tokens."""
        for entry in self._heap:
            entry[3]._alive = False
        self._heap.clear()

    # -- conveniences ----------------------------------------------------

    def every(self, period: float, fn: Callable[..., Any], *args: Any,
              offset: float = 0.0) -> Periodic:
        """Run ``fn`` periodically, starting at ``now + offset``.

        Returns the started :class:`Periodic`; its ``cancel()`` stops
        the chain.
        """
        controller = Periodic(self, period, fn, args)
        controller.start(offset)
        return controller

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now:.3f} queued={len(self._heap)}>"


class Periodic(Persistent):
    """A cancellable periodic callback, returned by
    :meth:`Simulator.every` (the BMC console's poll and the LSF
    dispatcher; ``cluster/cron.py`` arms its own events)."""

    __slots__ = ("sim", "period", "fn", "args", "_event", "cancelled",
                 "fire_count")
    #: counters plus the pending tick (fn/args are structural -- the
    #: rebuilt controller supplies them)
    _persist = (scalar("fire_count", int), scalar("cancelled", bool),
                pending("event", "_event", "_tick"))

    def __init__(self, sim: Simulator, period: float, fn: Callable[..., Any],
                 args: tuple):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        self.sim = sim
        self.period = float(period)
        self.fn = fn
        self.args = args
        self._event: Optional[Event] = None
        self.cancelled = False
        self.fire_count = 0

    def start(self, offset: float = 0.0) -> "Periodic":
        self._event = self.sim.schedule(offset, self._tick)
        return self

    def _tick(self) -> None:
        if self.cancelled:
            return
        self.fire_count += 1
        self.fn(*self.args)
        self._event = self.sim.schedule(self.period, self._tick)

    def cancel(self) -> None:
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None
