"""Discrete-event simulation substrate.

The paper's system ran against wall-clock Unix time on a production
datacentre.  Every other subsystem in this reproduction (hosts, networks,
applications, fault injection, agents) is driven by the deterministic
event kernel defined here instead, so that a whole simulated year is a
pure, repeatable computation.

Public surface:

- :class:`~repro.sim.kernel.Simulator` -- the event loop.
- :class:`~repro.sim.kernel.Event` -- a cancellable scheduled callback.
- :class:`~repro.sim.kernel.Signal` -- a broadcast condition its
  subscribers observe.
- :class:`~repro.sim.rand.RandomStreams` -- named, seed-spawned
  ``numpy.random.Generator`` streams.
- :mod:`repro.sim.calendar` -- simulated-time calendar arithmetic
  (cron grids, day/night/weekend classification).
"""

from repro.sim.kernel import Event, Signal, SimProcess, Simulator
from repro.sim.rand import RandomStreams
from repro.sim import calendar

__all__ = [
    "Event",
    "Signal",
    "SimProcess",
    "Simulator",
    "RandomStreams",
    "calendar",
]
