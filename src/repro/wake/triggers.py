"""The trigger bus: host-local signals become immediate demand-wakes.

Between cron wakes a host is full of cheap, already-modelled signals
that the fixed grid ignores until the next wake: syslog lines, daemon
exits, application state flips, metric threshold crossings.  The bus
bridges them to the agents that care, so a fault is looked at the
moment it becomes observable instead of up to a full period later.

Sources wired by :meth:`attach_syslog` / :meth:`watch_process_exits` /
:meth:`watch_app`; anything else (threshold crossings, admin-initiated
demand conditions) goes through :meth:`publish` directly.  State-flip
triggers stand in for the client-side symptom stream (the front door
and user traffic observe a hung service immediately even when nothing
reaches the error log).

Dispatch is deliberately dumb and deterministic: subscriptions are
checked in registration order, a per-agent cooldown de-bounces trigger
storms (one wake per agent per ``cooldown`` covers every signal that
arrived in that window -- the run looks at current state anyway), and
delivery is a :meth:`~repro.core.agent.Intelliagent.demand_wake`, which
snaps the agent's wake policy back to base and fires its cron job now.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.cluster.syslog import SEVERITIES
from repro.persist.core import Persistent, table

__all__ = ["Trigger", "TriggerBus"]


@dataclass(frozen=True)
class Trigger:
    """One demand-wake cause, as seen by subscribers."""

    kind: str           # syslog | proc_exit | state | threshold | demand
    subject: str        # app/tag the signal is about
    detail: str = ""
    severity: str = ""
    facility: str = ""
    time: float = 0.0


class TriggerBus(Persistent):
    """Per-host bridge from local signals to agent demand-wakes."""

    #: cooldown clocks; subscriptions and source
    #: taps are structural (re-wired when the suite is rebuilt)
    _persist = (table("last_wake", float, attr="_last_wake"),)

    #: seconds an agent is not demand-woken again after a wake
    cooldown = 60.0

    def __init__(self, host):
        self.host = host
        self.sim = host.sim
        self._subs: List[Tuple[object, Callable[[Trigger], bool]]] = []
        self._last_wake: Dict[str, float] = {}

    # -- sources -------------------------------------------------------------

    def attach_syslog(self) -> None:
        """Wake on syslog records at or above ``err``."""
        threshold = SEVERITIES.index("err")

        def on_record(rec):
            if SEVERITIES.index(rec.severity) <= threshold:
                self.publish("syslog", rec.tag, detail=rec.message,
                             severity=rec.severity, facility=rec.facility)
        self.host.syslog.subscribe(on_record)

    def watch_process_exits(self) -> None:
        """Wake on the exit of any application-owned process.  Agent
        and batch-job processes come and go by design; only daemons
        belonging to an installed application are symptoms."""
        def on_exit(proc):
            owner = proc.owner
            if owner is None or getattr(owner, "app_type", None) is None:
                return
            self.publish("proc_exit", owner.name, detail=proc.command)
        self.host.ptable.exit_listeners.append(on_exit)

    def watch_app(self, app) -> None:
        """Wake on an application flipping into a bad state.  This is
        the stand-in for the client-side error stream: a hang writes
        nothing to syslog, but its users notice instantly."""
        def on_state(state, app=app):
            if state.value in ("crashed", "hung", "degraded"):
                self.publish("state", app.name, detail=state.value)
        app.state_changed.subscribe(on_state)

    # -- subscriptions and dispatch -------------------------------------------

    def subscribe(self, agent,
                  predicate: Callable[[Trigger], bool]) -> None:
        """Demand-wake ``agent`` whenever a published trigger matches."""
        self._subs.append((agent, predicate))

    def publish(self, kind: str, subject: str, *, detail: str = "",
                severity: str = "", facility: str = "") -> int:
        """Offer a trigger to every subscriber; returns agents woken."""
        if not self.host.is_up:
            return 0
        trigger = Trigger(kind, subject, detail, severity, facility,
                          self.sim.now)
        woken = 0
        for agent, predicate in self._subs:
            if not predicate(trigger):
                continue
            last = self._last_wake.get(agent.name)
            if last is not None and trigger.time - last < self.cooldown:
                continue
            if agent.demand_wake(trigger):
                self._last_wake[agent.name] = trigger.time
                woken += 1
        return woken

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TriggerBus {self.host.name} subs={len(self._subs)}>"
