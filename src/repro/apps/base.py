"""Application base model.

An :class:`Application` is the paper's "service vehicle": it owns a set
of processes on one host, a listening port, startup/shutdown control
scripts, and a health probe.  The SLKT ontology for a host is generated
from these declarations (expected process names and counts, startup
sequence, binary locations, port, type, version).

Failure modes, matching §4's fault inventory:

- **crash** -- processes die; probe refuses; restart fixes it.
- **hang** -- the *latent error*: processes still show in ``ps`` but the
  app accepts nothing.  Only a probe (or a frustrated user) notices.
  §5: the system "can however deal with latent errors up to a point, by
  restarting failed component applications".
- **degraded** -- alive but slow (feeds the performance-fault category).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.cluster.process import SimProc
from repro.persist.core import (Persistent, group, member, pending, scalar,
                                via)

__all__ = ["AppState", "ProcessSpec", "StartupStep", "Application"]


class AppState(enum.Enum):
    STOPPED = "stopped"
    STARTING = "starting"
    RUNNING = "running"
    DEGRADED = "degraded"
    HUNG = "hung"
    CRASHED = "crashed"
    STOPPING = "stopping"


#: States in which the listener accepts a connection.
_ACCEPTING = (AppState.RUNNING, AppState.DEGRADED)


@dataclass(frozen=True)
class ProcessSpec:
    """One expected daemon of the application (SLKT 'process names and
    numbers')."""

    command: str
    count: int = 1
    cpu_pct: float = 1.0      # per process, share of one CPU
    mem_mb: float = 32.0


@dataclass(frozen=True)
class StartupStep:
    """One step of the startup sequence (SLKT 'application component
    startup sequences')."""

    name: str
    duration: float


class Application(Persistent):
    """Base class for every simulated application."""

    app_type = "generic"

    #: a subclass's own state, saved under ``"extra"``
    _persist_extra: tuple = ()
    #: lifecycle state plus process links, as pids into the host's
    #: process table -- which must therefore restore first
    _persist = (
        member("state", AppState), scalar("config_ok", bool),
        scalar("data_ok", bool), scalar("started_at"),
        scalar("restart_count", int),
        via("proc_pids", "_save_pids", "_relink_procs"),
        pending("startup_event", "_startup_event", "_finish_start"),
        group("extra", "_persist_extra"))

    def __init__(self, host, name: str, *, version: str = "1.0",
                 port: Optional[int] = None, user: str = "appuser",
                 processes: Optional[List[ProcessSpec]] = None,
                 startup: Optional[List[StartupStep]] = None,
                 shutdown_duration: float = 20.0,
                 connect_timeout_ms: float = 5000.0,
                 base_response_ms: float = 50.0,
                 auto_start: bool = True):
        self.host = host
        self.sim = host.sim
        self.name = name
        self.version = version
        self.port = port
        self.user = user
        self.process_specs = processes or [ProcessSpec(name)]
        self.startup_steps = startup or [StartupStep("init", 30.0)]
        self.shutdown_duration = shutdown_duration
        #: developer-provided connect timeout (§3.2 assumption)
        self.connect_timeout_ms = connect_timeout_ms
        self.base_response_ms = base_response_ms
        self.auto_start = auto_start
        self.binary_path = f"/apps/{name}/bin/{name}"

        self.state = AppState.STOPPED
        self.state_changed = self.sim.signal(f"{name}.state")
        #: configuration matches the SLKT (human error clears this; a
        #: misconfigured app dies right after start until it is restored)
        self.config_ok = True
        #: on-disk data intact (a corruption clears this; restart alone
        #: cannot fix it -- a restore is required)
        self.data_ok = True
        self.procs: List[SimProc] = []
        self.started_at: Optional[float] = None
        self.restart_count = 0
        #: dependencies as (host_name, app_name) pairs (SLKT 'external
        #: dependencies')
        self.depends_on: List[Tuple[str, str]] = []
        #: extra disk demand the app applies while running
        self.io_demand = 0.0
        self._startup_event = None

        host.install_app(self)
        self._register_control_script()

    # -- control scripts -----------------------------------------------------

    def _register_control_script(self) -> None:
        """Install the `<name>_ctl start|stop|status` script the paper
        assumes exists for every application."""
        self.host.shell.register(f"{self.name}_ctl", self._ctl)

    def _ctl(self, args: List[str]):
        from repro.cluster.shell import CommandResult
        action = args[0] if args else "status"
        if action == "start":
            if self.state in (AppState.RUNNING, AppState.STARTING):
                return CommandResult(0, [f"{self.name}: already running"])
            self.start()
            return CommandResult(0, [f"{self.name}: starting"])
        if action == "stop":
            self.stop()
            return CommandResult(0, [f"{self.name}: stopped"])
        if action == "restart":
            self.restart()
            return CommandResult(0, [f"{self.name}: restarting"])
        if action == "status":
            code = 0 if self.state is AppState.RUNNING else 1
            return CommandResult(code, [f"{self.name}: {self.state.value}"])
        return CommandResult(2, [f"usage: {self.name}_ctl start|stop|status"])

    # -- state machine ---------------------------------------------------------

    def _set_state(self, state: AppState) -> None:
        if state is self.state:
            return
        self.state = state
        self.state_changed.fire(state)

    def is_running(self) -> bool:
        return self.state in (AppState.RUNNING, AppState.DEGRADED,
                              AppState.HUNG, AppState.STARTING)

    def is_healthy(self) -> bool:
        return self.state is AppState.RUNNING

    def startup_duration(self) -> float:
        return sum(s.duration for s in self.startup_steps)

    def start(self) -> None:
        """Run the startup script: spawn processes, walk the startup
        sequence, then accept connections."""
        if self.state in (AppState.RUNNING, AppState.STARTING,
                          AppState.DEGRADED):
            return
        if not self.host.is_up:
            return
        self._set_state(AppState.STARTING)
        self._spawn_processes()
        self.host.add_io_demand(self.io_demand)
        self._startup_event = self.sim.schedule(
            self.startup_duration(), self._finish_start)

    def _finish_start(self) -> None:
        if self.state is not AppState.STARTING:
            return
        if not self.config_ok:
            self.crash("bad configuration: startup aborted")
            return
        if not self.data_ok:
            self.crash("corrupt data files: startup aborted")
            return
        self.started_at = self.sim.now
        self._set_state(AppState.RUNNING)
        self.on_started()

    def on_started(self) -> None:
        """Hook for subclasses (e.g. databases re-open their job queue)."""

    def stop(self) -> None:
        """Orderly shutdown."""
        if self.state in (AppState.STOPPED, AppState.CRASHED):
            return
        self._cancel_startup()
        self._set_state(AppState.STOPPING)
        self.on_stopping("shutdown")
        self._reap_processes()
        self._set_state(AppState.STOPPED)

    def restart(self) -> None:
        """The universal remedy; counts toward restart statistics."""
        self.restart_count += 1
        if self.state not in (AppState.STOPPED, AppState.CRASHED):
            self.stop()
        else:
            self._reap_processes()
        self._set_state(AppState.STOPPED)
        self.start()

    def crash(self, reason: str = "fault") -> None:
        """Processes die abruptly."""
        if self.state in (AppState.STOPPED, AppState.CRASHED):
            return
        self._cancel_startup()
        self.host.log_error(self.name, f"fatal: {reason}; terminating")
        self.on_stopping(reason)
        self._reap_processes()
        self._set_state(AppState.CRASHED)

    def hang(self, reason: str = "deadlock") -> None:
        """The latent error: processes survive, service does not."""
        if self.state not in (AppState.RUNNING, AppState.DEGRADED):
            return
        # latent: often *nothing* reaches the error log
        self._set_state(AppState.HUNG)

    def degrade(self, reason: str = "slow") -> None:
        if self.state is AppState.RUNNING:
            self.host.syslog.warning(self.sim.now, self.name,
                                     f"performance degraded: {reason}")
            self._set_state(AppState.DEGRADED)

    def host_went_down(self, reason: str) -> None:
        """Called by the host on crash/shutdown."""
        self._cancel_startup()
        self.on_stopping(f"host-down: {reason}")
        self.procs.clear()   # host cleared its own table
        self._set_state(AppState.STOPPED)

    def on_stopping(self, reason: str) -> None:
        """Hook for subclasses (databases fail their active jobs here)."""

    # -- processes ----------------------------------------------------------------

    def _spawn_processes(self) -> None:
        for spec in self.process_specs:
            for _ in range(spec.count):
                proc = self.host.ptable.spawn(
                    self.user, spec.command, cpu_pct=spec.cpu_pct,
                    mem_mb=spec.mem_mb, now=self.sim.now, owner=self)
                self.procs.append(proc)

    def _reap_processes(self) -> None:
        for proc in self.procs:
            self.host.ptable.kill(proc.pid)
        self.procs.clear()
        self.host.add_io_demand(-self.io_demand)

    def _cancel_startup(self) -> None:
        if self._startup_event is not None:
            self._startup_event.cancel()
            self._startup_event = None

    def processes_present(self) -> bool:
        """Do all expected daemons exist in the process table?  (What a
        naive ps-based check sees -- true even when HUNG.)"""
        for spec in self.process_specs:
            if len(self.host.ptable.by_command(spec.command)) < spec.count:
                return False
        return True

    # -- connectivity / health -------------------------------------------------------

    def accept_latency_ms(self) -> float:
        """Time to accept a TCP connection; negative = never accepts."""
        if self.state not in _ACCEPTING:
            return -1.0
        return self._accept_ms(self._load_multiplier())

    def _accept_ms(self, stretch: float) -> float:
        if self.state is AppState.DEGRADED:
            return self.base_response_ms * 20.0 * stretch
        return self.base_response_ms * stretch

    def _load_multiplier(self) -> float:
        """Response times stretch as the host saturates."""
        load = self.host.load_average()
        ceiling = max(1.0, self.host.spec.max_load)
        return 1.0 + max(0.0, load / ceiling) ** 2

    def service_time_ms(self) -> float:
        """Time for the probe's basic command after connecting."""
        return self._service_ms(self._load_multiplier())

    def _service_ms(self, stretch: float) -> float:
        return 2.0 * self.base_response_ms * stretch

    def probe(self) -> Tuple[bool, float, str]:
        """Local health probe: "connect and run a basic command".

        Returns (ok, response_ms, error).  This is what the service
        intelliagents run; remote probes wrap it in a tcp_connect.
        The connect and the command share one load reading.
        """
        if self.state not in _ACCEPTING:
            if self.state is AppState.STARTING:
                return (False, self.connect_timeout_ms, "starting")
            if self.state is AppState.HUNG:
                return (False, self.connect_timeout_ms, "timeout")
            return (False, 0.0, "refused")
        stretch = self._load_multiplier()
        total = self._accept_ms(stretch) + self._service_ms(stretch)
        if total > self.connect_timeout_ms:
            return (False, self.connect_timeout_ms, "timeout")
        return (True, total, "")

    # -- persistence ------------------------------------------------------------------

    def _save_pids(self) -> list:
        return [p.pid for p in self.procs]

    def _relink_procs(self, pids: list) -> None:
        self.procs = [self.host.ptable.adopt(pid, self) for pid in pids]

    def serve_batch(self, n: int) -> Tuple[int, int, float]:
        """Serve an aggregated batch of ``n`` user requests.

        Returns ``(served, failed, mean_latency_ms)``.  The whole batch
        shares one state sample and one load-stretched latency -- the
        fluid-traffic contract: within one engine tick the app's state
        does not change, so per-request probing would only repeat the
        same answer ``n`` times.  A crashed/hung app fails the batch at
        its timeout (or instantly when refusing); a degraded app still
        serves, slowly, unless it blows its own connect timeout.
        """
        if n <= 0:
            return (0, 0, 0.0)
        ok, ms, _err = self.probe()
        if not ok:
            return (0, n, ms)
        return (n, 0, ms)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<{type(self).__name__} {self.name}@{self.host.name} "
                f"{self.state.value}>")
