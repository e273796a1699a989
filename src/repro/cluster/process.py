"""Unix process table model.

Applications, batch jobs, monitors and (while running) intelliagents
all appear as entries in their host's process table.  The table is what
``ps``-style shell commands and the per-process accounting samplers
read, and what the service agents check against the SLKT's expected
process names/counts.

Microstate accounting (§3.5 of the paper) is modelled per process:
cumulative user/system/wait times advance whenever the host samples.

The table keeps its own books.  ``runnable()`` and ``blocked()`` --
the run-queue facts every load reading, probe and DLSP hangs on -- are
integers maintained where the table is written (``spawn``, ``kill``,
``update``, ``clear``, restore), not recounted where it is read.  That
makes :meth:`ProcessTable.update` the only way to change ``cpu_pct``,
``mem_mb`` or ``state`` of a live entry: a direct assignment would
leave the books behind.  The counts are derived state and are never
serialised; the float totals stay a ``sum()`` over insertion order,
because an incrementally kept float would round differently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.persist.core import Persistent, scalar, via

__all__ = ["ProcState", "SimProc", "ProcessTable",
           "RUNNABLE_CPU_THRESHOLD"]

#: share of one CPU (percent) above which a RUNNING process counts
#: toward the run queue
RUNNABLE_CPU_THRESHOLD = 30.0


class ProcState(enum.Enum):
    RUNNING = "R"
    SLEEPING = "S"
    BLOCKED = "D"      # uninterruptible I/O wait
    ZOMBIE = "Z"
    STOPPED = "T"


@dataclass(slots=True)
class Microstates:
    """Cumulative microstate clocks, in seconds (paper cites
    microsecond resolution; floats carry that precision fine)."""

    user: float = 0.0
    system: float = 0.0
    wait_io: float = 0.0
    sleep: float = 0.0


@dataclass(slots=True)
class SimProc:
    """One process-table entry."""

    pid: int
    user: str
    command: str
    args: str = ""
    cpu_pct: float = 0.0        # share of ONE cpu, 0..100
    mem_mb: float = 1.0
    state: ProcState = ProcState.RUNNING
    started_at: float = 0.0
    owner: object = None        # the app/agent object that spawned it
    micro: Microstates = field(default_factory=Microstates)

    @property
    def cmdline(self) -> str:
        return f"{self.command} {self.args}".strip()

    def advance(self, dt: float) -> None:
        """Advance microstate clocks across ``dt`` wall seconds."""
        if self.state is ProcState.RUNNING:
            busy = dt * self.cpu_pct / 100.0
            self.micro.user += busy * 0.8
            self.micro.system += busy * 0.2
            self.micro.sleep += dt - busy
        elif self.state is ProcState.BLOCKED:
            self.micro.wait_io += dt
        else:
            self.micro.sleep += dt


class ProcessTable(Persistent):
    """The host's process table.

    PIDs are allocated monotonically per host.  Lookup by command name
    is the hot path (service agents check for expected daemons), so an
    index is maintained.
    """

    _persist = (scalar("next_pid", int, "_next_pid"),
                scalar("last_advance", float, "_last_advance"),
                via("procs", "_save_procs", "_load_procs"))

    def __init__(self, hostname: str = ""):
        self.hostname = hostname
        self._procs: Dict[int, SimProc] = {}
        self._by_command: Dict[str, List[SimProc]] = {}
        # plain int (not itertools.count) so checkpoints can capture it
        self._next_pid = 100
        self._last_advance = 0.0
        #: live taps (the trigger bus): called per individual kill;
        #: a host crash wipes the table via clear() without notifying
        self.exit_listeners: List[Callable[[SimProc], None]] = []
        #: the books: entries queueing for a CPU / in I/O wait
        self._runnable = 0
        self._blocked = 0

    def __len__(self) -> int:
        return len(self._procs)

    def __iter__(self) -> Iterator[SimProc]:
        return iter(list(self._procs.values()))

    # -- lifecycle -------------------------------------------------------

    def _book(self, proc: SimProc, sign: int) -> None:
        """Enter (+1) or strike (-1) one entry in the run-queue books.
        Idle daemons sit in the table with a couple of percent of
        demand; they do not queue for a processor, so only genuinely
        busy processes count toward the run queue."""
        if proc.state is ProcState.RUNNING:
            if proc.cpu_pct >= RUNNABLE_CPU_THRESHOLD:
                self._runnable += sign
        elif proc.state is ProcState.BLOCKED:
            self._blocked += sign

    def spawn(self, user: str, command: str, args: str = "", *,
              cpu_pct: float = 0.0, mem_mb: float = 1.0,
              now: float = 0.0, owner: object = None) -> SimProc:
        pid, self._next_pid = self._next_pid, self._next_pid + 1
        proc = SimProc(pid=pid, user=user, command=command,
                       args=args, cpu_pct=cpu_pct, mem_mb=mem_mb,
                       started_at=now, owner=owner)
        self._procs[proc.pid] = proc
        self._by_command.setdefault(command, []).append(proc)
        self._book(proc, +1)
        return proc

    def update(self, pid: int, *, cpu_pct: Optional[float] = None,
               mem_mb: Optional[float] = None,
               state: Optional[ProcState] = None) -> bool:
        """Change a live entry's demand or state -- the only writer of
        those fields once an entry is in the table.  False (and no
        change) when ``pid`` is not live: a killed entry is out of the
        books and stays out."""
        proc = self._procs.get(pid)
        if proc is None:
            return False
        self._book(proc, -1)
        if cpu_pct is not None:
            proc.cpu_pct = cpu_pct
        if mem_mb is not None:
            proc.mem_mb = mem_mb
        if state is not None:
            proc.state = state
        self._book(proc, +1)
        return True

    def kill(self, pid: int) -> bool:
        proc = self._procs.pop(pid, None)
        if proc is None:
            return False
        self._book(proc, -1)
        peers = self._by_command.get(proc.command)
        if peers:
            try:
                peers.remove(proc)
            except ValueError:
                pass
            if not peers:
                del self._by_command[proc.command]
        if self.exit_listeners:
            for fn in list(self.exit_listeners):
                fn(proc)
        return True

    def kill_command(self, command: str) -> int:
        """``pkill -x`` equivalent: remove every process named exactly
        ``command``; returns the count killed."""
        victims = list(self._by_command.get(command, ()))
        for proc in victims:
            self.kill(proc.pid)
        return len(victims)

    def clear(self) -> None:
        """Host crash/reboot wipes the table."""
        self._procs.clear()
        self._by_command.clear()
        self._runnable = self._blocked = 0

    # -- queries ---------------------------------------------------------

    def get(self, pid: int) -> Optional[SimProc]:
        return self._procs.get(pid)

    def by_command(self, command: str) -> List[SimProc]:
        return list(self._by_command.get(command, ()))

    def alive(self, command: str) -> bool:
        return bool(self._by_command.get(command))

    # -- accounting ------------------------------------------------------

    def total_cpu_pct(self) -> float:
        """Sum of per-process single-CPU shares (can exceed 100 on SMP)."""
        return sum(p.cpu_pct for p in self._procs.values()
                   if p.state is ProcState.RUNNING)

    def total_mem_mb(self) -> float:
        return sum(p.mem_mb for p in self._procs.values())

    def runnable(self) -> int:
        """Processes effectively occupying a CPU (kept, see
        :meth:`_book`)."""
        return self._runnable

    def blocked(self) -> int:
        return self._blocked

    def advance(self, now: float) -> None:
        """Advance per-process microstate clocks to ``now``."""
        dt = now - self._last_advance
        if dt <= 0:
            return
        for p in self._procs.values():
            p.advance(dt)
        self._last_advance = now

    # -- persistence -----------------------------------------------------

    def _save_procs(self) -> list:
        """Entries in insertion order (restore then reproduces both the
        pid map and the per-command index order exactly).  ``owner``
        object links are not serialised; owners relink their own
        processes by pid when they restore."""
        return [{"pid": p.pid, "user": p.user, "command": p.command,
                 "args": p.args, "cpu_pct": p.cpu_pct, "mem_mb": p.mem_mb,
                 "state": p.state.value, "started_at": p.started_at,
                 "micro": [p.micro.user, p.micro.system,
                           p.micro.wait_io, p.micro.sleep]}
                for p in self._procs.values()]

    def adopt(self, pid: int, owner) -> SimProc:
        """Restore-time relink: ``owner`` reclaims the entry it spawned
        before the snapshot."""
        proc = self._procs.get(pid)
        if proc is None:
            raise KeyError(
                f"{owner.name}: snapshot process pid {pid} missing from "
                f"{self.hostname}'s restored table")
        proc.owner = owner
        return proc

    def _load_procs(self, saved: list) -> None:
        self.clear()
        for row in saved:
            u, s, w, z = row["micro"]
            proc = SimProc(
                pid=int(row["pid"]), user=row["user"],
                command=row["command"], args=row["args"],
                cpu_pct=float(row["cpu_pct"]), mem_mb=float(row["mem_mb"]),
                state=ProcState(row["state"]),
                started_at=float(row["started_at"]),
                micro=Microstates(user=u, system=s, wait_io=w, sleep=z))
            self._procs[proc.pid] = proc
            self._by_command.setdefault(proc.command, []).append(proc)
            self._book(proc, +1)
