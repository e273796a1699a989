"""The flag-file protocol.

"Whenever a local intelliagent runs, it produces a flag in the
dedicated '/logs/intelliagents/intelliagent_name' directory on the
local server disk to show the status of the run.  A number of flags are
produced with appropriate naming conventions that show what happened
and exactly where the agent found a fault.  Absence of these flags
means that we either have an internal intelliagent problem or that they
did not run at all."

Flag files are named ``<status>.<timestamp>`` with an optional detail
payload inside.  The administration servers' watchdog reads freshness;
humans read the detail; self-maintenance prunes old flags.

A store can additionally be bound to the site's condition ledger
(:mod:`repro.controlplane`): every successful flag write then also
appends a ``flag`` condition, which is how the incremental control
plane learns about agent activity without re-reading the directories.

Self-maintenance runs on every wake but has something to delete only
when the oldest flag has outlived the retention, so the store carries
a lower bound on the oldest stamp in its directory and lists the
directory only once the cutoff has passed it.  The bound is derived,
never saved: :meth:`FlagStore.raise_flag` lowers it, a real scan
recomputes it, and a new store or a restored filesystem
(:meth:`FlagStore.forget`) start from "unknown".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.cluster.filesystem import FsError

__all__ = ["FLAG_DIR", "Flag", "FlagStore", "FLAG_STATUSES"]

FLAG_DIR = "/logs/intelliagents"

#: ok       -- ran, all clear
#: fault    -- ran, found a fault (detail says where)
#: fixed    -- ran, repaired a fault
#: failed   -- ran, could not repair; humans notified
#: skipped  -- woke but exited (same-type lockout)
FLAG_STATUSES = ("ok", "fault", "fixed", "failed", "skipped")


def _flag_name(status: str, time: float, seq: int) -> str:
    """The naming rule: ``<status>.<time to 0.1 s>[.<seq>]``."""
    base = f"{status}.{time:.1f}"
    return base if seq == 0 else f"{base}.{seq}"


@dataclass(frozen=True)
class Flag:
    agent: str
    status: str
    time: float
    detail: str = ""
    #: disambiguates flags of the same status raised within the same
    #: 0.1 s filename bucket (they used to silently overwrite)
    seq: int = 0


class FlagStore:
    """Reads and writes one agent's flag directory on a host fs (only
    a raised flag writes: the owning agent creates the directory)."""

    def __init__(self, fs, agent_name: str, *, ledger=None,
                 host: str = ""):
        self.fs = fs
        self.agent = agent_name
        self.dir = f"{FLAG_DIR}/{agent_name}"
        #: condition-ledger binding (see :meth:`bind`)
        self.ledger = ledger
        self.host = host
        self.transport = None
        #: no flag in the directory is stamped earlier (None: unknown)
        self._oldest: Optional[float] = None

    def bind(self, ledger, host: str,
             transport: Optional[Callable[[str], bool]] = None) -> None:
        """Attach this store to a site condition ledger.  ``transport``
        models the delivery leg: called with the host name before each
        append, a False return drops the condition (the flag file still
        exists locally -- exactly a partitioned host's behaviour)."""
        self.ledger = ledger
        self.host = host
        self.transport = transport

    # -- writing ------------------------------------------------------------

    def raise_flag(self, status: str, now: float, detail: str = "") -> None:
        if status not in FLAG_STATUSES:
            raise ValueError(f"unknown flag status {status!r}")
        path = f"{self.dir}/{_flag_name(status, now, 0)}"
        seq = 0
        while self.fs.exists(path):
            seq += 1
            path = f"{self.dir}/{_flag_name(status, now, seq)}"
        self.fs.write(path, [detail] if detail else [], now=now)
        if self._oldest is not None:
            # the name carries the stamp rounded to 0.1 s, and the name
            # is what pruning reads
            self._oldest = min(self._oldest, now - 0.1)
        if self.ledger is not None and (
                self.transport is None or self.transport(self.host)):
            self.ledger.append("flag", self.host, agent=self.agent,
                               status=status, time=now, detail=detail)

    def clear_before(self, cutoff: float) -> int:
        """Self-maintenance: drop flags older than ``cutoff``."""
        if self._oldest is not None and cutoff <= self._oldest:
            return 0            # nothing here can have expired yet
        removed = 0
        oldest = float("inf")
        for path in self.fs.files_in_dir(self.dir):
            parsed = self._parse_name(path)
            if parsed is None:
                continue
            if parsed[1] < cutoff:
                self.fs.remove(path)
                removed += 1
            elif parsed[1] < oldest:
                oldest = parsed[1]
        self._oldest = oldest
        return removed

    def forget(self) -> None:
        """Drop what was derived from the directory (it was replaced
        under the store, e.g. by a filesystem restore)."""
        self._oldest = None

    # -- reading --------------------------------------------------------------

    @staticmethod
    def _parse_name(path: str) -> Optional[tuple]:
        """(status, time, seq) straight from the filename -- the hot
        path never opens the file."""
        name = path.rsplit("/", 1)[-1]
        status, _, stamp = name.partition(".")
        if status not in FLAG_STATUSES:
            return None
        try:
            return (status, float(stamp), 0)
        except ValueError:
            pass
        base, _, seq = stamp.rpartition(".")
        try:
            return (status, float(base), int(seq))
        except ValueError:
            return None

    def _parse_path(self, path: str) -> Optional[Flag]:
        parsed = self._parse_name(path)
        if parsed is None:
            return None
        status, t, seq = parsed
        try:
            lines = self.fs.read(path)
        except FsError:
            lines = []
        return Flag(self.agent, status, t, lines[0] if lines else "", seq)

    def flags(self) -> List[Flag]:
        out = []
        for path in self.fs.files_in_dir(self.dir):
            flag = self._parse_path(path)
            if flag is not None:
                out.append(flag)
        out.sort(key=lambda f: (f.time, f.seq))
        return out

    def _latest_name(self) -> Tuple[Optional[tuple], Optional[str]]:
        """(parsed name, path) of the freshest flag, from names alone."""
        best: Optional[tuple] = None
        best_path: Optional[str] = None
        for path in self.fs.files_in_dir(self.dir):
            parsed = self._parse_name(path)
            if parsed is not None and (
                    best is None or parsed[1:] > best[1:]):
                best, best_path = parsed, path
        return best, best_path

    def latest_time(self) -> float:
        """Freshest flag timestamp (-inf when none exist), the number
        the watchdog compares against the expected cron grid.  It is in
        the name: no file is opened."""
        parsed, _path = self._latest_name()
        return float("-inf") if parsed is None else parsed[1]
