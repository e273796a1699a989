"""Syslog model.

The diagnosing part of an intelliagent works "statically, from parsing
and examining error logs".  Each host keeps a bounded in-order log of
records; applications and the kernel append to it, agents grep it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, List, Optional

from repro.persist.core import Persistent, record, rows

__all__ = ["SyslogRecord", "Syslog", "SEVERITIES"]

SEVERITIES = ("emerg", "alert", "crit", "err", "warning", "notice", "info")
_SEV_RANK = {s: i for i, s in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class SyslogRecord:
    time: float
    facility: str       # kern | daemon | user | local0 ...
    severity: str       # one of SEVERITIES
    tag: str            # program name, e.g. "oracle", "httpd"
    message: str


class Syslog(Persistent):
    """Bounded, append-only host log."""

    MAXLEN = 20000
    #: the records load into the live ring, which keeps its bound
    _persist = (rows("records", *record(SyslogRecord)),)

    def __init__(self):
        self.records: Deque[SyslogRecord] = deque(maxlen=self.MAXLEN)
        #: live taps (the trigger bus): called synchronously per record
        self.listeners: List[Callable[[SyslogRecord], None]] = []

    def subscribe(self, fn: Callable[[SyslogRecord], None]) -> None:
        self.listeners.append(fn)

    def log(self, time: float, facility: str, severity: str, tag: str,
            message: str) -> SyslogRecord:
        if severity not in _SEV_RANK:
            raise ValueError(f"unknown severity {severity!r}")
        rec = SyslogRecord(time, facility, severity, tag, message)
        self.records.append(rec)
        for fn in list(self.listeners):
            fn(rec)
        return rec

    # convenience severities ------------------------------------------------

    def error(self, time: float, tag: str, message: str) -> SyslogRecord:
        return self.log(time, "daemon", "err", tag, message)

    def warning(self, time: float, tag: str, message: str) -> SyslogRecord:
        return self.log(time, "daemon", "warning", tag, message)

    def info(self, time: float, tag: str, message: str) -> SyslogRecord:
        return self.log(time, "daemon", "info", tag, message)

    # queries ---------------------------------------------------------------

    def grep(self, *, tag: Optional[str] = None,
             min_severity: str = "info",
             since: float = float("-inf"),
             contains: Optional[str] = None) -> List[SyslogRecord]:
        """Filter records: by tag, minimum severity (err ⊂ warning ⊂ ...),
        time floor and substring."""
        rank = _SEV_RANK[min_severity]
        out: List[SyslogRecord] = []
        for rec in self.records:
            if rec.time < since:
                continue
            if _SEV_RANK[rec.severity] > rank:
                continue
            if tag is not None and rec.tag != tag:
                continue
            if contains is not None and contains not in rec.message:
                continue
            out.append(rec)
        return out
