"""Email / SMS notification channel.

Both pipelines notify humans the same way: "they notify human
administrators (usually via email or SMS)".  The channel is a plain
1:1 ledger -- every page sent is one record, and experiments assert on
what was sent and when.  Folding repeats for operators is the
console's job (:class:`~repro.ops.console.OperatorConsole` keeps one
alarm per subject with a repeat count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.persist.core import Persistent, record, rows

__all__ = ["Notification", "NotificationChannel"]


@dataclass(frozen=True)
class Notification:
    time: float
    medium: str          # "email" | "sms"
    recipient: str
    subject: str
    body: str = ""
    severity: str = "warning"    # "info" | "warning" | "critical"
    sender: str = ""


class NotificationChannel(Persistent):
    """Site-wide message ledger with optional live subscribers."""

    _persist = (rows("sent", *record(Notification)),)

    def __init__(self, sim):
        self.sim = sim
        self.sent: List[Notification] = []
        self._subscribers: List[Callable[[Notification], None]] = []

    def subscribe(self, fn: Callable[[Notification], None]) -> None:
        self._subscribers.append(fn)

    def send(self, medium: str, recipient: str, subject: str, *,
             body: str = "", severity: str = "warning",
             sender: str = "") -> Notification:
        if medium not in ("email", "sms"):
            raise ValueError(f"unknown medium {medium!r}")
        note = Notification(self.sim.now, medium, recipient, subject, body,
                            severity, sender)
        self.sent.append(note)
        for fn in self._subscribers:
            fn(note)
        return note

    def email(self, recipient: str, subject: str, **kw) -> Notification:
        return self.send("email", recipient, subject, **kw)

    def sms(self, recipient: str, subject: str, **kw) -> Notification:
        return self.send("sms", recipient, subject, **kw)

    # -- queries -------------------------------------------------------------

    def since(self, t: float) -> List[Notification]:
        return [n for n in self.sent if n.time >= t]

    def by_severity(self, severity: str) -> List[Notification]:
        return [n for n in self.sent if n.severity == severity]

    def count(self) -> int:
        return len(self.sent)
