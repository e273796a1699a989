"""Email / SMS notification channel.

Both pipelines notify humans the same way: "they notify human
administrators (usually via email or SMS)".  The channel is a plain
ledger -- experiments assert on what was sent and when.

Alert storms are first-class: with ``dedup_window`` set, repeats of the
same (medium, recipient, subject) inside the window collapse into the
already-sent page, whose ``suppressed`` count is bumped instead; with
``rate_limit`` set, a recipient who has already received that many
pages inside ``rate_window`` stops getting new ones (also counted as
suppressed).  Both knobs default to off so the channel stays a faithful
1:1 ledger unless an alerting tier asks otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from collections import defaultdict, deque

from repro.persist.core import (Persistent, record, rows, scalar, table,
                                via)

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
    #: later identical pages folded into this one (dedup window)
    suppressed: int = 0


class NotificationChannel(Persistent):
    """Site-wide message ledger with optional live subscribers."""

    _persist = (
        rows("sent", *record(Notification)),
        scalar("suppressed_total", int),
        table("suppressed_by_recipient", int),
        via("last_sent", "_save_last_sent", "_load_last_sent"),
        table("recent", lambda times: deque(float(t) for t in times), list,
              "_recent"))

    def __init__(self, sim, *, dedup_window: float = 0.0,
                 rate_limit: Optional[int] = None,
                 rate_window: float = 3600.0):
        self.sim = sim
        self.sent: List[Notification] = []
        self._subscribers: List[Callable[[Notification], None]] = []
        #: collapse repeats of one (medium, recipient, subject) within
        #: this many seconds into the original page (0 = off)
        self.dedup_window = float(dedup_window)
        #: max pages per recipient per rate_window (None = unlimited)
        self.rate_limit = rate_limit
        self.rate_window = float(rate_window)
        self.suppressed_total = 0
        #: per-recipient suppression counters (dedup + rate-limit)
        self.suppressed_by_recipient: Dict[str, int] = defaultdict(int)
        self._last_sent: Dict[Tuple[str, str, str], Notification] = {}
        self._recent: Dict[str, Deque[float]] = defaultdict(deque)

    def subscribe(self, fn: Callable[[Notification], None]) -> None:
        self._subscribers.append(fn)

    def _suppress(self, recipient: str) -> None:
        self.suppressed_total += 1
        self.suppressed_by_recipient[recipient] += 1

    def send(self, medium: str, recipient: str, subject: str, *,
             body: str = "", severity: str = "warning",
             sender: str = "") -> Notification:
        if medium not in ("email", "sms"):
            raise ValueError(f"unknown medium {medium!r}")
        now = self.sim.now

        if self.dedup_window > 0:
            key = (medium, recipient, subject)
            prev = self._last_sent.get(key)
            if prev is not None and (now - prev.time) < self.dedup_window:
                # fold into the page already on the wire; the frozen
                # dataclass is the ledger record, so poke the counter
                # through object.__setattr__ rather than re-sending
                object.__setattr__(prev, "suppressed", prev.suppressed + 1)
                self._suppress(recipient)
                return prev

        if self.rate_limit is not None:
            recent = self._recent[recipient]
            while recent and (now - recent[0]) >= self.rate_window:
                recent.popleft()
            if len(recent) >= self.rate_limit:
                self._suppress(recipient)
                last = self._last_for(recipient)
                if last is not None:
                    object.__setattr__(last, "suppressed",
                                       last.suppressed + 1)
                    return last
                return Notification(now, medium, recipient, subject, body,
                                    severity, sender, suppressed=1)

        note = Notification(now, medium, recipient, subject, body,
                            severity, sender)
        self.sent.append(note)
        if self.dedup_window > 0:
            self._last_sent[(medium, recipient, subject)] = note
        if self.rate_limit is not None:
            self._recent[recipient].append(now)
        for fn in self._subscribers:
            fn(note)
        return note

    def _last_for(self, recipient: str) -> Optional[Notification]:
        for n in reversed(self.sent):
            if n.recipient == recipient:
                return n
        return None

    def email(self, recipient: str, subject: str, **kw) -> Notification:
        return self.send("email", recipient, subject, **kw)

    def sms(self, recipient: str, subject: str, **kw) -> Notification:
        return self.send("sms", recipient, subject, **kw)

    # -- persistence ---------------------------------------------------------

    def _save_last_sent(self) -> list:
        """Dedup bookkeeping references are saved as indices into the
        sent list so folding keeps mutating the same records after a
        restore."""
        index = {id(n): i for i, n in enumerate(self.sent)}
        return [[list(key), index[id(n)]]
                for key, n in self._last_sent.items()]

    def _load_last_sent(self, saved: list) -> None:
        self._last_sent = {tuple(key): self.sent[int(i)]
                           for key, i in saved}

    # -- queries -------------------------------------------------------------

    def since(self, t: float) -> List[Notification]:
        return [n for n in self.sent if n.time >= t]

    def by_severity(self, severity: str) -> List[Notification]:
        return [n for n in self.sent if n.severity == severity]

    def count(self) -> int:
        return len(self.sent)
