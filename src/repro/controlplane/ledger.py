"""The versioned condition ledger.

An evolving model of the deployment, updated by change events rather
than repeated whole-world probes: every flag raise, DLSP arrival, host
state transition and route change appends one typed
:class:`Condition` carrying a monotonic version.  Consumers either

- hold a :class:`LedgerCursor` and *pull* everything newer than their
  last-seen version (the administration servers' sweep), or
- register a *push* listener invoked synchronously at append time
  (front doors and the reroute directory, which must react within one
  delivery, not at the next refresh).

The ledger keeps a bounded backlog: entries every cursor has consumed
are trimmed eagerly, and if a consumer stops polling the backlog is
force-trimmed at ``maxlen`` -- the lagging cursor then reports an
**overrun** on its next poll so its owner knows to resynchronise from
the ground truth (one full rescan) instead of silently missing deltas.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, List, Tuple

from repro.persist.core import Persistent, record, rows, scalars, via

__all__ = ["Condition", "ConditionLedger", "LedgerCursor"]

#: condition kinds appended by the current producers
KINDS = ("flag", "dlsp", "host", "route", "wake", "alert")


@dataclass(frozen=True)
class Condition:
    """One typed delta in the site's evolving model."""

    version: int
    kind: str           # "flag" | "dlsp" | "host" | "route" | "wake"
    host: str
    agent: str = ""     # flag: agent name; route: app name
    status: str = ""    # flag status / "up"/"down" / "drain"/"cutover"
    time: float = 0.0   # producer's sim-time stamp
    detail: str = ""


class LedgerCursor:
    """One consumer's read position."""

    def __init__(self, ledger: "ConditionLedger", name: str):
        self.ledger = ledger
        self.name = name
        self.last_seen = ledger.version
        self.polls = 0
        self.consumed = 0
        self.overruns = 0

    def poll(self) -> Tuple[List[Condition], bool]:
        """Everything newer than ``last_seen``, plus an overrun flag.

        An overrun means the ledger was force-trimmed past this cursor:
        some deltas are gone and the consumer must resynchronise from
        ground truth before trusting its model again.
        """
        self.polls += 1
        overrun = self.last_seen < self.ledger.floor
        if overrun:
            self.overruns += 1
        fresh = self.ledger.read_since(self.last_seen)
        self.last_seen = self.ledger.version
        self.consumed += len(fresh)
        self.ledger._trim()
        return fresh, overrun

    def __repr__(self) -> str:   # pragma: no cover - debug aid
        return (f"<LedgerCursor {self.name} last_seen={self.last_seen} "
                f"consumed={self.consumed}>")


class ConditionLedger(Persistent):
    """Per-site append-only log of conditions with monotonic versions."""

    #: entries, version watermarks and every cursor's position; push
    #: listeners are structural (re-wired at rebuild)
    _persist = (*scalars(int, "maxlen", "version", "floor", "appended"),
                rows("entries", *record(Condition), attr="_entries"),
                via("cursors", "_save_cursors", "_load_cursors"))

    def __init__(self):
        self.maxlen = 1 << 18
        self._entries: deque = deque()
        #: version of the newest appended condition (0 = none yet)
        self.version = 0
        #: versions <= floor have been trimmed away
        self.floor = 0
        self._cursors: List[LedgerCursor] = []
        self._push: List[Callable[[Condition], None]] = []
        #: hosts with at least one condition, by kind, since the given
        #: version -- the dirty-set view consumers use to scope work
        self.appended = 0

    # -- producing -----------------------------------------------------------

    def append(self, kind: str, host: str, *, agent: str = "",
               status: str = "", time: float = 0.0,
               detail: str = "") -> Condition:
        if kind not in KINDS:
            raise ValueError(f"unknown condition kind {kind!r}")
        self.version += 1
        cond = Condition(self.version, kind, host, agent, status, time,
                         detail)
        self._entries.append(cond)
        self.appended += 1
        if len(self._entries) > self.maxlen:
            self._force_trim()
        for fn in self._push:
            try:
                fn(cond)
            except Exception:
                # a broken listener must not break the producer (a flag
                # raise ought never fail because a console display died)
                pass
        return cond

    # -- consuming -----------------------------------------------------------

    def subscribe(self, name: str) -> LedgerCursor:
        """A pull consumer starting at the current version."""
        cursor = LedgerCursor(self, name)
        self._cursors.append(cursor)
        return cursor

    def on_append(self, fn: Callable[[Condition], None]) -> None:
        """A push listener called synchronously on every append."""
        self._push.append(fn)

    def read_since(self, version: int) -> List[Condition]:
        """All retained conditions with version > ``version`` --
        O(changes), never O(history): the deque only holds what some
        cursor has not consumed yet."""
        if version >= self.version:
            return []
        start = max(0, version - self.floor)
        if start == 0:
            return list(self._entries)
        return list(islice(self._entries, start, None))

    # -- trimming ------------------------------------------------------------

    def _min_cursor(self) -> int:
        if not self._cursors:
            return self.version
        return min(c.last_seen for c in self._cursors)

    def _trim(self) -> None:
        """Drop entries every cursor has consumed."""
        target = self._min_cursor()
        while self._entries and self._entries[0].version <= target:
            self._entries.popleft()
        self.floor = (self._entries[0].version - 1 if self._entries
                      else self.version)

    def _force_trim(self) -> None:
        """Backlog cap blown: drop the oldest half regardless of
        cursors.  Lagging cursors will observe the overrun."""
        drop = len(self._entries) // 2
        for _ in range(drop):
            self._entries.popleft()
        self.floor = (self._entries[0].version - 1 if self._entries
                      else self.version)

    # -- persistence ---------------------------------------------------------

    def _save_cursors(self) -> dict:
        names = [c.name for c in self._cursors]
        if len(set(names)) != len(names):
            raise ValueError(
                f"cannot snapshot ledger with duplicate cursor names: "
                f"{sorted(names)}")
        return {c.name: [c.last_seen, c.polls, c.consumed, c.overruns]
                for c in self._cursors}

    def _load_cursors(self, saved: dict) -> None:
        names = {c.name for c in self._cursors}
        if set(saved) != names:
            raise KeyError(
                f"ledger snapshot cursors {sorted(saved)} != rebuilt "
                f"cursors {sorted(names)}")
        for c in self._cursors:
            c.last_seen, c.polls, c.consumed, c.overruns = map(
                int, saved[c.name])

    def __repr__(self) -> str:   # pragma: no cover - debug aid
        return (f"<ConditionLedger v{self.version} "
                f"backlog={len(self._entries)} "
                f"cursors={len(self._cursors)}>")
