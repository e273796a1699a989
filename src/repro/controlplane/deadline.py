"""Per-key deadline tracking (the staleness wheel).

The paper's watchdog signal is the *absence* of flags: an agent whose
freshest flag is older than the watch period is stale.  The full-scan
watchdog re-derives that by reading every flag directory every sweep;
the wheel derives it from the same ledger deltas -- each flag condition
advances its agent's deadline, and a sweep asks only "which keys are
at or past their deadline *now*?", which is O(newly due), not O(site).

A key that comes due stays in the due set until a later deadline moves
it back to the future (flags resumed), mirroring how a stale agent
stays stale in the full scan until it actually flags again.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Set, Tuple

from repro.persist.core import Persistent, sortedset, via

__all__ = ["DeadlineWheel"]


class DeadlineWheel(Persistent):
    """A lazy-deletion heap of (deadline, key) with a sticky due-set."""

    #: deadlines and the sticky due-set; keys are serialised as lists
    #: (the control plane keys on ``(host, agent)`` tuples)
    _persist = (via("deadlines", "_save_deadlines", "_load_deadlines"),
                sortedset("due", tuple, list, "_due"))

    def __init__(self):
        self._deadline: Dict[Hashable, float] = {}
        self._heap: List[Tuple[float, int, Hashable]] = []
        self._due: Set[Hashable] = set()
        self._push_seq = 0

    def __len__(self) -> int:
        return len(self._deadline)

    def set_deadline(self, key: Hashable, deadline: float) -> None:
        """(Re)arm ``key``; a fresher deadline rescues a due key."""
        self._deadline[key] = deadline
        self._due.discard(key)
        self._push_seq += 1
        heapq.heappush(self._heap, (deadline, self._push_seq, key))

    def deadline_of(self, key: Hashable) -> float:
        return self._deadline.get(key, float("inf"))

    def drop(self, key: Hashable) -> None:
        self._deadline.pop(key, None)
        self._due.discard(key)

    def due(self, now: float) -> Set[Hashable]:
        """Keys whose current deadline is <= ``now``.  Pops newly due
        entries off the heap (skipping stale rescheduled ones) and
        returns the sticky due-set; callers must not mutate it."""
        heap = self._heap
        while heap and heap[0][0] <= now:
            deadline, _seq, key = heapq.heappop(heap)
            if self._deadline.get(key) == deadline:
                self._due.add(key)
            # else: rescheduled since this entry was pushed -- lazy drop
        return self._due

    # -- persistence ---------------------------------------------------------

    def _save_deadlines(self) -> list:
        return [[list(k), d] for k, d in sorted(self._deadline.items())]

    def _load_deadlines(self, saved: list) -> None:
        """The heap itself is derived state: lazy deletion means only
        the entry matching ``_deadline[key]`` is ever believed, so a
        heap rebuilt from the live deadlines is behaviour-identical."""
        self._deadline = {tuple(k): float(d) for k, d in saved}
        self._heap = []
        self._push_seq = 0
        for key, deadline in sorted(self._deadline.items(),
                                    key=lambda kv: (kv[1], kv[0])):
            self._push_seq += 1
            self._heap.append((deadline, self._push_seq, key))
        heapq.heapify(self._heap)

    def __repr__(self) -> str:   # pragma: no cover - debug aid
        return (f"<DeadlineWheel keys={len(self._deadline)} "
                f"due={len(self._due)}>")
