"""The uniform persistence protocol.

A *snapshot* is a plain, strictly-JSON-serialisable dict: no live
objects, no tuples-as-keys, no ``inf``/``nan`` (components encode
sentinels as ``None`` before they reach this layer).  Identity between
two world states is therefore decidable by comparing canonical JSON --
the byte string :func:`canonical_json` produces -- and cheap to assert
via :func:`state_hash`.

Pending kernel events are never pickled.  A component that owns one
serialises its heap token ``[time, priority, seq]`` and re-arms it on
restore through :meth:`Simulator.schedule_exact`; ``claimed_seqs()``
declares ownership so the site walker can prove the whole heap is
accounted for.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Protocol, runtime_checkable

__all__ = ["FORMAT_VERSION", "Snapshottable", "QuiescenceError",
           "canonical_json", "check_format", "state_hash"]

#: bump when any component's snapshot layout changes incompatibly
FORMAT_VERSION = 2


def check_format(snapshot: dict, kind: str) -> None:
    """Refuse a snapshot written under another layout, or holding
    another kind of world (``"site"`` / ``"federation"``), before
    anything is built from it."""
    if snapshot.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format {snapshot.get('format')!r} != "
            f"supported {FORMAT_VERSION}")
    got = "federation" if "fedconfig" in snapshot else "site"
    if got != kind:
        raise ValueError(
            f"checkpoint holds a {got} document, wanted a {kind} one")


@runtime_checkable
class Snapshottable(Protocol):
    """What every stateful layer implements."""

    def snapshot_state(self) -> dict:
        """Logical state as a strictly-JSON-serialisable dict."""
        ...

    def restore_state(self, state: dict) -> None:
        """Overwrite this (freshly built) component from ``state``."""
        ...


class QuiescenceError(RuntimeError):
    """The world is not at a checkpointable barrier.

    Raised when a snapshot is attempted while some component holds
    in-flight work its snapshot cannot represent (open tracer spans,
    live relocations, unclaimed heap events).  The checkpoint manager
    treats this as "defer to the next epoch", not as failure.
    """


def canonical_json(state: dict) -> str:
    """The canonical byte-comparable rendering of a snapshot.

    ``allow_nan=False`` is the contract tripwire: a component that
    leaks ``inf``/``nan`` into its state dict fails here, at snapshot
    time, instead of producing a checkpoint another json parser cannot
    read back.
    """
    return json.dumps(state, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def state_hash(state: dict) -> str:
    """sha256 of the canonical JSON -- the checkpoint's content hash."""
    return hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()


def claimed_of(component) -> List[int]:
    """A component's claimed pending-event seqs ([] when it has none)."""
    fn = getattr(component, "claimed_seqs", None)
    return list(fn()) if fn is not None else []
