"""Epoch-boundary checkpointing.

The manager sits between run segments of one world -- a site or a
federation: the driver advances the simulation in epochs
(``sim.run(until=next_barrier)``, or ``fed.run(seconds)``) and calls
:meth:`CheckpointManager.epoch` at each barrier, where the kernel is
between events and the world can be quiescent.  When a barrier lands
on a non-quiescent moment (a relocation mid-flight, a backup running),
the snapshot defers to the next epoch instead of failing the run.

Writes are atomic (tmp file + ``os.replace``) so a run killed mid-write
never leaves a truncated checkpoint, and retention keeps the newest N
so a year-long segmented campaign holds bounded disk.  The file is the
:func:`~repro.persist.core.canonical_json` rendering of the sealed
document: the bytes the ``state_hash`` was taken over *plus* the
``"state_hash"`` member itself, at its sorted place.
:func:`repro.persist.core.seal` hands :meth:`CheckpointManager.epoch`
the pieces as it encodes them, once, and the file takes each as it
comes.  :meth:`CheckpointManager.load`, the one place a document enters
from outside the program, reads it back the same way and recomputes
that hash: a truncated, edited or bit-flipped file is a ``ValueError``
naming the path, never a running world.
"""

from __future__ import annotations

import json
import os
import sys
from json.decoder import WHITESPACE
from typing import List, Mapping, Optional

from repro.persist.core import (FORMAT_VERSION, QuiescenceError,
                                collector_paused, state_hash)
from repro.persist.federation_state import sealed_federation
from repro.persist.site_state import sealed_site

__all__ = ["CheckpointManager", "rss_mb"]


def rss_mb() -> float:
    """Peak resident set size of this process, in MiB (0.0 when the
    platform offers no ``resource`` module)."""
    try:
        import resource
    except ImportError:        # pragma: no cover - non-posix
        return 0.0
    ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # linux reports KiB, macOS bytes
    return ru / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _refuse_constant(name: str):
    """``json``'s hook for ``NaN`` / ``Infinity`` / ``-Infinity``,
    which Python parses and no canonical document can hold."""
    raise ValueError(f"non-finite literal {name}")


_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _read(fh):
    """``json.load(fh)`` without ever holding the file's text: an object
    is read member by member two levels down, the way
    :func:`~repro.persist.core.seal` wrote it, and any other value from
    a buffer that grows only until the value ends."""
    buf, pos = "", 0

    def more() -> bool:
        """Drop what was read; read at least as much as is left."""
        nonlocal buf, pos
        text = fh.read(max(1 << 16, len(buf) - pos))
        buf, pos = buf[pos:] + text, 0
        return bool(text)

    def peek(expected: str = "") -> str:
        """The next character that is not blank ("" at the end); with
        ``expected``, step over it, which must be one of those."""
        nonlocal pos
        pos = WHITESPACE.match(buf, pos).end()
        while pos == len(buf) and more():
            pos = WHITESPACE.match(buf, pos).end()
        char = buf[pos:pos + 1]
        if expected:
            if not char or char not in expected:
                raise json.JSONDecodeError(f"Expecting {expected!r}", buf, pos)
            pos += 1
        return char

    def value(depth: int):
        nonlocal pos
        if depth and peek() == "{":
            obj, pos = {}, pos + 1
            if peek() == "}":
                pos += 1
                return obj
            while True:
                if not isinstance(key := value(0), str):
                    raise json.JSONDecodeError("Expecting a key", buf, pos)
                peek(":")
                obj[key] = value(depth - 1)
                if peek(",}") == "}":
                    return obj
        peek()
        while True:
            start = pos
            try:
                found, end = _DECODER.raw_decode(buf, pos)
            except json.JSONDecodeError:
                if more():
                    continue
                raise
            # a number the buffer ends in, or cuts short, may go on
            if buf[end:end + 1] not in "+-.0123456789Ee" or not more():
                pos += end - start
                return found

    doc = value(2)
    if peek():
        raise json.JSONDecodeError("Extra data", buf, pos)
    return doc


class CheckpointManager:
    """Periodic quiescent snapshots of one world plus its harness
    extras: a site (``extras`` maps name -> component) or a federation
    (``extras`` maps site name -> that site's extras)."""

    def __init__(self, site, directory: str, *,
                 every_hours: float = 24.0, retain: int = 3,
                 extras: Optional[Mapping[str, object]] = None,
                 label: str = "ckpt"):
        if every_hours <= 0:
            raise ValueError(
                f"every_hours must be positive, got {every_hours!r}")
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain!r}")
        self.site = site
        self.directory = directory
        self.every_hours = float(every_hours)
        self.retain = int(retain)
        self.extras = dict(extras or {})
        self.label = label
        self.written = 0
        self.deferred = 0
        self.last_path: Optional[str] = None
        self.last_hash: Optional[str] = None
        self._federated = hasattr(site, "sites")
        self._last_at = self._now()
        os.makedirs(directory, exist_ok=True)

    def _now(self) -> float:
        """A federation keeps its own lockstep clock; a site's is its
        kernel's."""
        return self.site.now if self._federated else self.site.sim.now

    # -- the barrier hook -----------------------------------------------------

    def epoch(self, *, force: bool = False) -> Optional[str]:
        """Checkpoint if an epoch has elapsed (or ``force``).

        Returns the written path, or None (not due, or deferred on a
        non-quiescent barrier -- ``deferred`` counts those).
        """
        if not force and (self._now() - self._last_at
                          < self.every_hours * 3600.0):
            return None
        sealed = sealed_federation if self._federated else sealed_site
        path = os.path.join(self.directory, self._name())
        tmp = path + ".tmp"
        try:
            with open(tmp, "w", buffering=1 << 20) as fh:    # not a write per piece
                snap = sealed(self.site, self.extras, write=fh.write)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException as exc:
            # deferred, disk full, ^C: a half-written tmp is nobody's
            # checkpoint
            if os.path.exists(tmp):
                os.remove(tmp)
            if not isinstance(exc, QuiescenceError):
                raise
            self.deferred += 1
            return None
        self.written += 1
        self.last_path, self.last_hash = path, snap["state_hash"]
        self._last_at = self._now()
        self._prune()
        return path

    # -- files ----------------------------------------------------------------

    def _name(self) -> str:
        """The simulated second to the millisecond, zero-padded so the
        names sort by time: two epochs a second apart keep two files."""
        return f"{self.label}-{self._now():016.3f}s.json"

    def _listing(self, suffix: str) -> List[str]:
        """This label's files ending in ``suffix``, oldest first (the
        zero-padded second stamp sorts by time)."""
        try:
            names = sorted(n for n in os.listdir(self.directory)
                           if n.startswith(self.label + "-")
                           and n.endswith(suffix))
        except FileNotFoundError:
            return []
        return [os.path.join(self.directory, n) for n in names]

    def checkpoints(self) -> List[str]:
        """Existing checkpoint paths for this label, oldest first."""
        return self._listing(".json")

    def _prune(self) -> None:
        """Keep the newest ``retain``; a ``.json.tmp`` of this label is
        what a killed writer left (ours is renamed by now)."""
        paths = self.checkpoints()
        stale = self._listing(".json.tmp")
        for path in paths[:max(0, len(paths) - self.retain)] + stale:
            os.remove(path)

    @staticmethod
    @collector_paused
    def load(path: str) -> dict:
        """Read a checkpoint file and prove it is the document that was
        written: a truncated, non-UTF-8, non-JSON (``NaN`` included),
        bottomlessly nested, hash-less or bit-flipped file is a
        ``ValueError`` naming the path, never a running world."""
        try:
            with open(path, encoding="utf-8") as fh:
                snap = _read(fh)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise ValueError(
                f"{path}: not a checkpoint (truncated, or not strict "
                f"UTF-8 JSON: {exc})") from exc
        if not isinstance(snap, dict):
            raise ValueError(f"{path}: not a checkpoint document")
        if snap.get("format") != FORMAT_VERSION:
            # another layout's hash is not ours to judge; the restore
            # refuses the document by its format number
            return snap
        recorded = snap.get("state_hash")
        actual = state_hash({key: value for key, value in snap.items()
                             if key != "state_hash"})
        if actual != recorded:
            raise ValueError(
                f"{path}: state_hash mismatch (the file records "
                f"{recorded!r}, its contents hash to {actual}): the "
                f"checkpoint is corrupt or incomplete")
        return snap
