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
:func:`~repro.persist.core.canonical_json` rendering -- the bytes the
``state_hash`` was taken over -- and :meth:`CheckpointManager.load`,
the one place a document enters from outside the program, recomputes
that hash: a truncated, edited or bit-flipped file is a ``ValueError``
naming the path, never a running world.  Wall-clock cost is accounted
per checkpoint -- the overhead benchmark reads it back.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Mapping, Optional

from repro.persist.core import (FORMAT_VERSION, QuiescenceError,
                                canonical_json, state_hash)
from repro.persist.federation_state import snapshot_federation
from repro.persist.site_state import snapshot_site

__all__ = ["CheckpointManager", "rss_mb"]


def rss_mb() -> float:
    """Resident set size of this process, in MiB (0.0 when the
    platform offers no ``resource`` module)."""
    try:
        import resource
    except ImportError:        # pragma: no cover - non-posix
        return 0.0
    ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # linux reports KiB, macOS bytes
    return ru / 1024.0 if ru < 1 << 32 else ru / (1024.0 * 1024.0)


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
        self.wall_seconds = 0.0
        self._federated = hasattr(site, "sites")
        self._last_at = self._now()
        os.makedirs(directory, exist_ok=True)

    def _now(self) -> float:
        """A federation keeps its own lockstep clock; a site's is its
        kernel's."""
        return self.site.now if self._federated else self.site.sim.now

    # -- the barrier hook -----------------------------------------------------

    def due(self) -> bool:
        return self._now() - self._last_at >= self.every_hours * 3600.0

    def epoch(self, *, force: bool = False) -> Optional[str]:
        """Checkpoint if an epoch has elapsed (or ``force``).

        Returns the written path, or None (not due, or deferred on a
        non-quiescent barrier -- ``deferred`` counts those).
        """
        if not force and not self.due():
            return None
        t0 = time.perf_counter()
        try:
            if self._federated:
                snap = snapshot_federation(self.site,
                                           extras_by_site=self.extras)
            else:
                snap = snapshot_site(self.site, extras=self.extras)
        except QuiescenceError:
            self.deferred += 1
            return None
        path = self._write(snap)
        self.wall_seconds += time.perf_counter() - t0
        self._last_at = self._now()
        self._prune()
        return path

    # -- files ----------------------------------------------------------------

    def _name(self) -> str:
        hours = self._now() / 3600.0
        return f"{self.label}-{hours:012.3f}h.json"

    def _write(self, snap: dict) -> str:
        path = os.path.join(self.directory, self._name())
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(canonical_json(snap))
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self.written += 1
        self.last_path = path
        self.last_hash = snap["state_hash"]
        return path

    def checkpoints(self) -> List[str]:
        """Existing checkpoint paths for this label, oldest first."""
        try:
            names = sorted(n for n in os.listdir(self.directory)
                           if n.startswith(self.label + "-")
                           and n.endswith(".json"))
        except FileNotFoundError:
            return []
        return [os.path.join(self.directory, n) for n in names]

    def _prune(self) -> None:
        paths = self.checkpoints()
        for path in paths[:max(0, len(paths) - self.retain)]:
            os.remove(path)

    @staticmethod
    def load(path: str) -> dict:
        """Read a checkpoint file and prove it is the document that was
        written: a truncated, non-JSON, hash-less or bit-flipped file
        is a ``ValueError`` naming the path, never a running world."""
        try:
            with open(path) as fh:
                snap = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: not a checkpoint (truncated or not JSON: "
                f"{exc})") from exc
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

    @staticmethod
    def latest(directory: str, label: str = "ckpt") -> Optional[str]:
        try:
            names = sorted(n for n in os.listdir(directory)
                           if n.startswith(label + "-")
                           and n.endswith(".json"))
        except FileNotFoundError:
            return None
        return os.path.join(directory, names[-1]) if names else None

    def stats(self) -> Dict[str, float]:
        return {
            "written": self.written,
            "deferred": self.deferred,
            "wall_seconds": round(self.wall_seconds, 6),
            "rss_mb": round(rss_mb(), 1),
        }
