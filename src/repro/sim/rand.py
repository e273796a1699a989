"""Named, seed-spawned random streams.

Every stochastic component in the reproduction (fault arrivals, job
sizes, operator response times, ...) draws from its *own* named
``numpy.random.Generator``.  Streams are derived from a root
``SeedSequence`` by hashing the stream name, so:

* the same root seed always reproduces the same simulation, and
* adding a new consumer does not perturb the draws of existing ones
  (unlike sharing one generator).

This mirrors the standard practice for reproducible Monte-Carlo fan-out
(`SeedSequence.spawn`) recommended for parallel workloads.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np

__all__ = ["RandomStreams", "stable_hash"]


def stable_hash(*parts) -> int:
    """A process-stable 32-bit hash of the given parts.

    Python's built-in ``hash`` is salted per process (PYTHONHASHSEED),
    so anything behavioural -- a user's 'habitual server', a stable
    tie-break -- must use this instead or runs stop being reproducible.
    """
    return zlib.crc32("|".join(str(p) for p in parts).encode("utf-8"))


def _name_key(name: str) -> int:
    """Stable 32-bit key for a stream name (crc32 is stable across runs,
    unlike ``hash`` which is salted per process)."""
    return zlib.crc32(name.encode("utf-8"))


class RandomStreams:
    """A namespace of deterministic random generators.

    >>> rs = RandomStreams(seed=7)
    >>> rs.get("faults.db") is rs.get("faults.db")
    True
    >>> rs2 = RandomStreams(seed=7)
    >>> rs.get("x").integers(1 << 30) == rs2.get("x").integers(1 << 30)
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._root = np.random.SeedSequence(self.seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=(_name_key(name),),
            )
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
        return gen

    # -- explicit state (the persistence layer's prerequisite) ---------------

    def getstate(self) -> dict:
        """Seed plus the bit-generator state of every materialised
        stream, as plain dicts.  ``setstate(getstate())`` reproduces the
        exact draw sequence of every stream mid-run."""
        return {
            "seed": self.seed,
            "streams": {name: self._streams[name].bit_generator.state
                        for name in sorted(self._streams)},
        }

    def setstate(self, state: dict) -> None:
        """Restore from :meth:`getstate`.  Streams absent from the saved
        state are dropped back to unmaterialised (they will be re-derived
        from the root seed on first use, exactly as a fresh namespace
        would)."""
        if int(state["seed"]) != self.seed:
            raise ValueError(
                f"stream state was saved under seed {state['seed']!r}, "
                f"this namespace has seed {self.seed!r}")
        for name in list(self._streams):
            if name not in state["streams"]:
                del self._streams[name]
        for name, bg_state in state["streams"].items():
            self.get(name).bit_generator.state = bg_state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RandomStreams seed={self.seed} streams={len(self._streams)}>"
