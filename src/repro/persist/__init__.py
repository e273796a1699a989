"""Epoch checkpoint/restore across the world state.

Every stateful layer of the reproduction exposes the pair
``snapshot_state() -> dict`` / ``restore_state(state)`` -- plus, for
components that own pending kernel events, ``claimed_seqs()``.  A
layer does not write those methods: it declares its state once, as a
``_persist`` tuple of entries, and :mod:`repro.persist.core` derives
all three.  This package assembles the per-component protocols into
whole-world checkpoints:

- :mod:`repro.persist.core` -- the protocol, its one implementation
  (:class:`~repro.persist.core.Persistent` and the entry vocabulary),
  the canonical-JSON state hash, :func:`~repro.persist.core.seal`
  (the same hash and the file's bytes from one encoding, in pieces),
  :func:`~repro.persist.core.collector_paused` (the resume path builds
  uncollected, then leaves its world in the oldest generation) and
  :class:`~repro.persist.core.QuiescenceError`.
- :mod:`repro.persist.site_state` -- :func:`snapshot_site` /
  :func:`restore_site`: walk a built :class:`~repro.experiments.site.Site`
  section by section, verifying that *every* live heap event is claimed
  by exactly one component before a checkpoint is allowed, and re-arm
  pending events at their exact ``(time, seq)`` tokens on
  restore so a resumed run is byte-identical to the monolithic one.
  One ordered layer table drives the snapshot, restore and claim walks.
- :mod:`repro.persist.federation_state` -- :func:`sealed_federation`
  / :func:`restore_federation`: the per-site documents plus the layers
  between sites, listed once in the same entry vocabulary.  A document
  of the wrong kind is refused by name.
- :mod:`repro.persist.checkpoint` -- :class:`CheckpointManager`: epoch
  barriers between run segments, atomic writes of the sealed pieces,
  a piecewise read and hash check on load, retention, and the
  deferred-barrier policy for non-quiescent moments -- for a site or a
  federation alike (every chaos episode checkpoint is the latter).
"""

from repro.persist.core import (FORMAT_VERSION, QuiescenceError,
                                canonical_json, state_hash)
from repro.persist.site_state import (fresh_site, restore_site,
                                      snapshot_site)
from repro.persist.federation_state import (restore_federation,
                                            sealed_federation)
from repro.persist.checkpoint import CheckpointManager

__all__ = [
    "FORMAT_VERSION", "QuiescenceError",
    "canonical_json", "state_hash",
    "snapshot_site", "restore_site", "fresh_site",
    "sealed_federation", "restore_federation",
    "CheckpointManager",
]
