"""Whole-federation snapshot/restore.

A federation checkpoint is the per-site :func:`snapshot_site` documents
(each under the same byte-identity contract as a standalone site) plus
the layers that only exist *between* sites: the WAN links, the courier
and federated name-service counters, the merged DGSPL view, the geo
front door, the geo traffic tier's SLIs, the cross-site relocation
records, the federation RNG and the lockstep clock.  Those layers and
the six clock fields are listed once, in :data:`_LAYERS`, in the entry
vocabulary of :mod:`repro.persist.core`; snapshot and restore both
read that table, the way :data:`site_state._LAYERS` drives a site's
walks.  Restore takes a federation built fresh from the embedded
:class:`FederationConfig` (:func:`build_federation` is deterministic),
checks the two configs agree, then overwrites every layer -- a
restored federation produces
byte-identical summaries to the one that never stopped.
"""

from __future__ import annotations

import functools
from dataclasses import asdict
from typing import Callable, Mapping, Optional

from repro.persist.core import (FORMAT_VERSION, Entry, check_format,
                                collector_paused, compose, group, load_state,
                                part, save_state, scalar, scalars, seal,
                                sortedset)
from repro.persist.site_state import restore_site, sealed_site

__all__ = ["sealed_federation", "restore_federation"]


#: Everything a Federation holds between its sites, in document order:
#: the snapshot and the restore both read this one table (the per-site
#: documents and the envelope keys around it are written by hand below).
_LAYERS = (
    part("wan"), part("courier"), part("fed_nameservice", "nameservice"),
    part("fed_dgspl"),
    Entry("fed_rng", lambda fed: fed.streams.getstate(),
          lambda fed, state: fed.streams.setstate(state)),
    part("geo"), part("traffic"), part("crosssite"),
    group("clock", (
        scalar("now", float), scalar("next_digest", float, "_next_digest"),
        sortedset("lost_sites"), scalar("traffic_on", bool),
        *scalars(int, "site_loss_events", "site_recovery_events"))),
)
_ENVELOPE = ("format", "fedconfig", "sites", "state_hash")


def sealed_federation(fed, extras_by_site: Optional[
        Mapping[str, Mapping[str, object]]] = None, *,
        write: Callable[[str], object]) -> dict:
    """One document for the whole federation, its canonical JSON handed
    to ``write`` in pieces as it is sealed.  ``extras_by_site`` forwards
    harness-owned components to each site's :func:`sealed_site` (same
    names must be passed on restore).  Each site is sealed once, on the
    way through: the federation's hash and file take its pieces as they
    come, not a re-encoding."""
    extras_by_site = dict(extras_by_site or {})
    state: dict = {
        "format": FORMAT_VERSION,
        "fedconfig": asdict(fed.config),
        "sites": {},
        **save_state(fed, _LAYERS),
    }

    def site(name: str, out: Callable[[str], object]) -> None:
        state["sites"][name] = sealed_site(
            fed.sites[name], extras_by_site.get(name), write=out)
    seal(state, {"sites": functools.partial(compose, (
        (name, functools.partial(site, name)) for name in sorted(fed.sites)))},
        write=write)
    return state


@collector_paused
def restore_federation(snapshot: dict, *, fed, extras_by_site: Optional[
        Mapping[str, Mapping[str, object]]] = None):
    """Restore the snapshotted federation into ``fed`` and return it.

    ``fed`` is freshly built from the snapshot's config; a caller with
    per-site harnesses wires them into it and passes ``extras_by_site``.
    """
    check_format(snapshot, "federation")
    extras_by_site = dict(extras_by_site or {})

    if asdict(fed.config) != snapshot["fedconfig"]:
        raise ValueError(
            "supplied federation was built from a different config "
            "than the snapshot's")

    for name in sorted(fed.sites):
        restore_site(snapshot["sites"][name], site=fed.sites[name],
                     extras=extras_by_site.get(name))
    load_state(fed, _LAYERS, {key: value for key, value in snapshot.items()
                              if key not in _ENVELOPE})
    return fed
