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
walks.  Restore rebuilds the federation fresh from the embedded
:class:`FederationConfig` (:func:`build_federation` is deterministic),
then overwrites every layer -- a restored federation produces
byte-identical summaries to the one that never stopped.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

from repro.persist.core import (FORMAT_VERSION, Entry, check_format,
                                collector_paused, compose, group, load_state,
                                part, save_state, scalar, scalars, seal,
                                sortedset)
from repro.persist.site_state import restore_site, sealed_site

__all__ = ["snapshot_federation", "sealed_federation", "restore_federation"]


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


def snapshot_federation(fed, *, extras_by_site: Optional[
        Mapping[str, Mapping[str, object]]] = None) -> dict:
    """One dict for the whole federation.

    ``extras_by_site`` forwards harness-owned components to each site's
    :func:`snapshot_site` (same names must be passed on restore).
    """
    return sealed_federation(fed, extras_by_site)[0]


def sealed_federation(fed, extras_by_site: Optional[
        Mapping[str, Mapping[str, object]]] = None) -> Tuple[dict, List[str]]:
    """:func:`snapshot_federation`'s document and the pieces of its
    canonical JSON.  Each site is sealed once and its text handed on as
    is: the federation's hash and file reuse it, not re-encode it."""
    extras_by_site = dict(extras_by_site or {})
    sealed = {name: sealed_site(fed.sites[name], extras_by_site.get(name))
              for name in sorted(fed.sites)}
    state: dict = {
        "format": FORMAT_VERSION,
        "fedconfig": fed.config.to_dict(),
        "sites": {name: doc for name, (doc, _pieces) in sealed.items()},
        **save_state(fed, _LAYERS),
    }
    sites = list(compose((name, pieces)
                         for name, (_doc, pieces) in sealed.items()))
    return state, seal(state, {"sites": sites})


@collector_paused
def restore_federation(snapshot: dict, *, fed=None, extras_by_site: Optional[
        Mapping[str, Mapping[str, object]]] = None):
    """Rebuild the snapshotted federation and return it.

    Without ``fed``, a fresh one is built from the embedded config; a
    caller with per-site harnesses builds the federation itself, wires
    them, and passes both it and ``extras_by_site``.
    """
    from repro.federation.build import build_federation
    from repro.federation.config import FederationConfig

    check_format(snapshot, "federation")
    extras_by_site = dict(extras_by_site or {})

    if fed is None:
        fed = build_federation(
            FederationConfig.from_dict(snapshot["fedconfig"]))
    elif fed.config.to_dict() != snapshot["fedconfig"]:
        raise ValueError(
            "supplied federation was built from a different config "
            "than the snapshot's")

    for name in sorted(fed.sites):
        restore_site(snapshot["sites"][name], site=fed.sites[name],
                     extras=extras_by_site.get(name))
    load_state(fed, _LAYERS, {key: value for key, value in snapshot.items()
                              if key not in _ENVELOPE})
    return fed
