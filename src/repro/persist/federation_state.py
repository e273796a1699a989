"""Whole-federation snapshot/restore.

A federation checkpoint is the per-site :func:`snapshot_site` documents
(each under the same byte-identity contract as a standalone site) plus
the layers that only exist *between* sites: the WAN links, the courier
and federated name-service counters, the merged DGSPL view, the geo
front door, the geo traffic tier's SLIs, the cross-site relocation
records, the federation RNG and the lockstep clock.  Restore rebuilds
the federation fresh from the embedded :class:`FederationConfig`
(:func:`build_federation` is deterministic), then overwrites every
layer -- a restored federation produces byte-identical summaries to
the one that never stopped.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.persist.core import FORMAT_VERSION, check_format, state_hash
from repro.persist.site_state import restore_site, snapshot_site

__all__ = ["snapshot_federation", "restore_federation"]


def snapshot_federation(fed, *, extras_by_site: Optional[
        Mapping[str, Mapping[str, object]]] = None) -> dict:
    """One dict for the whole federation.

    ``extras_by_site`` forwards harness-owned components to each site's
    :func:`snapshot_site` (same names must be passed on restore).
    """
    extras_by_site = dict(extras_by_site or {})
    state: dict = {
        "format": FORMAT_VERSION,
        "fedconfig": fed.config.to_dict(),
        "sites": {name: snapshot_site(fed.sites[name],
                                      extras=extras_by_site.get(name))
                  for name in sorted(fed.sites)},
        "wan": fed.wan.snapshot_state(),
        "courier": fed.courier.snapshot_state(),
        "fed_nameservice": fed.nameservice.snapshot_state(),
        "fed_dgspl": fed.fed_dgspl.snapshot_state(),
        "fed_rng": fed.streams.getstate(),
        "geo": fed.geo.snapshot_state() if fed.geo is not None else None,
        "traffic": (fed.traffic.snapshot_state()
                    if fed.traffic is not None else None),
        "crosssite": (fed.crosssite.snapshot_state()
                      if fed.crosssite is not None else None),
        "clock": {
            "now": fed.now,
            "next_digest": fed._next_digest,
            "lost_sites": sorted(fed.lost_sites),
            "traffic_on": fed.traffic_on,
            "site_loss_events": fed.site_loss_events,
            "site_recovery_events": fed.site_recovery_events,
        },
    }
    state["state_hash"] = state_hash(state)
    return state


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

    fed.wan.restore_state(snapshot["wan"])
    fed.courier.restore_state(snapshot["courier"])
    fed.nameservice.restore_state(snapshot["fed_nameservice"])
    fed.fed_dgspl.restore_state(snapshot["fed_dgspl"])
    fed.streams.setstate(snapshot["fed_rng"])
    if snapshot["geo"] is not None:
        fed.geo.restore_state(snapshot["geo"])
    if snapshot["traffic"] is not None:
        def resolve_app_for(site_name: str):
            site = fed.sites[site_name]
            return lambda host, app: site.dc.hosts[host].apps[app]
        fed.traffic.restore_state(snapshot["traffic"], resolve_app_for)
    if snapshot["crosssite"] is not None:
        fed.crosssite.restore_state(snapshot["crosssite"])

    clock = snapshot["clock"]
    fed.now = float(clock["now"])
    fed._next_digest = float(clock["next_digest"])
    fed.lost_sites = set(clock["lost_sites"])
    fed.traffic_on = bool(clock["traffic_on"])
    fed.site_loss_events = int(clock["site_loss_events"])
    fed.site_recovery_events = int(clock["site_recovery_events"])
    return fed
