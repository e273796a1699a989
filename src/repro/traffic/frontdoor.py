"""QoS-aware demand spreading (the front door).

The DGSPL already advertises every healthy service with its current
load -- the paper uses it to place *batch* resubmissions.  The front
door applies the same information to *user* traffic: demand batches
are spread over the front-end/web tier inversely to advertised load,
the spread degrades to plain round-robin when the DGSPL is stale (the
admin pair rebuilds it only every ~15 minutes, so the front door must
survive gaps), and load aimed at a server that is flagged down is
shed -- redistributed to live peers, or dropped when none remain
rather than queued against a corpse.

A door attached to the site's condition ledger reacts to deltas the
moment they are appended: a ``host down`` condition or a relocation
``drain`` for this tier sheds the server within that same delivery (no
refresh wait), ``host up`` / ``cutover`` restore it.

Weights are derived once per published list, not once per batch.  The
admin pair assigns a fresh :class:`Dgspl` object each generation and
nothing mutates it afterwards, and a :class:`SiteDigest` is frozen, so
the doors key what they derived on the *object* they derived it from
(held by reference, compared with ``is``) and re-derive when a new one
is published or restored.  Whether a list is still fresh depends on
``now`` and is tested on every call.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.persist.core import (Persistent, scalar, scalars, sortedset,
                                via)

__all__ = ["FrontDoor", "GeoFrontDoor", "Allocation"]

#: (app, request count) pairs plus the shed remainder
Allocation = Tuple[List[Tuple[object, int]], int]


class FrontDoor(Persistent):
    """Spreads aggregated demand batches across one application tier."""

    _persist = (via("apps", "_save_apps", "_load_apps"),
                sortedset("down", attr="_down"),
                scalar("rr_offset", int, "_rr_offset"),
                scalar("shed_total", int))

    #: DGSPL older than this is stale -> round-robin fallback
    staleness = 900.0

    def __init__(self, app_type: str, apps: Sequence,
                 dgspl_fn: Optional[Callable[[], Optional[object]]] = None):
        if not apps:
            raise ValueError("front door needs at least one server")
        #: deterministic service order (sorted once; dict draws are not
        #: involved so routing is seed-stable)
        self.apps = sorted(apps, key=lambda a: (a.host.name, a.name))
        self.app_type = app_type
        #: returns the latest DGSPL (or None); typically
        #: ``lambda: admin.current_dgspl()``
        self.dgspl_fn = dgspl_fn
        self._down: set = set()
        self._rr_offset = 0
        self._ledgers: List[object] = []
        #: the DGSPL the kept weights were derived from, and the weights
        self._weighed: Optional[object] = None
        self._weights_kept: Dict[str, float] = {}
        self.shed_total = 0

    # -- condition-ledger subscription ---------------------------------------

    def attach_ledger(self, ledger) -> None:
        """Shed/restore servers as conditions are appended, rather than
        waiting for a sweep or a DGSPL refresh.  Idempotent."""
        if any(led is ledger for led in self._ledgers):
            return
        self._ledgers.append(ledger)
        ledger.on_append(self._on_condition)

    def _on_condition(self, cond) -> None:
        if cond.kind == "host":
            if cond.status == "down":
                self.flag_down(cond.host)
            elif cond.status == "up":
                self.flag_up(cond.host)
        elif cond.kind == "route" and cond.detail == self.app_type:
            if cond.status == "drain":
                self.flag_down(cond.host)
            elif cond.status == "cutover":
                self.flag_up(cond.host)

    # -- flag-driven shedding ------------------------------------------------

    def flag_down(self, server: str) -> None:
        """An agent fault-flag (or status sweep) marked this host down;
        stop sending it traffic immediately -- do not wait for the next
        DGSPL build."""
        self._down.add(server)

    def flag_up(self, server: str) -> None:
        self._down.discard(server)

    # -- relocation cutover --------------------------------------------------

    def replace(self, old_app, new_app) -> bool:
        """Swap a relocated instance into the server set (the relocation
        orchestrator's cutover).  Keeps the deterministic name order;
        False when ``old_app`` is not behind this door."""
        if old_app not in self.apps:
            return False
        self.apps.remove(old_app)
        if new_app not in self.apps:
            self.apps.append(new_app)
            self.apps.sort(key=lambda a: (a.host.name, a.name))
        return True

    # -- routing -------------------------------------------------------------

    def _live_apps(self) -> List:
        return [a for a in self.apps if a.host.name not in self._down]

    def _weights(self, now: float) -> Optional[Dict[str, float]]:
        """Per-server weights from a *fresh* DGSPL, else None."""
        if self.dgspl_fn is None:
            return None
        dgspl = self.dgspl_fn()
        if dgspl is None or (now - dgspl.generated_at) > self.staleness:
            return None
        if dgspl is not self._weighed:
            self._weighed = dgspl
            self._weights_kept = self._derive_weights(dgspl)
        return self._weights_kept

    def _derive_weights(self, dgspl) -> Dict[str, float]:
        weights: Dict[str, float] = {}
        for e in dgspl.services_of_type(self.app_type):
            # least-loaded-first: weight falls as advertised load rises
            weights[e.server] = max(weights.get(e.server, 0.0),
                                    1.0 / (1.0 + max(0.0, e.current_load)))
        return weights

    def route(self, n: int, now: float) -> Allocation:
        """Split ``n`` requests across the tier.

        Returns ``([(app, count), ...], shed)``.  Counts are exact
        integers summing with ``shed`` to ``n``; the split is
        deterministic (largest-remainder rounding, name-ordered).
        """
        if n <= 0:
            return ([], 0)
        live = self._live_apps()
        if not live:
            self.shed_total += n
            return ([], n)

        weights = self._weights(now)
        if weights is not None:
            listed = [a for a in live if a.host.name in weights]
            if listed:
                return (self._split_weighted(n, listed, weights), 0)
            # fresh DGSPL lists nobody in this tier: every server is
            # sick; shed rather than pile onto known-bad machines
            self.shed_total += n
            return ([], n)

        # stale or absent DGSPL: degrade to round-robin over live servers
        return (self._split_round_robin(n, live), 0)

    def _split_weighted(self, n: int, apps: List,
                        weights: Dict[str, float]) -> List[Tuple[object, int]]:
        total = sum(weights[a.host.name] for a in apps)
        exact = [n * weights[a.host.name] / total for a in apps]
        counts = [int(x) for x in exact]
        rem = n - sum(counts)
        # largest fractional remainder first; ties broken by name order,
        # which is already the apps order
        order = sorted(range(len(apps)),
                       key=lambda i: (-(exact[i] - counts[i]), i))
        for i in order[:rem]:
            counts[i] += 1
        return [(a, c) for a, c in zip(apps, counts) if c > 0]

    def _split_round_robin(self, n: int,
                           apps: List) -> List[Tuple[object, int]]:
        k = len(apps)
        base, extra = divmod(n, k)
        counts = [base] * k
        for j in range(extra):
            counts[(self._rr_offset + j) % k] += 1
        self._rr_offset = (self._rr_offset + extra) % k
        return [(a, c) for a, c in zip(apps, counts) if c > 0]

    # -- persistence ---------------------------------------------------------

    def _save_apps(self) -> list:
        return [[a.host.name, a.name] for a in self.apps]

    def _load_apps(self, saved: list) -> None:
        """The server set is part of the state: relocation cutovers may
        have swapped instances in, so the (host, app) pairs are saved
        and re-resolved -- in the datacentre this tier's servers live
        in -- rather than trusting the rebuild."""
        hosts = self.apps[0].host.datacenter.hosts
        self.apps = sorted((hosts[host].apps[name] for host, name in saved),
                           key=lambda a: (a.host.name, a.name))


class GeoFrontDoor(Persistent):
    """The federation's global tier above the per-site front doors.

    Splits one region's demand batch across *sites* the same way a
    :class:`FrontDoor` splits a site's batch across servers: a
    deterministic largest-remainder allocation over steering weights.
    A site's weight is its federated-digest capacity for the tier
    deflated by the WAN distance between the user region and the site,
    so traffic prefers close, underloaded datacentres.  Sites whose
    digest has gone stale (dead, or WAN-partitioned away) and sites the
    federation monitor has flagged down get weight zero; when every
    site is dark the batch is shed here, before any per-site door sees
    it.

    With ``geo_steering`` off the tier degrades to the pre-federation
    behaviour: every region's demand goes to its home site, healthy or
    not -- the ``no-geo`` arm of the ``federation`` row.
    """

    #: latency deflation scale (ms): a site this far away halves its weight
    LATENCY_SCALE_MS = 100.0
    _persist = (sortedset("flagged_down"),
                *scalars(int, "steered", "shed_total", "remote_steered"))

    def __init__(self, fed_dgspl, *, home_site, region_latency_ms,
                 geo_steering: bool = True):
        self.fed_dgspl = fed_dgspl
        #: region name -> its home (lowest-latency) site
        self.home_site = dict(home_site)
        #: (region, site) -> user-path latency in ms
        self.region_latency_ms = dict(region_latency_ms)
        self.geo_steering = bool(geo_steering)
        self.sites: List[str] = []
        self.flagged_down: set = set()
        #: (region, site, tier) -> (the digest weighed, its weight)
        self._weighed: Dict[tuple, tuple] = {}
        self.steered = 0
        self.shed_total = 0
        self.remote_steered = 0

    def register_site(self, site: str) -> None:
        if site not in self.sites:
            self.sites.append(site)
            self.sites.sort()

    def flag_down(self, site: str) -> None:
        self.flagged_down.add(site)

    def flag_up(self, site: str) -> None:
        self.flagged_down.discard(site)

    def latency_ms(self, region: str, site: str) -> float:
        return float(self.region_latency_ms.get((region, site), 0.0))

    def _weight(self, region: str, site: str, app_type: str,
                now: float) -> float:
        if not self.fed_dgspl.is_fresh(site, now):
            return 0.0      # a stale site advertises nothing
        digest = self.fed_dgspl.digests[site]
        key = (region, site, app_type)
        kept = self._weighed.get(key)
        if kept is None or kept[0] is not digest:
            capacity = digest.capacity(app_type)
            distance = self.latency_ms(region, site)
            weight = (capacity / (1.0 + distance / self.LATENCY_SCALE_MS)
                      if capacity > 0.0 else 0.0)
            kept = self._weighed[key] = (digest, weight)
        return kept[1]

    def steer(self, region: str, app_type: str, n: int,
              now: float) -> Tuple[List[Tuple[str, int]], int]:
        """Split ``n`` requests from ``region`` across sites.

        Returns ``([(site, count), ...], shed)`` with counts summing
        with ``shed`` to ``n`` exactly."""
        if n <= 0:
            return ([], 0)
        home = self.home_site.get(region)
        if not self.geo_steering:
            # static pre-federation routing: home site or nothing
            if home is None or home in self.flagged_down:
                self.shed_total += n
                return ([], n)
            self.steered += n
            return ([(home, n)], 0)

        candidates = [s for s in self.sites if s not in self.flagged_down]
        weights = {s: self._weight(region, s, app_type, now)
                   for s in candidates}
        live = [s for s in candidates if weights[s] > 0.0]
        if not live:
            self.shed_total += n
            return ([], n)

        total = sum(weights[s] for s in live)
        exact = [n * weights[s] / total for s in live]
        counts = [int(x) for x in exact]
        rem = n - sum(counts)
        order = sorted(range(len(live)),
                       key=lambda i: (-(exact[i] - counts[i]), i))
        for i in order[:rem]:
            counts[i] += 1
        self.steered += n
        self.remote_steered += sum(c for s, c in zip(live, counts)
                                   if s != home)
        return ([(s, c) for s, c in zip(live, counts) if c > 0], 0)
