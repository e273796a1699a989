"""The federation's follow-the-sun traffic tier.

Each user region has its own :class:`~repro.traffic.workload.DemandCurve`
(same diurnal shape, shifted by the region's timezone), so global
demand literally follows the sun around the federation.  At every
federation barrier the driver Poisson-samples each (region, class)
batch from a *federation-level* RNG -- the site simulators' streams
are never touched, which is what keeps an N=1 federation byte-identical
to a standalone site -- then splits it in two:

* the **steerable** share goes through the :class:`GeoFrontDoor`
  (capacity- and latency-weighted across healthy sites, shed when all
  are dark) and lands on each chosen site's normal per-tier front door;
* the **pinned** share (data gravity: the db tier) can only be served
  by its home site -- or, after the cross-site tier has cut a takeover
  over, by the services that came back up elsewhere, in proportion to
  the recovered fraction.

Everything is accounted into one :class:`~repro.traffic.slo.Sli` per
(site, class) plus per-site user-minutes, and rolled up globally with
:func:`~repro.traffic.slo.rollup_slis` -- the request-weighted view
the ``federation`` row prices.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.persist.core import Persistent, children, part, scalar, table
from repro.traffic.engine import dispatch_fluid
from repro.traffic.slo import Sli, rollup_slis
from repro.traffic.workload import MINUTE, DemandCurve

__all__ = ["GeoTrafficDriver", "PINNED_FRACTION"]

#: fraction of each class's demand pinned to its home site (data
#: gravity: the db tier cannot be steered away)
PINNED_FRACTION = {"db": 1.0}


class GeoTrafficDriver(Persistent):
    """Epoch-driven demand against the whole federation."""

    #: SLIs are created on first use, so the document decides which
    #: exist; the doors are the rebuilt ones, checked by name
    _persist = (scalar("ticks", int),
                children("slis", "slis",
                         lambda fed, key: fed._sli(*key.split("/", 1))),
                table("user_minutes_lost", float), part("doors"))

    def __init__(self, curves: Dict[str, DemandCurve], geo, crosssite,
                 streams):
        self.curves = dict(curves)
        self.geo = geo
        self.crosssite = crosssite
        self.rng = streams.get("federation.arrivals")
        #: site -> class name -> its per-tier FrontDoor
        self.doors: Dict[str, Dict[str, object]] = {}
        #: one SLI per (site, class), keyed "<site>/<class>"
        self.slis: Dict[str, Sli] = {}
        #: per-site user-minutes lost (shed demand priced in concurrent
        #: users, attributed to the users' home site)
        self.user_minutes_lost: Dict[str, float] = {}
        self.ticks = 0

    def attach_site(self, name: str, doors: Dict[str, object]) -> None:
        self.doors[name] = dict(doors)
        self.user_minutes_lost.setdefault(name, 0.0)
        for cls_name in doors:
            self.slis.setdefault(f"{name}/{cls_name}", Sli(cls_name))

    # -- accounting ----------------------------------------------------------

    def _sli(self, site: str, cls_name: str) -> Sli:
        key = f"{site}/{cls_name}"
        if key not in self.slis:
            self.slis[key] = Sli(cls_name)
        return self.slis[key]

    def _serve_at(self, site: str, cls_name: str, n: int,
                  now: float) -> int:
        """Serve ``n`` requests at one site's door; returns how many
        were lost (failed or shed at the door)."""
        sli = self._sli(site, cls_name)
        before = sli.served
        door = self.doors.get(site, {}).get(cls_name)
        if door is None:
            sli.record_shed(n)
            return n
        dispatch_fluid(
            door, n, now,
            lambda served, failed, ms: sli.record_batch(served, failed, ms),
            lambda shed: sli.record_shed(shed))
        return n - int(sli.served - before)

    def _serve_takeover(self, home: str, cls, n: int, now: float) -> int:
        """Serve a dead site's pinned demand on its cross-site
        takeovers.  Returns how many requests were lost."""
        if n <= 0:
            return 0
        if self.crosssite is None:
            self._sli(home, cls.name).record_shed(n)
            return n
        fraction = self.crosssite.takeover_fraction(home, cls.app_type)
        recoverable = int(n * fraction)
        takeovers = sorted(
            self.crosssite.takeovers_for(home, cls.app_type),
            key=lambda t: (t.target_site, t.target_host, t.target_app))
        lost = n - recoverable
        if not takeovers or recoverable <= 0:
            self._sli(home, cls.name).record_shed(n)
            return n
        base, extra = divmod(recoverable, len(takeovers))
        for i, takeover in enumerate(takeovers):
            count = base + (1 if i < extra else 0)
            if count <= 0:
                continue
            site = self.crosssite.sites[takeover.target_site]
            app = (site.dc.hosts[takeover.target_host]
                   .apps[takeover.target_app])
            served, failed, ms = app.serve_batch(count)
            sli = self._sli(takeover.target_site, cls.name)
            sli.record_batch(served, failed, ms)
            lost += failed
        if n - recoverable > 0:
            self._sli(home, cls.name).record_shed(n - recoverable)
        return lost

    # -- the barrier tick ----------------------------------------------------

    def tick(self, now: float, dt: float) -> None:
        """Sample and serve one epoch's demand, every region."""
        for region in sorted(self.curves):
            curve = self.curves[region]
            home = self.geo.home_site.get(region)
            attempted = 0
            lost = 0
            for cls in sorted(curve.classes, key=lambda c: c.name):
                expected = curve.expected_requests(cls, now, now + dt)
                n = int(self.rng.poisson(expected)) if expected > 0 else 0
                if n <= 0:
                    continue
                attempted += n
                pinned = int(n * PINNED_FRACTION.get(cls.name, 0.0))
                free = n - pinned

                if free > 0:
                    split, shed = self.geo.steer(region, cls.app_type,
                                                 free, now)
                    for site, count in split:
                        lost += self._serve_at(site, cls.name, count, now)
                    if shed:
                        self._sli(home, cls.name).record_shed(shed)
                        lost += shed

                if pinned > 0:
                    if home in self.geo.flagged_down:
                        lost += self._serve_takeover(home, cls, pinned,
                                                     now)
                    else:
                        lost += self._serve_at(home, cls.name, pinned,
                                               now)

            if attempted > 0 and lost > 0 and home is not None:
                fraction = lost / attempted
                users = float(curve.active_users(now))
                self.user_minutes_lost[home] = (
                    self.user_minutes_lost.get(home, 0.0)
                    + users * fraction * (dt / MINUTE))
        self.ticks += 1

    # -- rollups -------------------------------------------------------------

    def site_rollup(self, site: str) -> dict:
        return rollup_slis(sli for key, sli in sorted(self.slis.items())
                           if key.split("/", 1)[0] == site)

    def global_rollup(self) -> dict:
        out = rollup_slis(self.slis.values())
        out["user_minutes_lost"] = round(
            sum(self.user_minutes_lost.values()), 6)
        return out
