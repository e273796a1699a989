"""Constraint-based placement planning.

Given a failed service, pick where it should live next.  Candidates
come from two places: the spare pool (idle app slots, cold start) and
the freshest DGSPL (healthy peers already running the same application
type, warm takeover).  Every candidate is pushed through the
SLKT-derived constraint set -- the deployment-constraint approach of
Dearle et al., with the constraints we already keep on disk:

- the target supports the application type *and version*;
- every filesystem the app requires is mounted and online;
- every external dependency (host, app) is up and healthy;
- memory and CPU headroom: the box can absorb the work now,
  not just on the spec sheet;
- anti-affinity: never place onto the failed host, nor onto any
  host known to be failing in the same incident.

Survivors are scored deterministically -- (load asc, power desc,
spares before busy peers, name) -- so the same datacentre state always
produces the same plan; the rejection reasons ride along for the
trace/pool log, making "why did it go *there*" answerable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ontology.slkt import AppTemplate

__all__ = ["PlacementPlan", "PlacementPlanner"]

#: fraction of a host's max load above which it has no CPU headroom
LOAD_HEADROOM = 0.8
#: fallback per-process memory need when the target app is not yet
#: installed and the template carries no sizes (MB)
DEFAULT_PROC_MB = 64.0


@dataclass
class PlacementPlan:
    """One placement decision, with its audit trail."""

    app_name: str
    app_type: str
    version: str
    source_host: str
    target_host: str
    #: name of the (installed) application slot on the target
    target_app: str
    #: True = spare-pool cold start; False = warm takeover by a peer
    cold: bool
    #: candidates that passed constraints, best first (host names)
    shortlist: List[str] = field(default_factory=list)
    #: candidate host -> first failed constraint
    rejections: Dict[str, str] = field(default_factory=dict)


class PlacementPlanner:
    """Searches spares + DGSPL under SLKT constraints."""

    #: a DGSPL older than this (seconds) is not planned from
    dgspl_staleness = 1800.0

    def __init__(self, dc, spares, dgspl_fn=None):
        self.dc = dc
        self.spares = spares
        #: returns the freshest DGSPL or None; typically
        #: ``admin.current_dgspl``
        self.dgspl_fn = dgspl_fn
        self.plans_made = 0
        self.plans_failed = 0

    # -- the constraint set --------------------------------------------------

    def _check_host(self, host_name: str, template: AppTemplate,
                    failed: set, failed_sites: set = frozenset()
                    ) -> Optional[str]:
        """First violated constraint for placing ``template`` on
        ``host_name``, or None if the host qualifies."""
        if host_name in failed:
            return "anti-affinity: host failing in this incident"
        host = self.dc.hosts.get(host_name)
        if host is None:
            return "unknown host"
        if host.site in failed_sites:
            return "anti-affinity: site failing in this incident"
        if not host.is_up:
            return "host down"
        for fs_point in template.filesystems:
            mount = host.fs.mounts.get(fs_point)
            if mount is None or not mount.online:
                return f"filesystem {fs_point} unavailable"
        for dep_host_name, dep_app_name in template.depends_on:
            dep_host = self.dc.hosts.get(dep_host_name)
            if dep_host is None or not dep_host.is_up:
                return f"dependency {dep_host_name} down"
            dep_app = dep_host.apps.get(dep_app_name)
            if dep_app is None or not dep_app.is_healthy():
                return f"dependency {dep_host_name}/{dep_app_name} unhealthy"
        if host.load_average() > LOAD_HEADROOM * host.spec.max_load:
            return (f"no CPU headroom (load {host.load_average():.1f} "
                    f"of max {host.spec.max_load:g})")
        if host.memory_free_mb() < self._memory_need(host, template):
            return (f"no memory headroom "
                    f"({host.memory_free_mb():.0f} MB free)")
        return None

    def _memory_need(self, host, template: AppTemplate) -> float:
        app = host.apps.get(template.name)
        if app is not None:
            return sum(ps.mem_mb * ps.count for ps in app.process_specs)
        return DEFAULT_PROC_MB * max(1, len(template.processes))

    # -- candidate discovery -------------------------------------------------

    def _spare_candidates(self, template: AppTemplate
                          ) -> List[Tuple[str, str]]:
        """(host, app-slot) pairs from the spare pool whose SLKT carries
        a matching idle slot."""
        out = []
        for name in self.spares.available():
            slkt = self.spares.slkt_of(name)
            for tmpl in slkt.apps.values():
                if (tmpl.app_type == template.app_type
                        and tmpl.version == template.version):
                    out.append((name, tmpl.name))
                    break
        return out

    def _peer_candidates(self, template: AppTemplate,
                         exclude: set) -> List[Tuple[str, str]]:
        """(host, app) pairs from the freshest DGSPL: healthy services
        of the same type and version already running elsewhere."""
        if self.dgspl_fn is None:
            return []
        dgspl = self.dgspl_fn()
        if dgspl is None:
            return []
        now = self.dc.sim.now
        if now - dgspl.generated_at > self.dgspl_staleness:
            return []
        out = []
        for e in dgspl.services_of_type(template.app_type):
            if e.server in exclude or self.spares.is_spare(e.server):
                continue
            if e.app_version != template.version:
                continue
            out.append((e.server, e.app_name))
        return out

    # -- planning ------------------------------------------------------------

    def plan(self, template: AppTemplate, source_host: str, *,
             failed_hosts: Sequence[str] = (),
             failed_sites: Sequence[str] = ()) -> Optional[PlacementPlan]:
        """Pick the best relocation target, or None when no host
        satisfies the constraints.  ``failed_sites`` is the cross-site
        tier's anti-affinity: never place back into a datacentre that
        is failing in this incident."""
        failed = set(failed_hosts) | {source_host}
        sites = set(failed_sites)
        spare_slots = dict(self._spare_candidates(template))
        peer_slots = dict(self._peer_candidates(template, failed))
        rejections: Dict[str, str] = {}
        scored: List[tuple] = []
        for host_name in sorted(set(spare_slots) | set(peer_slots)):
            why = self._check_host(host_name, template, failed, sites)
            if why is not None:
                rejections[host_name] = why
                continue
            host = self.dc.hosts[host_name]
            is_spare = host_name in spare_slots
            slot = spare_slots.get(host_name) or peer_slots[host_name]
            scored.append((round(host.load_average(), 6),
                           -host.spec.power, 0 if is_spare else 1,
                           host_name, slot, is_spare))
        scored.sort()
        if not scored:
            self.plans_failed += 1
            return None
        best = scored[0]
        self.plans_made += 1
        return PlacementPlan(
            app_name=template.name, app_type=template.app_type,
            version=template.version, source_host=source_host,
            target_host=best[3], target_app=best[4], cold=best[5],
            shortlist=[s[3] for s in scored], rejections=rejections)
