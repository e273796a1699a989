"""Full-fidelity experiment harness.

Wires the live simulated site to the downtime ledger: when an
application leaves service an incident opens, when it returns the
incident closes; agent fault-flags and operator notifications stamp
detection times.  Used by the integration tests and the latency / MTTR
/ resubmission experiments, where horizons are hours-to-weeks (the
year-long Fig. 2 run uses the calibrated campaign fast path instead --
see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apps.base import AppState
from repro.core.admin import decision_line
from repro.faults.injector import FaultInjector
from repro.faults.models import Category
from repro.ops.downtime import DowntimeLedger

__all__ = ["FidelityHarness"]

#: app_type -> the Fig. 2 category an outage of that app lands in
_APP_CATEGORY = {
    "database": Category.MID_CRASH,
    "webserver": Category.FRONT_END,
    "frontend": Category.FRONT_END,
    "scheduler": Category.LSF,
    "generic": Category.COMPLETELY_DOWN,
}


class FidelityHarness:
    """Observes a Site and keeps the books."""

    def __init__(self, site):
        self.site = site
        self.sim = site.sim
        self.ledger = DowntimeLedger()
        self.injector = FaultInjector(site.dc,
                                      site.streams.get("harness.faults"))
        self._watched: List = []
        for host in site.dc.all_hosts():
            for app in host.apps.values():
                self._watch_app(app)
        site.notifications.subscribe(self._on_notification)

    # -- incident bookkeeping -------------------------------------------------------

    def _watch_app(self, app) -> None:
        self._watched.append(app)
        target = f"{app.host.name}/{app.name}"
        category = _APP_CATEGORY.get(app.app_type, Category.COMPLETELY_DOWN)

        def on_state(state):
            tracer = self.sim.tracer
            if state in (AppState.CRASHED, AppState.HUNG):
                self.ledger.open_incident(category, target, self.sim.now)
                tracer.instant("service.down", target=target,
                               fault_id=tracer.fault_id_for(target))
            elif state is AppState.STOPPED and not app.host.is_up:
                self.ledger.open_incident(category, target, self.sim.now,
                                          note="host-down")
            elif state is AppState.RUNNING:
                closed = self.ledger.close_incident(target, self.sim.now,
                                                    auto_repaired=True)
                if closed is not None:
                    tracer.instant("service.restored", target=target,
                                   fault_id=tracer.fault_id_for(target))

        app.state_changed.subscribe(on_state)

    def _on_notification(self, note) -> None:
        """Any critical notification mentioning an open incident's
        target stamps its detection time."""
        for inc in self.ledger.incidents:
            if inc.open and inc.detected_at is None:
                host, _, appname = inc.target.partition("/")
                if host in note.subject or appname in note.subject:
                    self.ledger.mark_detected(inc.target, self.sim.now)

    # -- detection via flags ------------------------------------------------------------

    def scan_flags_for_detection(self) -> None:
        """Stamp detection from agent fault flags (called by drivers
        after a run; flags live on each host's own filesystem)."""
        from repro.core.flags import FlagStore
        for inc in self.ledger.incidents:
            if inc.detected_at is not None:
                continue
            host_name, _, app_name = inc.target.partition("/")
            host = self.site.dc.hosts.get(host_name)
            if host is None or not host.is_up:
                continue
            store = FlagStore(host.fs, f"svc_{app_name}")
            for flag in store.flags():
                if flag.status in ("fault", "fixed", "failed") \
                        and flag.time >= inc.start:
                    inc.detected_at = flag.time
                    break

    # -- persistence ---------------------------------------------------------------------

    def _extras(self) -> Dict[str, object]:
        """The harness-owned stateful components, by stable names (the
        same names a resumed harness restores into)."""
        return {"downtime": self.ledger, "injector": self.injector}

    def snapshot(self) -> dict:
        """Whole-world checkpoint: the site plus the harness books."""
        from repro.persist import snapshot_site
        return snapshot_site(self.site, extras=self._extras())

    @classmethod
    def resume(cls, snapshot: dict) -> "FidelityHarness":
        """Rebuild the snapshotted world and return a live harness.

        The fresh site is built first, the harness wires its watchers
        around it (structural -- subscriptions carry no state), and
        only then is every layer overwritten from the snapshot, so the
        restored heap is exactly the claimed set."""
        from repro.persist import fresh_site, restore_site
        site = fresh_site(snapshot)
        harness = cls(site)
        restore_site(snapshot, site=site, extras=harness._extras())
        return harness

    def summary(self) -> dict:
        """The byte-comparable run digest the determinism contract
        diffs between monolithic and segmented runs."""
        cats = self.ledger.hours_by_category(as_of=self.sim.now)
        out = {
            "now": self.sim.now,
            "events_processed": self.sim.events_processed,
            "downtime_hours": {c.value: round(h, 9)
                               for c, h in sorted(cats.items(),
                                                  key=lambda kv: kv[0].value)},
            "incidents": len(self.ledger.incidents),
            "open_incidents": len(self.open_incidents()),
            "faults_injected": len(self.injector.injected),
            "notifications": self.site.notifications.count(),
        }
        if self.site.admin is not None:
            out["decisions"] = [decision_line(d)
                                for d in self.site.admin.decisions]
        return out

    # -- convenience ---------------------------------------------------------------------

    def run_hours(self, hours: float) -> None:
        self.sim.run(until=self.sim.now + hours * 3600.0)

    def open_incidents(self) -> List:
        return [i for i in self.ledger.incidents if i.open]

    def downtime_hours(self) -> Dict[Category, float]:
        """Fig. 2 rows as of *now*: incidents still open are clamped to
        the current sim time instead of silently dropped."""
        return self.ledger.hours_by_category(as_of=self.sim.now)
