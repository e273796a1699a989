"""The relocation orchestrator.

One relocation is one :class:`~repro.sim.kernel.SimProcess` walking the
escalation tier the administration servers could not satisfy locally:

    plan -> drain -> start -> verify -> cutover

Each phase is stamped as a ``relocate.*`` span carrying the incident's
fault id, so an exported trace shows the whole failover as one
correlated tree next to the detection and healing spans.  The process
runs under a single **timeout budget**; blowing it at any phase rolls
back (spare claim released, front doors left shedding) and falls
through to the old behaviour -- page the on-call human by SMS.

Spans are recorded at phase *completion* with explicit timestamps
(:meth:`Tracer.record_span`) rather than held open across yields:
an open span would adopt every unrelated agent wake that fires during
the wait as a child and garble the trace tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.apps.base import AppState
from repro.core.healing import apply_action
from repro.ontology.slkt import app_template_of
from repro.persist.core import (Persistent, QuiescenceError, record, rows,
                                scalars)

__all__ = ["RelocationRecord", "ServiceRelocator"]


@dataclass
class RelocationRecord:
    """Ledger entry for one attempted relocation."""

    subject: str               # "host/app"
    source_host: str
    started: float
    target_host: str = ""
    fault_id: str = ""
    finished: Optional[float] = None
    success: bool = False
    cold: bool = False
    #: phase reached ("plan" | "drain" | "start" | "verify" | "done")
    phase: str = "plan"
    reason: str = ""

    @property
    def duration(self) -> Optional[float]:
        if self.finished is None:
            return None
        return self.finished - self.started


class ServiceRelocator(Persistent):
    """Drives service failovers for the administration servers."""

    _persist = (rows("records", *record(RelocationRecord)),
                *scalars(int, "succeeded", "failed"))
    #: seconds one relocation may take end to end, between start /
    #: verify probes, and for in-flight work to drain
    budget, poll, drain_grace = 900.0, 15.0, 20.0

    def __init__(self, dc, planner, spares, *, reroute, page_cb: Callable):
        self.dc = dc
        self.sim = dc.sim
        self.planner = planner
        self.spares = spares
        self.reroute = reroute
        #: called as ``page_cb(host_name, reason)`` when a relocation
        #: rolls back; the admin pair passes its SMS escalation here
        self.page_cb = page_cb

        #: subject -> source host of in-flight relocations
        self.active: Dict[str, str] = {}
        self.records: List[RelocationRecord] = []
        self.succeeded = 0
        self.failed = 0

    # -- entry points --------------------------------------------------------

    def relocate_host(self, host_name: str, reason: str) -> int:
        """Relocate every application of a failed host.  Returns how
        many relocations were spawned (0 = nothing to do; the caller
        should escalate the old way)."""
        host = self.dc.hosts.get(host_name)
        if host is None:
            return 0
        started = 0
        for app_name in sorted(host.apps):
            app = host.apps[app_name]
            if app.started_at is None:
                continue    # idle template slot: nothing ever ran here
            if self.relocate(app, reason) is not None:
                started += 1
        return started

    def relocate(self, app, reason: str):
        """Spawn the failover process for one service instance."""
        subject = f"{app.host.name}/{app.name}"
        if subject in self.active:
            return None
        tracer = self.sim.tracer
        fault_id = (tracer.fault_id_for(subject)
                    or tracer.fault_id_for(app.host.name))
        self.active[subject] = app.host.name
        rec = RelocationRecord(subject=subject, source_host=app.host.name,
                               started=self.sim.now, fault_id=fault_id,
                               reason=reason)
        self.records.append(rec)
        return self.sim.spawn(self._run(app, rec),
                              name=f"relocate:{subject}")

    # -- the SimProcess ------------------------------------------------------

    def _run(self, app, rec: RelocationRecord):
        tracer = self.sim.tracer
        deadline = self.sim.now + self.budget

        def phase_span(name: str, start: float, **attrs) -> None:
            tracer.record_span(f"relocate.{name}", start, self.sim.now,
                               subject=rec.subject, fault_id=rec.fault_id,
                               **attrs)

        # -- plan ------------------------------------------------------------
        t0 = self.sim.now
        template = app_template_of(app)
        failed = sorted(set(self.active.values()))
        plan = self.planner.plan(template, app.host.name,
                                 failed_hosts=failed)
        claimed = False
        if plan is not None and plan.cold:
            claimed = self.spares.claim(plan.target_host, rec.subject)
            if not claimed:
                plan = None
        phase_span("plan", t0,
                   outcome="ok" if plan is not None else "no-placement",
                   target=plan.target_host if plan else "",
                   candidates=len(plan.shortlist) if plan else 0,
                   rejected=len(plan.rejections) if plan else -1)
        if plan is None:
            yield from self._rollback(rec, "no feasible placement")
            return
        rec.target_host = plan.target_host
        rec.cold = plan.cold
        rec.phase = "drain"

        # -- drain -----------------------------------------------------------
        t0 = self.sim.now
        self.reroute.drain(app)
        if app.host.is_up:
            app.stop()
        yield self.drain_grace
        phase_span("drain", t0, host_up=app.host.is_up)
        rec.phase = "start"

        # -- start -----------------------------------------------------------
        t0 = self.sim.now
        target_host = self.dc.hosts[plan.target_host]
        target_app = target_host.apps[plan.target_app]
        # the target inherits the incident: its heal spans correlate too
        if rec.fault_id and tracer.enabled:
            tracer.correlate(f"{plan.target_host}/{plan.target_app}",
                             rec.fault_id)
        if plan.cold:
            result = apply_action("start_app", target_host,
                                  plan.target_app)
            if not result.success:
                phase_span("start", t0, outcome="start-script-failed")
                yield from self._rollback(rec, result.detail,
                                          claimed=plan.target_host)
                return
            while (self.sim.now < deadline
                   and target_app.state is AppState.STARTING):
                yield self.poll
        if not target_app.is_running():
            phase_span("start", t0, outcome="not-running")
            yield from self._rollback(
                rec, f"{plan.target_app} failed to start on "
                     f"{plan.target_host}",
                claimed=plan.target_host if claimed else None)
            return
        phase_span("start", t0, outcome="ok", cold=plan.cold)
        rec.phase = "verify"

        # -- verify ----------------------------------------------------------
        t0 = self.sim.now
        ok, _ms, err = target_app.probe()
        while not ok and self.sim.now + self.poll <= deadline:
            yield self.poll
            ok, _ms, err = target_app.probe()
        phase_span("verify", t0, outcome="ok" if ok else f"probe: {err}")
        if not ok:
            yield from self._rollback(
                rec, f"verification failed: {err}",
                claimed=plan.target_host if claimed else None)
            return

        # -- cutover ---------------------------------------------------------
        self.reroute.cutover(app, target_app)
        rec.phase = "done"
        rec.success = True
        rec.finished = self.sim.now
        self.succeeded += 1
        self.active.pop(rec.subject, None)
        tracer.instant("relocate.done", subject=rec.subject,
                       fault_id=rec.fault_id, target=plan.target_host,
                       cold=plan.cold)
        if tracer.enabled:
            tracer.metrics.counter("relocate.succeeded").inc()

    def _rollback(self, rec: RelocationRecord, why: str,
                  claimed: Optional[str] = None):
        """Give the spare back, page the human, close the ledger."""
        tracer = self.sim.tracer
        if claimed is not None:
            self.spares.release(claimed)
        rec.finished = self.sim.now
        rec.reason = why
        self.failed += 1
        self.active.pop(rec.subject, None)
        tracer.instant("relocate.rollback", subject=rec.subject,
                       fault_id=rec.fault_id, phase=rec.phase, reason=why)
        if tracer.enabled:
            tracer.metrics.counter("relocate.failed").inc()
        self.page_cb(rec.source_host,
                     f"relocation of {rec.subject} failed: {why}")
        return
        yield   # pragma: no cover - makes this a generator for delegation

    # -- persistence ---------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Refuses while a relocation is in flight: the failover is a
        live generator process and cannot be re-armed from state.  The
        checkpoint manager treats this as a non-quiescent barrier and
        defers to the next epoch."""
        if self.active:
            raise QuiescenceError(
                f"cannot snapshot with in-flight relocations: "
                f"{sorted(self.active)}")
        return super().snapshot_state()
