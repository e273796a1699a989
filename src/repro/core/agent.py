"""The Intelliagent base class (§3.3).

An intelliagent is **not memory resident**: it is woken by the local
cron every X minutes, appears in the process table only for the span of
its run, writes a flag describing what happened, and exits.  "At
startup each intelliagent checks to see if any other of the same type
is running, if so it exits."

One wake runs the five parts in order:

1. *Self-maintenance* -- prune its own old flags and logs.
2. *Monitoring* -- look after its one resource/aspect; collect findings.
3. *Diagnosing* -- constraint-based causal reasoning per finding
   (static log parsing + dynamic shell commands inside the rule tests).
4. *Self-healing* -- apply the diagnosed actions; stay "running" (the
   lockout) for the repair duration.
5. *Communication/Logging* -- activity log, flag, message to the
   administration servers, email/SMS to humans when it cannot fix.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import FrozenSet, List, Mapping, Optional, Sequence

from repro.cluster.filesystem import FsError
from repro.core.flags import FlagStore
from repro.core.healing import ActionResult, apply_action
from repro.core.parts import Finding, PartSwitches
from repro.core.reasoning import Diagnosis, RuleEngine
from repro.metrics.circular_log import CircularLog
from repro.persist.core import (Persistent, group, part, pending, record,
                                scalar, via)
from repro.wake import WakePolicy

__all__ = ["AGENT_PERIOD", "Intelliagent", "RunStats"]

#: the cron period every agent wakes on ("every X minutes", X = 5)
AGENT_PERIOD = 300.0

#: a few hours of flags is plenty (the watchdog only needs freshness,
#: humans only need the recent story); older ones are self-maintained away
FLAG_RETENTION = 4 * 3600.0

#: footprint of a running agent process (the paper's flat 1.6 MB is the
#: whole per-host complement; a single agent is a fraction of that)
AGENT_PROC_MEM_MB = 0.2

#: notification fan-out stops after this many failed heals of the same
#: subject (avoid email storms; humans are already on it)
MAX_HEAL_ATTEMPTS = 2

#: the fault-path state of an agent no fault has reached: one shared,
#: read-only pair, which a fault replaces with the agent's own
_NO_ATTEMPTS: Mapping[str, int] = MappingProxyType({})
_NONE_ESCALATED: FrozenSet[str] = frozenset()


@dataclass(slots=True)
class RunStats:
    """Counters for one agent (Figures 3/4 feed off cpu_seconds)."""

    runs: int = 0
    skipped: int = 0
    faults_found: int = 0
    heals_attempted: int = 0
    heals_succeeded: int = 0
    escalations: int = 0
    demand_wakes: int = 0
    cpu_seconds: float = 0.0


#: a snapshot's ``"stats"`` row (the counters in field order), both ways
_STATS_OF_ROW, _ROW_OF_STATS = record(RunStats)


class Intelliagent(Persistent):
    """Base class for the six agent categories."""

    category = "generic"
    #: the causal rules: one table per class, shared by its agents
    engine = RuleEngine()
    #: CPU cost of one wake, seconds of one CPU (shell-tool sweeps are
    #: cheap; this is what makes Fig. 3's ~0.045 % amortised cost)
    RUN_CPU_SECONDS = 0.018
    #: every host's agent of the class bears the same name, so the
    #: strings made from it are interned: one copy for all hosts (a
    #: service agent's name carries its app's, which carries the host's)
    shared_name = True

    #: a subclass's own state, saved under ``"extra"``
    _persist_extra: tuple = ()
    #: run counters, lockout state (process link by pid -- the host's
    #: process table restores first -- plus the pending release event)
    #: and the adaptive wake controller
    _persist = (
        scalar("stats", _STATS_OF_ROW, enc=_ROW_OF_STATS),
        via("proc_pid", "_save_pid", "_relink_proc"),
        scalar("busy_until", float, "_busy_until"),
        pending("busy_event", "_busy_event", "_end_proc"),
        scalar("published_interval", float, "_published_interval"),
        scalar("attempts", lambda v: {k: int(n) for k, n in v.items()}
               or _NO_ATTEMPTS, "_attempts", lambda d: dict(sorted(d.items()))),
        scalar("escalated", lambda v: frozenset(v) or _NONE_ESCALATED,
               "_escalated", sorted), part("wake"),
        group("extra", "_persist_extra"))

    def __init__(self, host, name: str, *, channel=None,
                 admin_targets: Optional[Sequence[str]] = None,
                 notifications=None, ledger=None, wake_policy: str = "fixed",
                 offset: float = 0.0):
        self.host = host
        self.sim = host.sim
        self.name = name
        share = sys.intern if self.shared_name else str
        self.command = share(f"ia_{name}")
        self.period = AGENT_PERIOD
        #: adaptive wake controller; "fixed" keeps the paper's rigid
        #: grid (and the exact pre-refactor behaviour) for A/B runs
        self.wake = WakePolicy(self.period, mode=wake_policy)
        self.channel = channel
        self.admin_targets = tuple(admin_targets or ())
        self.notifications = notifications
        self.parts = PartSwitches()

        self.flags = FlagStore(host.fs, name, ledger=ledger,
                               host=host.name)
        self.flags.dir = share(self.flags.dir)
        host.fs.mkdir(self.flags.dir)       # the agent owns its directory
        self.activity = CircularLog(
            host.fs, share(f"{self.flags.dir}/activity"), maxlen=500)
        self.stats = RunStats()
        self._proc = None
        self._busy_until = 0.0
        #: pending lockout-release event, retained for checkpoints
        self._busy_event = None
        #: last wake interval the control plane saw (base is implicit);
        #: re-offered every run until the transport accepts it
        self._published_interval = self.period
        #: per-subject consecutive failed heal attempts
        self._attempts = _NO_ATTEMPTS
        #: subjects we already escalated (reset when healthy again)
        self._escalated = _NONE_ESCALATED
        #: one crontab entry, at ``offset`` on the grid (the suite
        #: staggers its complement)
        host.crond.register(name, self.period, self.run, offset=offset)

    # -- subclass surface ------------------------------------------------------

    def on_clean_run(self) -> None:
        """Hook: extra work on a no-fault wake (status agents rebuild
        profiles here)."""

    # -- the wake cycle ---------------------------------------------------------------

    def run(self) -> None:
        now = self.sim.now
        if not self.host.is_up:
            return
        tracer = self.sim.tracer
        # same-type lockout
        if self._proc is not None:
            if now < self._busy_until and self.host.ptable.get(self._proc.pid):
                self.stats.skipped += 1
                if tracer.enabled:
                    tracer.metrics.counter("agent.skipped").inc()
                self._flag("skipped", "previous instance still running")
                return
            self._end_proc()
        self._start_proc()
        self.stats.runs += 1
        self.stats.cpu_seconds += self.RUN_CPU_SECONDS
        if tracer.enabled:
            tracer.metrics.counter("agent.runs").inc()
        busy = 0.0
        findings: List[Finding] = []
        run_span = tracer.span("agent.run", agent=self.name,
                               host=self.host.name, category=self.category)
        try:
            with run_span:
                if self.parts.self_maintenance:
                    with tracer.span("agent.self_maintain"):
                        self._self_maintain(now)
                with tracer.span("agent.monitor") as mon_span:
                    findings = self.monitor() if self.parts.monitoring else []
                    mon_span.set_attr("findings", len(findings))
                if not findings:
                    with tracer.span("agent.communicate"):
                        # a recurrence is a fresh incident, healed and notified anew
                        self._attempts, self._escalated = _NO_ATTEMPTS, _NONE_ESCALATED
                        self.on_clean_run()
                        self._flag("ok")
                    return
                self.stats.faults_found += len(findings)
                if tracer.enabled:
                    tracer.metrics.counter("agent.faults_found").inc(
                        len(findings))
                    for f in findings:
                        # the zero-length detection span carries the
                        # correlated fault id: this is the "detected"
                        # stamp in the incident trace
                        tracer.record_span(
                            "fault.detect", now, now,
                            fault_id=tracer.fault_id_for(f.subject),
                            subject=f.subject, kind=f.kind,
                            agent=self.name, host=self.host.name)
                with tracer.span("agent.communicate"):
                    self._log(
                        f"found {len(findings)} fault(s): "
                        + "; ".join(f"{f.kind}:{f.subject}"
                                    for f in findings))
                    self._flag("fault", "; ".join(
                        f"{f.kind} {f.subject} {f.detail}"
                        for f in findings))
                diagnoses = []
                for f in findings:
                    with tracer.span(
                            "agent.diagnose", subject=f.subject,
                            kind=f.kind, agent=self.name,
                            fault_id=tracer.fault_id_for(f.subject)
                            ) as diag_span:
                        if self.parts.diagnosing:
                            diag = self.engine.diagnose(self.host, f)
                        else:
                            diag = Diagnosis(f, f.kind, [], confirmed=False)
                        diag_span.set_attr("cause", diag.cause)
                    diagnoses.append(diag)
                for diag in diagnoses:
                    with tracer.span("agent.heal",
                                     subject=diag.finding.subject):
                        busy = max(busy, self._handle(diag))
        finally:
            if busy > 0.0:
                self._busy_until = self.sim.now + busy
                self._busy_event = self.sim.schedule(busy, self._end_proc)
            else:
                self._end_proc()
            self._adapt_period(found=bool(findings))

    # -- adaptive wakes ---------------------------------------------------------------

    def demand_wake(self, trigger=None) -> bool:
        """Wake now, off the grid (trigger bus or admin watchdog).  The
        wake policy snaps back to base first, so whatever caused the
        wake gets watched at full frequency afterwards."""
        if not self.host.is_up:
            return False
        self.wake.note_trigger()
        self._apply_period()
        ok = self.host.crond.demand_wake(self.name)
        if ok:
            self.stats.demand_wakes += 1
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.metrics.counter("agent.demand_wakes").inc()
        return ok

    def _adapt_period(self, found: bool) -> None:
        """End of a wake: feed the outcome to the policy and re-arm the
        cron job when the interval moved."""
        if found:
            self.wake.note_findings()
        else:
            self.wake.note_clean()
        self._apply_period()

    def _apply_period(self) -> None:
        period = self.wake.current_period
        crond = self.host.crond
        job = crond.jobs.get(self.name)
        if job is not None and job.period != period:
            crond.set_period(self.name, period)
        if period != self._published_interval:
            self._publish_interval(period)

    def _publish_interval(self, period: float) -> None:
        """Tell the control plane the expected wake interval changed,
        so the watchdog's staleness contract tracks the adaptive period
        instead of silently loosening.  Rides the same transport gate
        as flags; an undelivered change is re-offered next run."""
        store = self.flags
        if store.ledger is None:
            self._published_interval = period
            return
        if store.transport is not None and not store.transport(store.host):
            return              # partitioned: retry on a later wake
        store.ledger.append("wake", store.host, agent=self.name,
                            status="interval", time=self.sim.now,
                            detail=repr(period))
        self._published_interval = period

    # -- part implementations -----------------------------------------------------------

    def _self_maintain(self, now: float) -> None:
        """'Every time an intelliagent runs, it looks after its
        individual logs ... removes flags from previous runs.'"""
        self.flags.clear_before(now - FLAG_RETENTION)

    def _handle(self, diag: Diagnosis) -> float:
        """Heal if possible, otherwise escalate.  Returns busy time."""
        subject = diag.finding.subject
        self._log(f"diagnosis {subject}: {diag.cause} "
                  f"(evidence: {len(diag.evidence)} tests)")
        if not (self.parts.healing and diag.actionable):
            self._escalate(diag, reason="no automated repair")
            return 0.0
        attempts = self._attempts.get(subject, 0)
        if attempts >= MAX_HEAL_ATTEMPTS:
            self._escalate(diag, reason=f"{attempts} repairs failed")
            return 0.0
        self._attempts = {**self._attempts, subject: attempts + 1}
        busy = 0.0
        tracer = self.sim.tracer
        for action in diag.actions:
            self.stats.heals_attempted += 1
            if tracer.enabled:
                tracer.metrics.counter("agent.heals_attempted").inc()
            result = apply_action(action, self.host, subject)
            self._log(f"action {action} on {subject}: "
                      f"{'ok' if result.success else 'FAILED'} "
                      f"({result.detail})")
            if result.success:
                self.stats.heals_succeeded += 1
                if tracer.enabled:
                    tracer.metrics.counter("agent.heals_succeeded").inc()
                self._flag("fixed", f"{action} {subject}")
                self._tell_admins(f"fixed {subject} via {action}")
                busy = max(busy, result.busy_for)
                break
        else:
            self._escalate(diag, reason="all actions failed")
        return busy

    def _escalate(self, diag: Diagnosis, reason: str) -> None:
        subject = diag.finding.subject
        if subject in self._escalated:
            return
        self._escalated = self._escalated | {subject}
        self.stats.escalations += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.metrics.counter("agent.escalations").inc()
            tracer.instant("fault.escalated", subject=subject,
                           agent=self.name, reason=reason,
                           fault_id=tracer.fault_id_for(subject))
        self._flag("failed", f"{subject}: {diag.cause} ({reason})")
        if self.parts.communication and self.notifications is not None:
            self.notifications.email(
                "administrators",
                f"{self.host.name}/{self.name}: cannot fix {subject}",
                body=f"cause={diag.cause}; {reason}; "
                     f"evidence={'; '.join(diag.evidence)}",
                severity="critical", sender=self.name)
        self._tell_admins(f"escalated {subject}: {diag.cause}")

    # -- communication helpers -------------------------------------------------------------

    def _flag(self, status: str, detail: str = "") -> None:
        try:
            self.flags.raise_flag(status, self.sim.now, detail)
        except FsError:
            # a full /logs mount must not kill the agent: the *absence*
            # of flags is itself the watchdog's signal
            pass

    def _log(self, message: str) -> None:
        if self.parts.communication:
            try:
                self.activity.append(f"{self.sim.now:.1f} {message}",
                                     now=self.sim.now)
            except FsError:
                pass

    def _tell_admins(self, message: str) -> None:
        if not (self.parts.communication and self.channel):
            return
        for target in self.admin_targets:
            self.channel.send(self.host.name, target, 1024)

    # -- process-table presence ------------------------------------------------------------------

    def _start_proc(self) -> None:
        self._proc = self.host.ptable.spawn(
            "root", self.command, cpu_pct=0.5, mem_mb=AGENT_PROC_MEM_MB,
            now=self.sim.now, owner=self)

    def _end_proc(self) -> None:
        if self._proc is not None:
            self.host.ptable.kill(self._proc.pid)
            self._proc = None
        self._busy_until = 0.0
        self._busy_event = None

    # -- persistence -----------------------------------------------------------------------------

    def restore_state(self, state: dict) -> None:
        """The host's filesystem is restored under the flag store, so
        what the store derived from the old directory goes too."""
        super().restore_state(state)
        self.flags.forget()

    def _save_pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    def _relink_proc(self, pid: Optional[int]) -> None:
        """A mid-lockout agent relinks its process entry by pid."""
        self._proc = (None if pid is None
                      else self.host.ptable.adopt(pid, self))

    # -- introspection ---------------------------------------------------------------------------------

    def amortized_cpu_pct(self) -> float:
        """Average share of one CPU consumed by this agent's wakes."""
        return 100.0 * self.RUN_CPU_SECONDS / self.period

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<{type(self).__name__} {self.name}@{self.host.name} "
                f"runs={self.stats.runs}>")
