"""Cron daemon.

Intelliagents "are 'awakened' every X minutes ... by local to each host
Unix crons".  The cron model keeps jobs on an absolute time grid
(``k * period + offset``) so that wake times are predictable across
host downtime: a host that was down through three wakes resumes on the
same grid once it boots, exactly like a real crond restarting.

The cron daemon itself is a process (``crond``) that can die -- one of
the failure modes the administration servers' flag watchdog catches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.persist.core import (Persistent, load_state, rearm, save_state,
                                scalar, scalars, token, via)
from repro.sim.calendar import next_grid

__all__ = ["CronJob", "Crond"]


@dataclass
class CronJob:
    """One crontab entry."""

    name: str
    period: float               # seconds
    fn: Callable[[], None]
    offset: float = 0.0
    runs: int = 0
    missed: int = 0             # grid points skipped (host/crond down)
    demand_runs: int = 0        # off-grid wakes via demand_wake()
    last_run: Optional[float] = None


#: what a crontab row carries besides its name and armed event
_JOB_STATE = (scalar("period", float), scalar("offset", float),
              *scalars(int, "runs", "missed", "demand_runs"),
              scalar("last_run"))


class Crond(Persistent):
    """Per-host cron daemon on an absolute grid."""

    _persist = (scalar("running", bool),
                via("jobs", "_save_jobs", "_load_jobs"))

    def __init__(self, host) -> None:
        self.host = host
        self.sim = host.sim
        self.jobs: Dict[str, CronJob] = {}
        self.running = True
        self._events: Dict[str, object] = {}

    # -- crontab management --------------------------------------------------

    def register(self, name: str, period: float, fn: Callable[[], None],
                 offset: float = 0.0) -> CronJob:
        """Install a job; replaces an existing one of the same name."""
        if period <= 0:
            raise ValueError(f"cron period must be positive: {period!r}")
        self.remove(name)
        job = CronJob(name, float(period), fn, float(offset))
        self.jobs[name] = job
        self._arm(job)
        return job

    def remove(self, name: str) -> bool:
        job = self.jobs.pop(name, None)
        ev = self._events.pop(name, None)
        if ev is not None:
            ev.cancel()
        return job is not None

    def set_period(self, name: str, period: float) -> None:
        """Rewrite a job's period in place (the adaptive wake policy).
        The job re-arms onto the *new* absolute grid immediately."""
        if period <= 0:
            raise ValueError(f"cron period must be positive: {period!r}")
        job = self.jobs[name]
        if job.period == period:
            return
        job.period = float(period)
        if name in self._events:
            self._arm(job)

    def demand_wake(self, name: str) -> bool:
        """Fire a job *now*, off the grid; its next wake re-arms back
        onto the absolute grid.  Returns False when the job cannot run
        (unknown job, dead crond, host down)."""
        job = self.jobs.get(name)
        if job is None or not self.running or not self.host.is_up:
            return False
        ev = self._events.get(name)
        if ev is not None and ev.time <= self.sim.now:
            return True         # a wake is already due this instant
        job.demand_runs += 1
        # scheduled (not called inline) so a trigger raised mid-run of
        # another agent never re-enters this one's run() on the stack
        self._events[name] = self.sim.schedule(0.0, self._fire, name)
        if ev is not None:
            ev.cancel()
        return True

    # -- daemon lifecycle ------------------------------------------------------

    def kill(self) -> None:
        """crond dies: jobs stop firing until :meth:`restart`."""
        self.running = False

    def restart(self) -> None:
        """Restart crond; jobs resume on their original grid."""
        if self.running:
            return
        self.running = True
        for name, job in self.jobs.items():
            # the armed event kept ticking but did not run jobs; nothing
            # to re-arm unless the event chain was lost (host reboot).
            if name not in self._events:
                self._arm(job)

    # -- firing ------------------------------------------------------------------

    def _arm(self, job: CronJob) -> None:
        # defensive: never leave two armed events for one job (a
        # set_period inside the job's own run already re-armed it)
        ev = self._events.pop(job.name, None)
        if ev is not None:
            ev.cancel()
        t = next_grid(self.sim.now, job.period, job.offset)
        self._events[job.name] = self.sim.schedule_at(t, self._fire, job.name)

    def _fire(self, name: str) -> None:
        job = self.jobs.get(name)
        if job is None:
            self._events.pop(name, None)
            return
        if self.running and self.host.is_up:
            job.runs += 1
            job.last_run = self.sim.now
            job.fn()
        else:
            job.missed += 1
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.metrics.counter("cron.missed").inc()
        self._arm(job)

    # -- persistence ------------------------------------------------------------

    def _save_jobs(self) -> list:
        """Jobs in crontab order, each with its armed event's heap token
        (off-grid demand wakes included).  Job callables are structural:
        the rebuild re-registers them."""
        return [{"name": name, **save_state(job, _JOB_STATE),
                 "event": token(self._events.get(name))}
                for name, job in self.jobs.items()]

    def _load_jobs(self, saved: list) -> None:
        for ev in self._events.values():
            ev.cancel()
        self._events.clear()
        unknown = [row["name"] for row in saved
                   if row["name"] not in self.jobs]
        if unknown:
            raise KeyError(
                f"{self.host.name}: snapshot has cron jobs the rebuilt "
                f"host never registered: {unknown}")
        # crontab order is behavioural (restart() iterates it): rebuild
        # the dict in the snapshot's order around the fresh callables,
        # dropping jobs that were removed before the snapshot
        jobs = {}
        for row in saved:
            row = dict(row)
            name, tok = row.pop("name"), row.pop("event")
            jobs[name] = self.jobs[name]
            load_state(jobs[name], _JOB_STATE, row)
            if tok is not None:
                self._events[name] = rearm(self.sim, tok, self._fire, name)
        self.jobs = jobs

    def claimed_seqs(self) -> List[int]:
        return [ev.seq for ev in self._events.values() if ev.alive]
