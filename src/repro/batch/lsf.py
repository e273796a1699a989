"""The LSF-like batch scheduler.

Models what the paper's agents scripted against with "pre-scripted LSF
specific commands": a master daemon (which "very often ... would
crash"), per-database-server job slot limits, submission queues, and
dispatch.  The scheduler also owns the *crash coupling*: a dispatched
job stresses its database, and an overloaded database may crash mid-job
(probability scaled by :meth:`Database.crash_hazard_multiplier`), which
is the mechanism that makes placement policy matter.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.apps.base import Application, ProcessSpec, StartupStep
from repro.batch.jobs import BatchJob, JobState
from repro.batch.policies import PlacementPolicy, RandomPolicy
from repro.persist.core import Persistent, part, scalars

__all__ = ["LsfMaster", "LsfCluster"]


class LsfMaster(Application):
    """The mbatchd/sbatchd master daemons as an application."""

    app_type = "scheduler"

    def __init__(self, host, name: str = "lsf", **kw):
        procs = [
            ProcessSpec("mbatchd", 1, cpu_pct=2.0, mem_mb=48.0),
            ProcessSpec("sbatchd", 1, cpu_pct=0.5, mem_mb=16.0),
            ProcessSpec("lim", 1, cpu_pct=0.5, mem_mb=8.0),
        ]
        kw.setdefault("port", 6878)
        kw.setdefault("user", "lsfadmin")
        kw.setdefault("base_response_ms", 15.0)
        super().__init__(host, name, version="4.2", processes=procs,
                         startup=[StartupStep("reconfig", 20.0)],
                         shutdown_duration=10.0, **kw)


class LsfCluster(Persistent):
    """The cluster-wide scheduler state."""

    #: mbatchd scheduling cycle
    DISPATCH_PERIOD = 60.0
    #: counters plus the dispatch loop's pending tick
    _persist = (*scalars(int, "jobs_done", "jobs_failed", "dispatches",
                         "crashes_caused"),
                part("loop", "_loop"))

    def __init__(self, dc, master: LsfMaster, *,
                 policy: Optional[PlacementPolicy] = None,
                 rng=None, base_crash_prob: float = 0.012):
        self.dc = dc
        self.sim = dc.sim
        self.master = master
        self.rng = rng if rng is not None else dc.streams.get("lsf")
        self.policy: PlacementPolicy = policy or RandomPolicy(self.rng)
        #: probability that a *well-placed* job crashes its database
        self.base_crash_prob = base_crash_prob

        self.servers: List = []        # Database instances
        self.pending: List[BatchJob] = []
        self.running: Dict[int, BatchJob] = {}
        self.history: List[BatchJob] = []
        self.jobs_done = 0
        self.jobs_failed = 0
        self.dispatches = 0
        self.crashes_caused = 0
        self._exit_listeners: List[Callable[[BatchJob], None]] = []
        self._loop = self.sim.every(self.DISPATCH_PERIOD,
                                    self._dispatch_cycle)

    # -- configuration ---------------------------------------------------------

    def register_server(self, db) -> None:
        """Add a database server to the batch pool."""
        if db in self.servers:
            raise ValueError(f"{db.name} already registered")
        self.servers.append(db)

    def on_job_exit(self, fn: Callable[[BatchJob], None]) -> None:
        """Hook fired for every job reaching a terminal state (the
        administration servers' resubmission logic attaches here)."""
        self._exit_listeners.append(fn)

    @property
    def up(self) -> bool:
        return self.master.is_healthy()

    # -- submission --------------------------------------------------------------

    def submit(self, job: BatchJob) -> bool:
        """bsub: queue a job.  Returns False when the master is down
        (the user's submission bounces -- they retry later)."""
        if not self.up:
            return False
        job.submitted_at = self.sim.now
        job.on_exit(self._job_exited)
        self.pending.append(job)
        self.history.append(job)
        self._dispatch_cycle()
        return True

    def resubmit(self, job: BatchJob) -> bool:
        """Requeue a FAILED job (used by the administration servers)."""
        if not self.up:
            return False
        job.reset_for_resubmit()
        job.on_exit(self._job_exited)
        self.pending.append(job)
        self._dispatch_cycle()
        return True

    # -- dispatch -----------------------------------------------------------------

    def _free_slots(self, db) -> int:
        return max(0, db.max_job_slots - db.job_count())

    def _dispatch_cycle(self) -> None:
        if not self.up or not self.pending:
            return
        still_pending: List[BatchJob] = []
        for job in self.pending:
            db = self._place(job)
            if db is None:
                still_pending.append(job)
                continue
            self._dispatch(job, db)
        self.pending = still_pending

    def _place(self, job: BatchJob):
        if job.requested_server:
            for db in self.servers:
                if db.host.name == job.requested_server:
                    if db.is_healthy() and self._free_slots(db) > 0:
                        return db
                    return None     # pinned to a busy/dead server: wait
            return None
        candidates = [db for db in self.servers if self._free_slots(db) > 0]
        if not candidates:
            return None
        return self.policy.choose(job, candidates)

    def _dispatch(self, job: BatchJob, db) -> None:
        if not db.attach_job(job):
            return
        self.dispatches += 1
        # checkpointed jobs resume from banked work; others start over
        completion = self.sim.schedule(job.remaining_work,
                                       self._complete, job)
        job.mark_running(db, self.sim.now, completion)
        self.running[job.job_id] = job
        self._maybe_schedule_crash(job, db)

    def _maybe_schedule_crash(self, job: BatchJob, db) -> None:
        """Draw whether this job will crash its database, and when."""
        hazard = db.crash_hazard_multiplier()
        p = min(0.95, self.base_crash_prob * hazard)
        if self.rng.random() < p:
            delay = float(self.rng.uniform(0.05, 0.95)) * job.remaining_work
            self.sim.schedule(delay, self._crash_db, job, db)

    def _crash_db(self, job: BatchJob, db) -> None:
        """The drawn crash fires -- unless the job already left."""
        if job.state is not JobState.RUNNING or job.database is not db:
            return
        self.crashes_caused += 1
        db.crash("overload: batch job storm")

    def _complete(self, job: BatchJob) -> None:
        job.complete(self.sim.now)

    def _job_exited(self, job: BatchJob) -> None:
        self.running.pop(job.job_id, None)
        if job.state is JobState.DONE:
            self.jobs_done += 1
        elif job.state is JobState.FAILED:
            self.jobs_failed += 1
        for fn in self._exit_listeners:
            fn(job)
        self._dispatch_cycle()

    # -- persistence -----------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Batch jobs themselves are *not* serialised: checkpointable
        configurations run with the workload generator off, so a
        quiescent site has no jobs in any state.  A snapshot attempted
        with live jobs is refused rather than silently lossy.
        """
        if self.pending or self.running or self.history:
            raise ValueError(
                f"cannot snapshot LSF with jobs on the books "
                f"(pending={len(self.pending)} running={len(self.running)} "
                f"history={len(self.history)})")
        return super().snapshot_state()

    # -- queries (the 'pre-scripted LSF specific commands') -------------------------

    def bjobs(self, state: Optional[JobState] = None) -> List[BatchJob]:
        if state is None:
            return list(self.history)
        return [j for j in self.history if j.state is state]

    def jobs_on(self, host_name: str) -> List[BatchJob]:
        """'number of LSF scheduled jobs per database server'."""
        return [j for j in self.running.values()
                if j.database is not None
                and j.database.host.name == host_name]

    def queue_stats(self) -> Dict[str, int]:
        return {
            "pending": len(self.pending),
            "running": len(self.running),
            "done": self.jobs_done,
            "failed": self.jobs_failed,
            "dispatches": self.dispatches,
            "db_crashes_caused": self.crashes_caused,
        }

    def shutdown(self) -> None:
        self._loop.cancel()
