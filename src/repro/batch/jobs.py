"""Batch job model.

A job is a unit of analyst work (data-mining run, model evaluation,
market simulation) that executes *against a database server*: while
running it occupies a job slot, adds runnable-process pressure and disk
demand on the database's host, and dies if the database dies -- the
"mid-crash" failure class dominating Fig. 2.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.database import Database

__all__ = ["JobState", "BatchJob"]

_job_ids = itertools.count(1)


class JobState(enum.Enum):
    PENDING = "PEND"
    RUNNING = "RUN"
    DONE = "DONE"
    FAILED = "EXIT"
    CANCELLED = "ZOMBI"


class BatchJob:
    """One LSF job."""

    def __init__(self, name: str, user: str, *, duration: float,
                 cpu_slots: int = 1, io_demand: float = 0.2,
                 requested_server: Optional[str] = None):
        self.job_id = next(_job_ids)
        self.name = name
        self.user = user
        self.duration = float(duration)
        self.cpu_slots = cpu_slots
        self.io_demand = io_demand
        #: the server the user manually picked (None = let LSF choose)
        self.requested_server = requested_server
        self.submitted_at = 0.0
        #: checkpointing support ([18] in the paper's related work):
        #: > 0 means the job saves state every this-many seconds and a
        #: resubmission resumes from the last checkpoint instead of
        #: restarting from scratch
        self.checkpoint_interval = 0.0
        #: work already banked at the last checkpoint, seconds
        self.checkpointed_work = 0.0

        self.state = JobState.PENDING
        self.database: Optional["Database"] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.fail_reason = ""
        self.failures = 0
        self.resubmits = 0
        #: servers this job has already failed on (the jobmgr avoids them)
        self.failed_on: List[str] = []
        self._completion_event = None
        self._on_exit: List[Callable[["BatchJob"], None]] = []

    # -- observers -----------------------------------------------------------

    def on_exit(self, fn: Callable[["BatchJob"], None]) -> None:
        """Register a callback fired once per terminal transition
        (DONE, FAILED or CANCELLED)."""
        self._on_exit.append(fn)

    def _fire_exit(self) -> None:
        callbacks, self._on_exit = list(self._on_exit), self._on_exit
        for fn in callbacks:
            fn(self)

    # -- lifecycle (driven by the LSF cluster) ----------------------------------

    def mark_running(self, db: "Database", now: float, completion_event) -> None:
        self.state = JobState.RUNNING
        self.database = db
        self.started_at = now
        self._completion_event = completion_event

    def complete(self, now: float) -> None:
        if self.state is not JobState.RUNNING:
            return
        self.state = JobState.DONE
        self.finished_at = now
        if self.database is not None:
            self.database.detach_job(self)
            self.database = None
        self._fire_exit()

    @property
    def remaining_work(self) -> float:
        """Seconds of work left given banked checkpoints."""
        return max(0.0, self.duration - self.checkpointed_work)

    def _bank_checkpoints(self, now: float) -> None:
        """On failure, keep the work saved at the last checkpoint."""
        if self.checkpoint_interval <= 0 or self.started_at is None:
            return
        import math
        progress = max(0.0, now - self.started_at)
        banked = math.floor(
            progress / self.checkpoint_interval) * self.checkpoint_interval
        self.checkpointed_work = min(self.duration,
                                     self.checkpointed_work + banked)

    def fail(self, now: float, reason: str) -> None:
        if self.state in (JobState.DONE, JobState.FAILED, JobState.CANCELLED):
            return
        was_running = self.state is JobState.RUNNING
        if was_running:
            self._bank_checkpoints(now)
        self.state = JobState.FAILED
        self.finished_at = now
        self.fail_reason = reason
        self.failures += 1
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if self.database is not None:
            if was_running:
                self.failed_on.append(self.database.host.name)
                self.database.detach_job(self)
            self.database = None
        self._fire_exit()

    def database_died(self, reason: str, now: float) -> None:
        """Called by the database when it stops under this job.  The
        database has already detached us, so record the failed server
        here (the resubmission policy needs it) before failing."""
        db = self.database
        self.database = None
        if db is not None and self.state is JobState.RUNNING:
            self.failed_on.append(db.host.name)
        self.fail(now, f"db-died: {reason}")

    def reset_for_resubmit(self) -> None:
        """Return a FAILED job to PENDING for another attempt."""
        if self.state is not JobState.FAILED:
            raise ValueError(f"job {self.job_id} is {self.state}, not FAILED")
        self.state = JobState.PENDING
        self.resubmits += 1
        self.started_at = None
        self.finished_at = None
        self.database = None

    # -- queries ---------------------------------------------------------------

    def time_left(self, now: float) -> float:
        """'the time batch jobs had left to complete' (§4)."""
        if self.state is not JobState.RUNNING or self.started_at is None:
            return 0.0
        return max(0.0, self.started_at + self.remaining_work - now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<BatchJob {self.job_id} {self.name!r} "
                f"{self.state.value}>")
