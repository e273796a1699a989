"""Analyst workload generator.

§4's workload: financial analysts submitting data-mining jobs, model
evaluations and market simulations -- mostly "large database jobs
scheduled to run overnight".  Each weekday evening a batch of jobs is
submitted, each manually targeted per the pre-agent practice; daytime
brings lighter ad-hoc jobs.
"""

from __future__ import annotations

from typing import List

from repro.batch.jobs import BatchJob
from repro.batch.lsf import LsfCluster
from repro.sim.calendar import DAY, HOUR, MINUTE, is_weekend

__all__ = ["OvernightWorkload", "JOB_KINDS"]

#: (kind, mean duration h, cpu slots, io demand)
JOB_KINDS = (
    ("datamine", 6.0, 4, 0.5),
    ("model-eval", 3.0, 2, 0.3),
    ("market-sim", 4.0, 3, 0.4),
    ("report", 1.0, 1, 0.1),
)


class OvernightWorkload:
    """Submits the nightly batch and light daytime jobs."""

    def __init__(self, lsf: LsfCluster, rng, *,
                 jobs_per_night: int = 40):
        self.lsf = lsf
        self.sim = lsf.sim
        self.rng = rng
        self.users = [f"analyst{i:02d}" for i in range(25)]
        self.jobs_per_night = jobs_per_night
        self.daytime_jobs_per_hour = 2.0
        self.submit_hour = 20.0
        self.submitted: List[BatchJob] = []
        self.bounced = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self.sim.spawn(self._nightly(), name="wl.night")
        if self.daytime_jobs_per_hour > 0:
            self.sim.spawn(self._daytime(), name="wl.day")

    # -- job synthesis -----------------------------------------------------------

    def make_job(self, *, big: bool = True) -> BatchJob:
        kind, mean_h, slots, io = JOB_KINDS[
            int(self.rng.integers(len(JOB_KINDS)))]
        if not big:
            mean_h, slots, io = mean_h / 4.0, max(1, slots // 2), io / 2.0
        duration = float(self.rng.lognormal(0.0, 0.5)) * mean_h * HOUR
        user = self.users[int(self.rng.integers(len(self.users)))]
        target = None
        if self.lsf.servers:
            # pre-agent practice: the user's habitual server, load-blind
            from repro.sim.rand import stable_hash
            favs = sorted(self.lsf.servers,
                          key=lambda db: stable_hash(user, db.host.name))
            target = favs[0].host.name
        return BatchJob(f"{kind}-{user}", user, duration=duration,
                        cpu_slots=slots, io_demand=io,
                        requested_server=target)

    # -- drivers --------------------------------------------------------------------

    def _nightly(self):
        while True:
            # wait until today's submit hour (or tomorrow's if past it)
            now = self.sim.now
            today_submit = (now // DAY) * DAY + self.submit_hour * HOUR
            if today_submit <= now:
                today_submit += DAY
            yield today_submit - now
            if is_weekend(self.sim.now):
                continue        # analysts go home on weekends
            for _ in range(self.jobs_per_night):
                yield float(self.rng.uniform(0.0, 30.0 * MINUTE)) / self.jobs_per_night
                self._submit(self.make_job(big=True))

    def _daytime(self):
        while True:
            gap = float(self.rng.exponential(HOUR / self.daytime_jobs_per_hour))
            yield gap
            from repro.sim.calendar import is_business_hours
            if not is_business_hours(self.sim.now):
                continue
            self._submit(self.make_job(big=False))

    def _submit(self, job: BatchJob) -> None:
        if self.lsf.submit(job):
            self.submitted.append(job)
        else:
            self.bounced += 1

    # -- results -----------------------------------------------------------------------

    def completion_stats(self) -> dict:
        done = sum(1 for j in self.submitted if j.state.value == "DONE")
        failed = sum(1 for j in self.submitted if j.state.value == "EXIT")
        return {
            "submitted": len(self.submitted),
            "bounced": self.bounced,
            "done": done,
            "failed": failed,
            "completion_rate": done / len(self.submitted)
            if self.submitted else 1.0,
        }
