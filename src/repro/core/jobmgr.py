"""LSF management on the administration servers (§4).

"Intelliagents ... were also used to automatically monitor and
reschedule batch jobs if these failed ... If jobs failed, intelliagents
residing on the administration servers resubmitted them not based on
the manual LSF settings and rules for job submissions, but based on the
dynamically generated DGSPs."

Selection rule: prefer "a server of equal or higher in power than the
server that failed" (from the SLKT), exclude servers the job already
failed on, take the head of the load-ordered shortlist.  If nothing
qualifies the constraints relax (a degraded placement beats none), and
if no server can be found at all, humans get email -- all three
behaviours straight from §4.

The manager also runs the §4 five-minute LSF checks (master processes
up, databases up, per-server job counts, time left per job) and emails
the daily summary report.
"""

from __future__ import annotations

from typing import Optional

from repro.batch.jobs import BatchJob, JobState
from repro.persist.core import Persistent, scalars
from repro.sim.calendar import DAY

__all__ = ["JobManager"]


class JobManager(Persistent):
    """DGSPL-driven batch-job babysitter."""

    MAX_RESUBMITS = 3
    CHECK_PERIOD = 300.0        # "checked every 5 minutes"
    #: counters only; the five-minute checks and the daily report
    #: re-arm through the admin heads' crond snapshots
    _persist = scalars(int, "resubmitted", "gave_up")

    def __init__(self, admin, lsf, *, notifications):
        self.admin = admin
        self.lsf = lsf
        self.sim = admin.sim
        self.notifications = notifications
        self.resubmitted = 0
        self.gave_up = 0
        lsf.on_job_exit(self._job_exited)
        for head in (admin.primary, admin.standby):
            head.crond.register("jobmgr_check", self.CHECK_PERIOD,
                                admin._make_guarded(head, self._check))
            head.crond.register(
                "jobmgr_daily", DAY,
                admin._make_guarded(head, self._daily_report))

    # -- resubmission ------------------------------------------------------------

    def _job_exited(self, job: BatchJob) -> None:
        if job.state is not JobState.FAILED:
            return
        if self.admin.active() is None:
            return              # both coordinators down: nothing watches
        tracer = self.sim.tracer
        with tracer.span("jobmgr.resubmit", job=job.job_id,
                         failed_on=",".join(job.failed_on)) as span:
            if job.resubmits >= self.MAX_RESUBMITS:
                span.set_attr("outcome", "gave-up")
                self._give_up(job,
                              f"{job.resubmits} resubmissions exhausted")
                return
            server = self._select_server(job)
            if server is None:
                span.set_attr("outcome", "gave-up")
                self._give_up(job, "no eligible database server")
                return
            job.requested_server = server
            span.set_attr("server", server)
            if self.lsf.resubmit(job):
                self.resubmitted += 1
                span.set_attr("outcome", "resubmitted")
                tracer.count("jobmgr.resubmitted")
            else:
                span.set_attr("outcome", "gave-up")
                self._give_up(job, "LSF master is down")

    def _select_server(self, job: BatchJob) -> Optional[str]:
        """The DGSPL shortlist with the SLKT power rule."""
        dgspl = self.admin.current_dgspl()
        if dgspl is None:
            return None
        min_power = 0.0
        if job.failed_on:
            min_power = dgspl.power_of(job.failed_on[-1])
        exclude = list(job.failed_on)
        shortlist = dgspl.shortlist("database", min_power=min_power,
                                    exclude_servers=exclude)
        if not shortlist:
            shortlist = dgspl.shortlist("database",
                                        exclude_servers=exclude)
        if not shortlist:
            shortlist = dgspl.shortlist("database")
        live = {db.host.name: db for db in self.lsf.servers}
        # first pass: healthy servers with a free slot right now.  The
        # DGSPL's load figures can be minutes stale (it regenerates
        # every ~15 min), so re-rank the eligible candidates by the
        # *live* state the five-minute checks also read -- otherwise a
        # burst of rescues herds onto whichever server looked idle in
        # the last snapshot.
        eligible = []
        for rank, entry in enumerate(shortlist):
            db = live.get(entry.server)
            if (db is not None and db.is_healthy()
                    and db.job_count() < db.max_job_slots):
                eligible.append((db.overload_factor(),
                                 db.job_count() / db.max_job_slots,
                                 rank, entry.server))
        if eligible:
            eligible.sort()
            return eligible[0][3]
        # everything is momentarily full: queue on the best healthy
        # server rather than giving up (LSF dispatches when a slot
        # frees; only a site with no live database is hopeless).
        # The DGSPL can lag a crash by up to a cycle, hence the
        # double-check against the live scheduler state.
        for entry in shortlist:
            db = live.get(entry.server)
            if db is not None and db.is_healthy():
                return entry.server
        return None

    def _give_up(self, job: BatchJob, reason: str) -> None:
        self.gave_up += 1
        self.sim.tracer.count("jobmgr.gave_up")
        self.notifications.email(
            "operators",
            f"job {job.job_id} ({job.name}) needs manual handling",
            body=f"{reason}; failed on: {', '.join(job.failed_on)}",
            severity="critical", sender="jobmgr")

    # -- the five-minute checks -----------------------------------------------------

    def _check(self) -> None:
        if not self.lsf.up:
            master = self.lsf.master
            if master.host.is_up:
                # the master host's own service agent will restart it;
                # the manager restarts it directly if nothing else did
                master.host.shell.run(f"{master.name}_ctl start")
            else:
                self.notifications.sms(
                    "oncall-admin", "LSF master host is down",
                    severity="critical", sender="jobmgr")

    # -- daily summary ------------------------------------------------------------------

    def _daily_report(self) -> None:
        stats = self.lsf.queue_stats()
        self.notifications.email(
            "administrators", "daily batch summary",
            body=(f"done={stats['done']} failed={stats['failed']} "
                  f"pending={stats['pending']} "
                  f"resubmitted={self.resubmitted} "
                  f"gave_up={self.gave_up}"),
            severity="info", sender="jobmgr")
