"""Database server model (Oracle / Sybase flavours).

Carries what §3.6's database measurements need: connect time, query
service time, initialise/shutdown/backup durations, per-process
CPU/memory and memory-per-transaction.  Batch jobs attach to a
database and load it; the dominant Fig. 2 fault -- "databases crashing
in the middle of a job" -- is modelled by :meth:`crash`, which fails
every attached job.

Crash *proneness* grows with overload, which is what makes the DGSPL
placement policy matter (§4: jobs crashed because users picked servers
that were underpowered or already overloaded).
"""

from __future__ import annotations

from typing import Dict, List, Tuple, TYPE_CHECKING

from repro.apps.base import Application, AppState, ProcessSpec, StartupStep
from repro.persist.core import QuiescenceError, scalars

if TYPE_CHECKING:  # pragma: no cover
    from repro.batch.jobs import BatchJob

__all__ = ["Database"]

_DB_PORTS = {"oracle": 1521, "sybase": 4100}
#: system global area (MB); a quarter of it per server process
_SGA_MB = 512.0


class Database(Application):
    """A simulated relational database server."""

    app_type = "database"
    sga_mb = _SGA_MB
    mem_per_txn_kb = 64.0
    backup_duration = 3600.0
    #: each flavour's daemons and the startup sequence: frozen specs
    #: every instance shares
    _daemons = {t: (ProcessSpec(f"{t}_pmon", 1, cpu_pct=0.5, mem_mb=16.0),
                    ProcessSpec(f"{t}_dbwr", 2, cpu_pct=2.0, mem_mb=24.0),
                    ProcessSpec(f"{t}_lgwr", 1, cpu_pct=1.0, mem_mb=16.0),
                    ProcessSpec(f"{t}_listener", 1, cpu_pct=0.2, mem_mb=8.0),
                    ProcessSpec(f"{t}_server", 4, cpu_pct=1.0,
                                mem_mb=_SGA_MB / 4.0))
                for t in _DB_PORTS}
    _startup = (StartupStep("mount", 20.0), StartupStep("recover", 60.0),
                StartupStep("open", 40.0))
    _persist_extra = scalars(int, "transactions", "jobs_crashed_total")

    def __init__(self, host, name: str, *, db_type: str = "oracle",
                 max_job_slots: int = 4, **kw):
        if db_type not in _DB_PORTS:
            raise ValueError(f"unknown db_type {db_type!r}")
        self.db_type = db_type
        self.max_job_slots = max_job_slots
        kw.setdefault("port", _DB_PORTS[db_type])
        kw.setdefault("user", db_type)
        kw.setdefault("base_response_ms", 20.0)
        kw.setdefault("connect_timeout_ms", 10_000.0)
        super().__init__(host, name, version="8.1.7",
                         processes=self._daemons[db_type],
                         startup=self._startup, shutdown_duration=90.0, **kw)
        self.io_demand = 0.3          # resting I/O of a warm database

        self.active_jobs: List["BatchJob"] = []
        self.transactions = 0
        self.jobs_crashed_total = 0

    # -- SQL-level health probe -------------------------------------------------

    def probe(self) -> Tuple[bool, float, str]:
        """'connect and attempt to do a select * from table_name'."""
        ok, ms, err = super().probe()
        if not ok:
            return (ok, ms, err)
        # the basic query costs one service round plus a txn
        self.transactions += 1
        return (True, ms + self.service_time_ms(), "")

    # -- batch job attachment ---------------------------------------------------------

    def attach_job(self, job: "BatchJob") -> bool:
        """A dispatched batch job starts consuming this database."""
        if self.state is not AppState.RUNNING:
            return False
        self.active_jobs.append(job)
        self.host.extra_runnable += job.cpu_slots
        self.host.add_io_demand(job.io_demand)
        return True

    def detach_job(self, job: "BatchJob") -> None:
        try:
            self.active_jobs.remove(job)
        except ValueError:
            return
        self.host.extra_runnable = max(
            0, self.host.extra_runnable - job.cpu_slots)
        self.host.add_io_demand(-job.io_demand)

    def job_count(self) -> int:
        return len(self.active_jobs)

    def overload_factor(self) -> float:
        """How far past its sustainable load this server is (0 = fine,
        1 = at the manufacturer's ceiling, >1 = overloaded)."""
        ceiling = self.host.spec.max_load * self.host.effective_cpus()
        demand = self.host.ptable.runnable() + self.host.extra_runnable
        return demand / max(1.0, ceiling)

    def crash_hazard_multiplier(self) -> float:
        """Relative likelihood of a mid-job crash given current load.

        Calibrated so a sanely-placed job adds little risk while an
        overloaded or underpowered server is an order of magnitude
        riskier -- the §4 observation driving the DGSPL policy.
        """
        over = self.overload_factor()
        if over <= 0.8:
            return 1.0
        return 1.0 + 8.0 * (over - 0.8) ** 2 * 25.0

    # -- failure behaviour ------------------------------------------------------------

    def on_stopping(self, reason: str) -> None:
        """Any stop (crash, shutdown, host down) fails active jobs."""
        jobs, self.active_jobs = self.active_jobs, []
        for job in jobs:
            self.host.extra_runnable = max(
                0, self.host.extra_runnable - job.cpu_slots)
            self.host.add_io_demand(-job.io_demand)
            self.jobs_crashed_total += 1
            job.database_died(reason, self.sim.now)

    # -- persistence ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        if self.active_jobs:
            # batch jobs are generator-driven; a checkpoint barrier must
            # not land while any are attached (see repro.persist)
            raise QuiescenceError(
                f"{self.name}: cannot snapshot with active batch jobs")
        return super().snapshot_state()

    def db_metrics(self) -> Dict[str, float]:
        """The §3.6 database measurements, as one snapshot."""
        ok, connect_ms, _ = super().probe()
        return {
            "connect_ms": connect_ms if ok else -1.0,
            "query_ms": self.service_time_ms() if ok else -1.0,
            "init_s": self.startup_duration(),
            "shutdown_s": self.shutdown_duration,
            "backup_s": self.backup_duration,
            "proc_cpu_pct": sum(p.cpu_pct for p in self.procs),
            "proc_mem_mb": sum(p.mem_mb for p in self.procs),
            "startup_mem_mb": self.sga_mb,
            "mem_per_txn_kb": self.mem_per_txn_kb,
            "active_jobs": self.job_count(),
        }
