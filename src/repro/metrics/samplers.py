"""Per-workgroup measurement samplers.

§3.5 divides measurements into five groups: operating system, network,
disks, application processes and user processes.  Each sampler runs the
relevant shell tools on its host (vmstat/sar for OS, netstat/nfsstat
for network, iostat for disks, ps-walks for processes), parses the
ASCII and appends a record to the group's circular log under
``/logs/perf/<host>/<group>``.  That file is the only copy: threshold
checks read the fresh sample, and a timeline
(:meth:`SamplerSuite.get_series`) is parsed back out of the retained
lines, as deep as the log is long and as durable as the host's disk.

"All techniques were non-intrusive": a sampler is pull-only; it never
mutates the thing it measures.

A group samples the same metric names wake after wake, and most
groups the same names on every host, so a record line is one C-level
``%`` format through a template memoised by key set (:func:`_template`:
bounded, derived, shared by every host in the process) instead of one
f-string per metric per wake.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.metrics.circular_log import CircularLog
from repro.metrics.timeseries import TimeSeries

__all__ = ["Sample", "WORKGROUPS", "SamplerSuite"]

WORKGROUPS = ("os", "network", "disks", "app_procs", "user_procs")

#: system users whose processes belong to the OS, not to people
SYSTEM_USERS = frozenset({"root", "daemon", "patrol", "www", "lsfadmin"})


@dataclass(slots=True)
class Sample:
    """One measurement record: a timestamped metric map."""

    time: float
    group: str
    metrics: Dict[str, float]

    def format(self) -> str:
        template, keys = _template(tuple(self.metrics))
        return template % (self.time, *map(self.metrics.__getitem__, keys))

    @classmethod
    def parse(cls, group: str, line: str) -> "Sample":
        head, *pairs = line.split()
        metrics = {}
        for p in pairs:
            k, _, v = p.partition("=")
            metrics[k] = float(v)
        return cls(float(head), group, metrics)


@functools.lru_cache(maxsize=256)
def _template(sampled: Tuple[str, ...]) -> Tuple[str, Tuple[str, ...]]:
    """The record line for these metric names as a ``%`` template over
    ``(time, *values)``, and the (sorted) order the values go in.  An
    empty group is ``"<t> "``, trailing blank included."""
    keys = tuple(sorted(sampled))
    return ("%.1f " + " ".join(k.replace("%", "%%") + "=%.3f"
                               for k in keys), keys)


class SamplerSuite:
    """All five workgroup samplers for one host."""

    def __init__(self, host, *, log_maxlen: int = 2000):
        self.host = host
        self.logs: Dict[str, CircularLog] = {}
        self.log_maxlen = log_maxlen

    def _path(self, group: str) -> str:
        # "classified first by server name and then by measurement group"
        return f"/logs/perf/{self.host.name}/{group}"

    def _log(self, group: str) -> CircularLog:
        log = self.logs.get(group)
        if log is None:
            log = self.logs[group] = CircularLog(
                self.host.fs, self._path(group), self.log_maxlen)
        return log

    def _record(self, group: str, now: float,
                metrics: Dict[str, float]) -> Sample:
        sample = Sample(now, group, metrics)
        self._log(group).append(sample.format(), now=now)
        return sample

    # -- the five workgroups -------------------------------------------------

    def sample_os(self) -> Sample:
        """vmstat/sar numbers: sr, po, faults, free, run queue, idle."""
        host = self.host
        m = host.os_metrics()
        return self._record("os", host.sim.now, {
            "run_queue": float(m["run_queue"]),
            "blocked": float(m["blocked"]),
            "free_mb": m["free_mb"],
            "scan_rate": float(m["scan_rate"]),
            "page_out": float(m["page_out"]),
            "page_faults": float(m["page_faults"]),
            "cpu_idle": m["cpu_idle"],
            "cpu_user": m["cpu_user"],
            "cpu_sys": m["cpu_sys"],
            "cpu_wio": m["cpu_wio"],
            "load_avg": m["load_avg"],
        })

    def sample_network(self) -> Sample:
        """netstat/nfsstat: per-interface totals, errors, collisions."""
        host = self.host
        metrics: Dict[str, float] = {
            "nfs_calls": float(host.nfs_calls),
            "nfs_retrans": float(host.nfs_retrans),
        }
        total_err = 0
        for nic in host.nics.values():
            metrics[f"{nic.ifname}_ipkts"] = float(nic.packets_in)
            metrics[f"{nic.ifname}_opkts"] = float(nic.packets_out)
            metrics[f"{nic.ifname}_errs"] = float(
                nic.errors_in + nic.errors_out)
            metrics[f"{nic.ifname}_colls"] = float(nic.collisions)
            metrics[f"{nic.ifname}_util"] = nic.lan.utilization()
            total_err += nic.errors_in + nic.errors_out
        metrics["total_errs"] = float(total_err)
        return self._record("network", host.sim.now, metrics)

    def sample_disks(self) -> Sample:
        """iostat: busy%, asvc_t, wsvc_t per device (§3.6 watches the
        response-time values)."""
        host = self.host
        metrics: Dict[str, float] = {}
        worst_svc = 0.0
        for row in host.disk_metrics():
            dev = row["device"]
            metrics[f"{dev}_busy"] = row["busy_pct"]
            metrics[f"{dev}_asvc_t"] = row["asvc_t"]
            metrics[f"{dev}_wsvc_t"] = row["wsvc_t"]
            if not row["failed"]:
                worst_svc = max(worst_svc, row["asvc_t"])
        metrics["worst_asvc_t"] = worst_svc
        for mount in host.fs.df():
            key = "root" if mount.point == "/" else mount.point.strip("/").replace("/", "_")
            metrics[f"fs_{key}_pct"] = mount.pct_used
        return self._record("disks", host.sim.now, metrics)

    def sample_app_procs(self) -> Sample:
        """Per-application process aggregation."""
        host = self.host
        metrics: Dict[str, float] = {}
        for app in host.apps.values():
            cpu = sum(p.cpu_pct for p in app.procs)
            mem = sum(p.mem_mb for p in app.procs)
            metrics[f"{app.name}_cpu"] = cpu
            metrics[f"{app.name}_mem_mb"] = mem
            metrics[f"{app.name}_nproc"] = float(len(app.procs))
        return self._record("app_procs", host.sim.now, metrics)

    def sample_user_procs(self) -> Sample:
        """Per-user process aggregation ('processes per user name')."""
        host = self.host
        by_user: Dict[str, List[float]] = {}
        for proc in host.ptable:
            if proc.user in SYSTEM_USERS:
                continue
            by_user.setdefault(proc.user, [0.0, 0.0, 0.0])
            agg = by_user[proc.user]
            agg[0] += 1
            agg[1] += proc.cpu_pct
            agg[2] += proc.mem_mb
        metrics: Dict[str, float] = {"users": float(len(by_user))}
        worst_cpu = 0.0
        for user, (n, cpu, mem) in by_user.items():
            metrics[f"{user}_nproc"] = n
            metrics[f"{user}_cpu"] = cpu
            metrics[f"{user}_mem_mb"] = mem
            worst_cpu = max(worst_cpu, cpu)
        metrics["worst_user_cpu"] = worst_cpu
        return self._record("user_procs", host.sim.now, metrics)

    # -- convenience -------------------------------------------------------------

    def sample_all(self) -> List[Sample]:
        if not self.host.is_up:
            return []
        return [self.sample_os(), self.sample_network(),
                self.sample_disks(), self.sample_app_procs(),
                self.sample_user_procs()]

    def get_series(self, group: str, key: str) -> Optional[TimeSeries]:
        """One metric's retained history, parsed from the group's log
        (``None`` if never sampled).  Reads the file directly:
        :meth:`_log` would create one."""
        fs, path = self.host.fs, self._path(group)
        if not fs.exists(path):
            return None
        ts = TimeSeries(f"{group}.{key}")
        for lineno, line in enumerate(fs.read(path), 1):
            try:
                sample = Sample.parse(group, line)
                if key in sample.metrics:
                    ts.append(sample.time, sample.metrics[key])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad sample line "
                                 f"{line!r}: {exc}") from exc
        return ts if len(ts) else None
