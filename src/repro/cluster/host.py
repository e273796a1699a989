"""Host model.

A :class:`Host` ties together the hardware inventory, process table,
filesystem, syslog, crond and shell of one simulated server, and owns
the derived OS metrics that ``vmstat``/``iostat``/``sar`` report.

Load is *derived*, not scripted: CPU utilisation, run queue, memory
pressure and paging all fall out of what is actually in the process
table plus the I/O demand registered by applications and batch jobs.
That keeps the performance agents honest -- they see metrics move
because simulated work moved them.  The two facts every load reading
starts from, the run-queue counts and the effective capacity, are kept
up to date by the process table and the inventory where they are
written, so reading them here costs no walk over either.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.cluster.cron import Crond
from repro.cluster.filesystem import FileSystem
from repro.cluster.hardware import (ComponentKind, ComponentState,
                                    HardwareInventory)
from repro.cluster.process import ProcessTable, ProcState
from repro.cluster.shell import Shell
from repro.cluster.specs import ServerSpec
from repro.cluster.syslog import Syslog
from repro.persist.core import (Persistent, member, part, pending, scalar,
                                scalars, signal, sortedset)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator

__all__ = ["Host", "HostState"]

#: Memory the bare OS consumes (kernel + base daemons), MB.
OS_BASE_MB = 128.0
#: Free-memory fraction below which the pager starts scanning.
PAGING_THRESHOLD = 0.05


def _memory_pressure(ram: float, free: float) -> float:
    if ram <= 0:
        return 1.0
    free_frac = free / ram
    if free_frac >= PAGING_THRESHOLD:
        return 0.0
    return 1.0 - free_frac / PAGING_THRESHOLD


class HostState(enum.Enum):
    UP = "up"
    DOWN = "down"
    BOOTING = "booting"


class Host(Persistent):
    """One simulated Unix server."""

    #: everything the host owns: OS scalars plus the nested substrate.
    #: Installed apps and agents snapshot through their own layers.
    _persist = (
        member("state", HostState), scalar("booted_at", float),
        scalar("crash_count", int), scalar("io_demand", float),
        scalar("extra_runnable", int), sortedset("logged_in_users"),
        *scalars(int, "nfs_calls", "nfs_retrans"),
        signal("up_signal"), signal("down_signal"),
        part("inventory"), part("fs"), part("ptable"), part("syslog"),
        part("crond"), part("shell"), part("nics"),
        pending("boot_event", "_boot_event", "_finish_boot"))

    def __init__(self, sim: "Simulator", name: str, spec: ServerSpec, *,
                 site: str = "london", boot_duration: float = 300.0):
        self.sim = sim
        self.name = name
        self.spec = spec
        self.site = site
        self.location = "dc1"
        self.boot_duration = float(boot_duration)

        self.inventory = HardwareInventory(spec)
        self.fs = FileSystem()
        self.ptable = ProcessTable(name)
        self.syslog = Syslog()
        self.crond = Crond(self)
        self.shell = Shell(self)

        self.state = HostState.UP
        self.booted_at = sim.now
        self.crash_count = 0
        #: pending boot-completion event, retained so checkpoints can
        #: claim and re-arm a mid-boot host
        self._boot_event = None

        #: NICs keyed by interface name; populated by the net layer.
        self.nics: Dict[str, object] = {}
        #: Applications installed on this host, keyed by app name.
        self.apps: Dict[str, object] = {}
        #: Aggregate disk-I/O demand, in "fully-busy-disk" units.
        self.io_demand = 0.0
        #: Extra runnable-process pressure injected by batch jobs.
        self.extra_runnable = 0
        #: Interactive users logged in (front-end sessions).
        self.logged_in_users: set[str] = set()

        self.nfs_calls = 0
        self.nfs_retrans = 0

        self.up_signal = sim.signal(f"{name}.up")
        self.down_signal = sim.signal(f"{name}.down")

        # base daemons every Unix host runs
        for daemon in ("init", "inetd", "syslogd", "crond"):
            self.ptable.spawn("root", daemon, cpu_pct=0.01, mem_mb=2.0,
                              now=sim.now)

        #: datacentre back-reference, set by Datacenter.add_host.
        self.datacenter = None

    # -- state ---------------------------------------------------------------

    @property
    def is_up(self) -> bool:
        return self.state is HostState.UP

    def crash(self, reason: str = "panic") -> None:
        """Hard stop: processes die, applications go down with it."""
        if self.state is HostState.DOWN:
            return
        self.state = HostState.DOWN
        self.crash_count += 1
        self.ptable.clear()
        self.io_demand = 0.0
        self.extra_runnable = 0
        self.logged_in_users.clear()
        for app in list(self.apps.values()):
            app.host_went_down(reason)
        self.down_signal.fire(reason)

    def boot(self) -> None:
        """Power on: BOOTING for ``boot_duration``, then UP.  rc scripts
        start every installed auto-start application."""
        if self.state is not HostState.DOWN:
            return
        if self.inventory.fatal():
            self.syslog.log(self.sim.now, "kern", "emerg", "boot",
                            "POST failed: fatal hardware fault")
            return
        self.state = HostState.BOOTING
        self._boot_event = self.sim.schedule(self.boot_duration,
                                             self._finish_boot)

    def _finish_boot(self) -> None:
        self._boot_event = None
        if self.state is not HostState.BOOTING:
            return
        if self.inventory.fatal():
            self.state = HostState.DOWN
            return
        self.state = HostState.UP
        self.booted_at = self.sim.now
        for daemon in ("init", "inetd", "syslogd", "crond"):
            self.ptable.spawn("root", daemon, cpu_pct=0.01, mem_mb=2.0,
                              now=self.sim.now)
        self.crond.restart()
        for app in list(self.apps.values()):
            if getattr(app, "auto_start", True):
                app.start()
        self.up_signal.fire()

    # -- application registry ---------------------------------------------------

    def install_app(self, app) -> None:
        if app.name in self.apps:
            raise ValueError(f"{self.name}: app {app.name!r} already installed")
        self.apps[app.name] = app

    # -- derived OS metrics -------------------------------------------------------

    def effective_cpus(self) -> int:
        return max(1, self.inventory.effective_cpus())

    def effective_ram_mb(self) -> float:
        return float(self.inventory.effective_ram_mb())

    def cpu_utilization(self) -> float:
        """0..100 across all effective CPUs."""
        return self._cpu_utilization(self.effective_cpus())

    def _cpu_utilization(self, cpus: int) -> float:
        if not self.is_up:
            return 0.0
        return min(100.0, self.ptable.total_cpu_pct() / cpus)

    def _queued(self) -> int:
        """Processes wanting a CPU (none while the host is not up)."""
        if not self.is_up:
            return 0
        return self.ptable.runnable() + self.extra_runnable

    def load_average(self) -> float:
        return self._queued() / self.effective_cpus()

    def memory_used_mb(self) -> float:
        return OS_BASE_MB + self.ptable.total_mem_mb()

    def memory_free_mb(self) -> float:
        return max(0.0, self.effective_ram_mb() - self.memory_used_mb())

    def os_metrics(self) -> Dict[str, float]:
        """The numbers §3.6 says the OS agents watch: sr, po, page
        faults, free memory, run queue, load, idle %, blocked processes.
        Capacity and each process-table total are read once."""
        cpus = self.effective_cpus()
        ram = self.effective_ram_mb()
        free = max(0.0, ram - self.memory_used_mb())
        pressure = _memory_pressure(ram, free)
        util = self._cpu_utilization(cpus)
        queued = self._queued()
        wio = min(30.0, 10.0 * self.io_pressure())
        idle = max(0.0, 100.0 - util - wio)
        return {
            "run_queue": max(0, queued - cpus),
            "blocked": self.ptable.blocked(),
            "free_mb": free,
            "scan_rate": round(pressure * 400.0),
            "page_out": round(pressure * 150.0),
            "page_faults": round(20.0 + pressure * 800.0),
            "cpu_idle": idle,
            "cpu_user": util * 0.7,
            "cpu_sys": util * 0.3,
            "cpu_wio": wio,
            "load_avg": queued / cpus,
        }

    # -- disk I/O ---------------------------------------------------------------

    def online_disks(self) -> int:
        return self.inventory.online(ComponentKind.DISK)

    def io_pressure(self) -> float:
        """Aggregate demand over online disks, 0..1+ (1 = saturated)."""
        disks = self.online_disks()
        if disks == 0:
            return 2.0 if self.io_demand > 0 else 0.0
        return self.io_demand / disks

    def disk_metrics(self) -> List[Dict[str, float]]:
        """Per-disk iostat rows.  Service times follow an M/M/1-style
        blow-up as the disk approaches saturation (the asvc_t / wsvc_t
        values §3.6 watches)."""
        disks = self.inventory.of_kind(ComponentKind.DISK)
        online = [d for d in disks if d.state is not ComponentState.FAILED]
        share = self.io_demand / len(online) if online else 0.0
        rows = []
        for d in disks:
            failed = d.state is ComponentState.FAILED
            busy = 0.0 if failed else min(1.0, share)
            base = 8.0  # ms, an idle-disk service time circa 2002
            svc = base / max(0.05, 1.0 - min(0.95, busy))
            rows.append({
                "device": f"sd{d.index}",
                "busy_pct": 100.0 * busy,
                "asvc_t": svc,
                "wsvc_t": svc * 1.2,
                "failed": failed,
            })
        return rows

    def add_io_demand(self, amount: float) -> None:
        self.io_demand = max(0.0, self.io_demand + amount)

    # -- network probe -------------------------------------------------------------

    def probe(self, target_name: str) -> tuple[bool, float]:
        """ping another host by name through the datacentre networks."""
        if self.datacenter is None:
            return (False, 0.0)
        return self.datacenter.probe(self.name, target_name)

    # -- logging convenience ----------------------------------------------------------

    def log_error(self, tag: str, message: str) -> None:
        self.syslog.error(self.sim.now, tag, message)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Host {self.name} {self.spec.model} {self.state.value} "
                f"apps={list(self.apps)}>")
