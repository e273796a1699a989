"""Live fault injection.

Applies concrete faults to a running simulated datacentre.  Each
injector method returns a :class:`FaultEvent` so experiments can later
join detection/repair times against injection times.  The
:meth:`FaultInjector.random_fault` dispatcher picks a concrete flavour
for an abstract Fig. 2 category, which is how stochastic campaigns in
full-fidelity mode choose what actually breaks.

Two contracts the chaos tooling (:mod:`repro.chaos`) builds on:

- **No silent overlap.**  Injecting a fault into a component that is
  still broken from an earlier injection raises
  :class:`OverlappingFaultError` instead of silently replacing the
  first fault (the old last-writer-wins behaviour made scenario
  minimisation ambiguous: which of the two stacked faults caused the
  violation?).  The error subclasses ``ValueError`` so stochastic
  campaigns that already treat "no eligible target" as a fizzle keep
  working unchanged.
- **A structured catalog.**  :data:`FAULT_CATALOG` enumerates every
  concrete fault kind with its category and required target kind, so
  a scenario DSL can generate and validate events against the real
  injector surface instead of hard-coding strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.base import AppState
from repro.apps.database import Database
from repro.faults.models import Category, FaultEvent
from repro.cluster.hardware import ComponentKind, ComponentState
from repro.persist.core import Persistent, pendings, rows

__all__ = ["FaultInjector", "FaultSpec", "FAULT_CATALOG",
           "OverlappingFaultError"]


class OverlappingFaultError(ValueError):
    """The target is already broken by an earlier, still-active fault."""

    def __init__(self, kind: str, target: str, why: str):
        super().__init__(
            f"cannot inject {kind!r} into {target}: {why} "
            f"(overlapping injections against one component are "
            f"rejected, not last-writer-wins)")
        self.kind = kind
        self.target = target


@dataclass(frozen=True)
class FaultSpec:
    """One concrete fault kind the injector can apply.

    ``target`` names what the fault needs aimed at it: ``"database"``,
    ``"app"`` (any application), ``"host"``, ``"lan"``, ``"nameservice"``
    or ``"scheduler"``.  ``method`` is the :class:`FaultInjector`
    method implementing it, so callers can dispatch generically.
    """

    kind: str
    category: Category
    target: str
    method: str
    description: str = ""


#: every concrete fault flavour, enumerable by the scenario DSL
FAULT_CATALOG: Tuple[FaultSpec, ...] = (
    FaultSpec("db-crash", Category.MID_CRASH, "database", "db_crash",
              "database dies mid-job"),
    FaultSpec("app-crash", Category.FRONT_END, "app", "app_crash",
              "application process crashes"),
    FaultSpec("app-hang", Category.FRONT_END, "app", "app_hang",
              "application hangs: alive in ps, serving nothing"),
    FaultSpec("config-corruption", Category.HUMAN, "app",
              "config_corruption",
              "operator edits startup parameters; app down until restored"),
    FaultSpec("data-corruption", Category.COMPLETELY_DOWN, "app",
              "data_corruption", "corrupt files; needs a restore"),
    FaultSpec("wrong-kill", Category.HUMAN, "app", "wrong_process_killed",
              "operator pkills the wrong worker process"),
    FaultSpec("runaway-process", Category.PERFORMANCE, "host",
              "runaway_process", "a user process eats a CPU"),
    FaultSpec("memory-leak", Category.PERFORMANCE, "host", "memory_leak",
              "a process bloats until the pager thrashes"),
    FaultSpec("disk-fill", Category.PERFORMANCE, "host", "disk_fill",
              "a filesystem fills"),
    FaultSpec("lan-fail", Category.FIREWALL_NETWORK, "lan", "lan_failure",
              "a shared network segment goes down"),
    FaultSpec("nic-fail", Category.FIREWALL_NETWORK, "host", "nic_failure",
              "one interface fails"),
    FaultSpec("dns-fail", Category.FIREWALL_NETWORK, "nameservice",
              "nameservice_failure", "the name service stops resolving"),
    FaultSpec("hw-fail", Category.HARDWARE, "host", "component_failure",
              "a hardware component fails (may be fatal for the host)"),
    FaultSpec("cron-death", Category.COMPLETELY_DOWN, "host", "cron_death",
              "crond dies: every agent on the host stops waking"),
    FaultSpec("lsf-crash", Category.LSF, "scheduler", "lsf_crash",
              "the batch scheduler master crashes"),
    FaultSpec("wan-partition", Category.FIREWALL_NETWORK, "wan",
              "wan_partition",
              "every leased line to one federated site drops"),
)

_CATALOG_BY_KIND: Dict[str, FaultSpec] = {s.kind: s for s in FAULT_CATALOG}


class FaultInjector(Persistent):
    """Breaks things on purpose."""

    #: the injection history plus the not-yet-fired arrival tail
    _persist = (
        rows("injected",
             lambda row: FaultEvent(Category(row[0]), *row[1:]),
             lambda e: [e.category.value, e.kind, e.time, e.target,
                        e.fault_id, e.detected_at, e.repaired_at,
                        e.auto_repaired, e.prevented]),
        pendings("arrivals", "_arrivals", "_fire_random", Category,
                 attrgetter("value")))

    def __init__(self, dc, rng):
        self.dc = dc
        self.sim = dc.sim
        self.rng = rng
        self.injected: List[FaultEvent] = []
        #: pending Poisson arrivals as (event, category), retained so a
        #: checkpoint can re-arm the not-yet-fired tail of a campaign
        self._arrivals: List[Tuple[object, Category]] = []

    # -- overlap validation ------------------------------------------------------

    #: app states still in service as far as a *new* fault is concerned
    _INJECTABLE = (AppState.RUNNING, AppState.DEGRADED, AppState.STARTING)

    def _require(self, ok: bool, kind: str, target: str, why: str) -> None:
        if not ok:
            raise OverlappingFaultError(kind, target, why)

    def _require_app_up(self, app, kind: str) -> None:
        target = f"{app.host.name}/{app.name}"
        self._require(app.host.is_up, kind, target, "its host is down")
        self._require(app.state in self._INJECTABLE, kind, target,
                      f"already out of service ({app.state.value})")

    def _require_host_up(self, host, kind: str) -> None:
        self._require(host.is_up, kind, host.name, "host is down")

    # -- catalog dispatch --------------------------------------------------------

    def inject(self, kind: str, target, **params) -> FaultEvent:
        """Apply the catalog fault ``kind`` to a resolved ``target``.

        ``target`` must match the spec's target kind (a Database, an
        app, a Host, a Lan, the NameService or the LSF master).  This
        is the generic entry the scenario DSL dispatches through.
        """
        spec = _CATALOG_BY_KIND.get(kind)
        if spec is None:
            raise ValueError(f"unknown fault kind {kind!r}; "
                             f"see FAULT_CATALOG")
        return getattr(self, spec.method)(target, **params)

    def _record(self, category: Category, kind: str,
                target: str) -> FaultEvent:
        ev = FaultEvent(category, kind, self.sim.now, target)
        tracer = self.sim.tracer
        if tracer.enabled:
            # thread a fault id through the whole incident: agents that
            # later find/diagnose/heal this target stamp the same id on
            # their spans, making the fault one correlated trace tree
            ev.fault_id = tracer.new_fault_id()
            tracer.correlate(target, ev.fault_id)
            tracer.instant("fault.inject", fault_id=ev.fault_id,
                           kind=kind, category=category.value,
                           target=target)
            tracer.metrics.counter("faults.injected").inc()
        self.injected.append(ev)
        return ev

    # -- application faults ------------------------------------------------------

    def db_crash(self, db: Database) -> FaultEvent:
        """The headline fault: a database dies mid-whatever."""
        self._require_app_up(db, "db-crash")
        db.crash("injected: internal error ORA-00600")
        return self._record(Category.MID_CRASH, "db-crash",
                            f"{db.host.name}/{db.name}")

    def app_crash(self, app, category: Category = Category.FRONT_END) -> FaultEvent:
        self._require_app_up(app, "app-crash")
        app.crash("injected: segmentation fault")
        return self._record(category, "app-crash",
                            f"{app.host.name}/{app.name}")

    def app_hang(self, app, category: Category = Category.FRONT_END) -> FaultEvent:
        """The latent error: still in ps, serving nothing."""
        self._require_app_up(app, "app-hang")
        app.hang("injected: mutex deadlock")
        return self._record(category, "app-hang",
                            f"{app.host.name}/{app.name}")

    def config_corruption(self, app) -> FaultEvent:
        """Human error: someone edited the config; the app dies and
        will not come back until the configuration is restored."""
        self._require_app_up(app, "config-corruption")
        self._require(app.config_ok, "config-corruption",
                      f"{app.host.name}/{app.name}",
                      "config already corrupted")
        app.config_ok = False
        app.crash("injected: operator changed startup parameters")
        return self._record(Category.HUMAN, "config-corruption",
                            f"{app.host.name}/{app.name}")

    def data_corruption(self, app) -> FaultEvent:
        """Completely-down class: corrupt files; needs a restore."""
        self._require_app_up(app, "data-corruption")
        self._require(app.data_ok, "data-corruption",
                      f"{app.host.name}/{app.name}",
                      "data already corrupted")
        app.data_ok = False
        app.crash("injected: block corruption detected")
        return self._record(Category.COMPLETELY_DOWN, "data-corruption",
                            f"{app.host.name}/{app.name}")

    def wrong_process_killed(self, app) -> FaultEvent:
        """Human error flavour two: an operator pkill'd the wrong thing."""
        self._require_app_up(app, "wrong-kill")
        if app.procs:
            victim = app.procs[int(self.rng.integers(len(app.procs)))]
            app.host.ptable.kill(victim.pid)
            try:
                app.procs.remove(victim)
            except ValueError:
                pass
        app.degrade("missing worker process")
        return self._record(Category.HUMAN, "wrong-kill",
                            f"{app.host.name}/{app.name}")

    # -- performance faults ------------------------------------------------------------

    def runaway_process(self, host) -> FaultEvent:
        """A user process eats a CPU."""
        self._require_host_up(host, "runaway-process")
        user = f"user{int(self.rng.integers(10)):02d}"
        host.ptable.spawn(user, "runaway.sh", cpu_pct=95.0, mem_mb=8.0,
                          now=self.sim.now)
        return self._record(Category.PERFORMANCE, "runaway-process",
                            host.name)

    def memory_leak(self, host, mb: float = 0.0) -> FaultEvent:
        """A process bloats until the pager thrashes (it grabs nearly
        all the currently free memory, whatever else is running)."""
        self._require_host_up(host, "memory-leak")
        size = mb or host.memory_free_mb() * 0.99
        host.ptable.spawn("appuser", "leaky_daemon", cpu_pct=5.0,
                          mem_mb=size, now=self.sim.now)
        return self._record(Category.PERFORMANCE, "memory-leak", host.name)

    def disk_fill(self, host, mount: str = "/logs",
                  fraction: float = 0.99) -> FaultEvent:
        self._require_host_up(host, "disk-fill")
        m = host.fs.mounts.get(mount)
        self._require(m is not None and
                      m.used_bytes < int(m.capacity_bytes * fraction),
                      "disk-fill", f"{host.name}:{mount}",
                      "mount missing or already filled")
        host.fs.fill(mount, fraction)
        return self._record(Category.PERFORMANCE, "disk-fill",
                            f"{host.name}:{mount}")

    # -- network faults ---------------------------------------------------------------------

    def lan_failure(self, lan) -> FaultEvent:
        self._require(lan.up, "lan-fail", lan.name, "LAN already down")
        lan.fail()
        return self._record(Category.FIREWALL_NETWORK, "lan-fail", lan.name)

    def nic_failure(self, host, ifname: Optional[str] = None) -> FaultEvent:
        names = sorted(n for n, nic in host.nics.items() if nic.ok)
        if not names and ifname is None:
            raise ValueError(f"{host.name} has no working NICs")
        if ifname is None:
            ifname = names[int(self.rng.integers(len(names)))]
        else:
            nic = host.nics.get(ifname)
            self._require(nic is not None and nic.ok, "nic-fail",
                          f"{host.name}:{ifname}",
                          "interface missing or already failed")
        host.nics[ifname].fail()
        return self._record(Category.FIREWALL_NETWORK, "nic-fail",
                            f"{host.name}:{ifname}")

    def nameservice_failure(self, ns) -> FaultEvent:
        self._require(ns.up, "dns-fail", "dns",
                      "name service already down")
        ns.fail()
        return self._record(Category.FIREWALL_NETWORK, "dns-fail", "dns")

    def wan_partition(self, target) -> FaultEvent:
        """Drop every leased line touching one federated site.

        ``target`` is a ``(wan, site_name)`` pair -- the WAN belongs to
        the federation, not to any single site's datacentre, so the
        executor resolves it separately from the site pools.
        """
        wan, site = target
        links = [l for l in wan.links_of(site) if l.reachable()]
        self._require(bool(links), "wan-partition", f"wan:{site}",
                      "site already fully partitioned")
        wan.partition_site(site)
        return self._record(Category.FIREWALL_NETWORK, "wan-partition",
                            f"wan:{site}")

    # -- hardware faults -----------------------------------------------------------------------

    def component_failure(self, host,
                          kind: Optional[ComponentKind] = None) -> FaultEvent:
        comps = (host.inventory.of_kind(kind) if kind
                 else host.inventory.components)
        live = [c for c in comps if c.state is not ComponentState.FAILED]
        if not live:
            raise ValueError(f"{host.name}: nothing left to fail")
        comp = live[int(self.rng.integers(len(live)))]
        comp.fail(self.sim.now)
        host.log_error("kernel", f"hardware fault: {comp.name}")
        if host.inventory.fatal():
            host.crash(f"fatal hardware: {comp.name}")
        return self._record(Category.HARDWARE, f"hw-{comp.kind.value}",
                            f"{host.name}:{comp.name}")

    # -- infrastructure faults ---------------------------------------------------------------------

    def cron_death(self, host) -> FaultEvent:
        """crond dies: every agent on the host stops waking.  Only the
        administration servers' flag watchdog can notice."""
        self._require_host_up(host, "cron-death")
        self._require(host.crond.running, "cron-death", host.name,
                      "crond already dead")
        host.crond.kill()
        host.ptable.kill_command("crond")
        return self._record(Category.COMPLETELY_DOWN, "cron-death",
                            host.name)

    def lsf_crash(self, master) -> FaultEvent:
        self._require_app_up(master, "lsf-crash")
        master.crash("injected: mbatchd assertion failure")
        return self._record(Category.LSF, "lsf-crash", master.host.name)

    # -- category dispatcher ----------------------------------------------------------------------------

    def random_fault(self, category: Category) -> Optional[FaultEvent]:
        """Inject a random concrete fault of the given category against
        a random suitable target; None when no target qualifies."""
        pick = self._pick
        if category is Category.MID_CRASH:
            db = pick(self._databases(running=True))
            return self.db_crash(db) if db else None
        if category is Category.FRONT_END:
            apps = [a for a in self._apps("frontend") + self._apps("webserver")
                    if a.is_running()]
            app = pick(apps)
            if app is None:
                return None
            if self.rng.random() < 0.3:
                return self.app_hang(app)
            return self.app_crash(app)
        if category is Category.HUMAN:
            apps = [a for a in self._all_apps() if a.is_running()]
            app = pick(apps)
            if app is None:
                return None
            if self.rng.random() < 0.5:
                return self.config_corruption(app)
            return self.wrong_process_killed(app)
        if category is Category.PERFORMANCE:
            host = pick(self._managed_hosts())
            if host is None:
                return None
            r = self.rng.random()
            if r < 0.4:
                return self.runaway_process(host)
            if r < 0.7:
                return self.memory_leak(host)
            return self.disk_fill(host)
        if category is Category.LSF:
            masters = [a for a in self._all_apps()
                       if a.app_type == "scheduler" and a.is_running()]
            master = pick(masters)
            return self.lsf_crash(master) if master else None
        if category is Category.FIREWALL_NETWORK:
            lans = [l for l in self.dc.lans.values() if l.up]
            if lans and self.rng.random() < 0.4:
                return self.lan_failure(pick(lans))
            host = pick(self._managed_hosts())
            return self.nic_failure(host) if host else None
        if category is Category.HARDWARE:
            host = pick(self._managed_hosts())
            return self.component_failure(host) if host else None
        if category is Category.COMPLETELY_DOWN:
            apps = [a for a in self._all_apps() if a.is_running()]
            app = pick(apps)
            return self.data_corruption(app) if app else None
        raise ValueError(f"unknown category {category!r}")

    # -- stochastic campaigns (full fidelity) -----------------------------------

    def schedule_poisson(self, rates_per_day: Dict[Category, float],
                         horizon: float) -> int:
        """Schedule Poisson fault arrivals against the live datacentre.

        ``rates_per_day`` gives the expected faults per simulated day
        per category.  Concrete targets are chosen at *fire time* (a
        fault scheduled for a host that meanwhile died simply fizzles,
        like real lightning striking a hole).  Returns the number of
        arrivals scheduled.  Used by the full-fidelity soak tests; the
        year-scale Fig. 2 campaign uses the fast path instead.
        """
        scheduled = 0
        for category, rate in rates_per_day.items():
            lam = rate * horizon / 86400.0
            n = int(self.rng.poisson(lam))
            for t in self.rng.uniform(0.0, horizon, size=n):
                ev = self.sim.schedule(float(t), self._fire_random,
                                       category)
                self._arrivals.append((ev, category))
                scheduled += 1
        return scheduled

    def _fire_random(self, category: Category) -> None:
        try:
            self.random_fault(category)
        except ValueError:
            pass        # no eligible target right now: the fault fizzles

    # -- helpers -----------------------------------------------------------------

    def _pick(self, seq):
        seq = list(seq)
        if not seq:
            return None
        return seq[int(self.rng.integers(len(seq)))]

    def _managed_hosts(self):
        """Up managed hosts: external ones are not fault targets."""
        return [h for h in self.dc.managed_hosts() if h.is_up]

    def _all_apps(self) -> List:
        return [a for h in self.dc.hosts.values() for a in h.apps.values()]

    def _apps(self, app_type: str) -> List:
        return [a for a in self._all_apps() if a.app_type == app_type]

    def _databases(self, running: bool = False) -> List[Database]:
        dbs = [a for a in self._all_apps() if isinstance(a, Database)]
        if running:
            dbs = [d for d in dbs if d.state is AppState.RUNNING]
        return dbs
