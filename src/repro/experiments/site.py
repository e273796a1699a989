"""The pilot site (§4).

"Servers included SUN, HP, IBM and linux machines ... 100 database
servers, a mixture of Oracle and Sybase databases, running on Sun
Enterprise Series 4500, and E10Ks.  55 transaction processing servers a
mixture of E10Ks, Ultra 10s, linux, E450s, E220Rs HP K and T series and
60 front-end application IBM SP2 servers ... The network was 100 Base/T
ethernet for all servers."

:func:`build_site` assembles that datacentre (scaled down on request
for tests) with two public LANs, the private agent network, the admin
pair + NFS pool, LSF, the overnight workload and -- optionally -- the
complete intelliagent deployment -- every world there is, from
:class:`HostRow` lists (:func:`site_hosts` gives the paper's).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.apps.database import Database
from repro.apps.distributed import DistributedService
from repro.apps.frontend import FrontendApp
from repro.apps.webserver import WebServer
from repro.batch.lsf import LsfCluster, LsfMaster
from repro.batch.workload import OvernightWorkload
from repro.cluster.datacenter import Datacenter
from repro.controlplane import ConditionLedger
from repro.core.admin import AdministrationServers
from repro.core.jobmgr import JobManager
from repro.core.suite import AgentSuite
from repro.net.nameservice import NameService
from repro.net.network import Lan
from repro.net.nfs import SharedPool
from repro.net.routing import AgentChannel
from repro.ops.notifications import NotificationChannel
from repro.sim import RandomStreams, Simulator

__all__ = ["SiteConfig", "HostRow", "Site", "site_hosts", "build_site"]

#: database host models, weighted like the paper's description
_DB_MODELS = ("sun-e4500", "sun-e4500", "sun-e10k")
_TP_MODELS = ("sun-e10k", "sun-ultra10", "linux-x86", "sun-e450",
              "sun-e220r", "hp-kclass", "hp-tclass")
_FE_MODEL = "ibm-sp2"
#: a host's LANs in NIC order, by its primary public LAN
_LANS = (("public0", "public1", "agentnet"),
         ("public1", "public0", "agentnet"))
_APP_KINDS = {"db": Database, "web": WebServer, "fe": FrontendApp}


@dataclass
class SiteConfig:
    """Scale and behaviour knobs."""

    db_servers: int = 100
    tp_servers: int = 55
    fe_servers: int = 60
    #: warm standbys registered with the relocation tier (idle app
    #: slots per user-facing tier, templated, cold-startable)
    spare_servers: int = 0
    agents: bool = True
    #: wake scheduling: "adaptive" (default: healthy agents back their
    #: period off toward ``WakePolicy.max_period``, triggers snap them
    #: back) or "fixed" (the pre-adaptive grid, the A/B baseline)
    wake_policy: str = "adaptive"
    jobs_per_night: int = 40
    with_workload: bool = True
    #: probability a well-placed job crashes its database (the hazard
    #: multiplies steeply with overload; see Database.crash_hazard_multiplier)
    crash_coupling: float = 0.012
    #: deploy the observability tier (telemetry hub + alert manager);
    #: off by default -- it subscribes to the ledger and schedules a
    #: rollup tick, which the parity/determinism experiments must not
    #: see
    observe: bool = False
    #: the site's name in a federation (DGSPL entries, WAN addressing,
    #: cross-site escalation); the default keeps the paper's single site
    site_name: str = "london"
    seed: int = 0

    @classmethod
    def test_scale(cls, **kw) -> "SiteConfig":
        """A small site for tests and full-fidelity experiments."""
        defaults = dict(db_servers=4, tp_servers=2, fe_servers=2,
                        jobs_per_night=8)
        defaults.update(kw)
        return cls(**defaults)


@dataclass(frozen=True)
class HostRow:
    """One server of the inventory (the ISSL's "very basic information
    about each server", §3.1).  Its LANs are in NIC order; an app is
    ``(kind, name, kwargs)``, kind ``db``/``web``/``fe``, whose
    ``backend`` kwarg names a database."""

    name: str
    model: str
    group: str
    lans: Tuple[str, ...]
    apps: Tuple[Tuple[str, str, dict], ...] = ()
    boot_duration: float = 300.0


@dataclass
class Site:
    """Handles to everything the experiments poke at."""

    sim: Simulator
    streams: RandomStreams
    config: SiteConfig
    #: the rows the world was built from
    hosts: Tuple[HostRow, ...]
    dc: Datacenter
    notifications: NotificationChannel
    channel: AgentChannel
    nameservice: NameService
    pool: SharedPool
    databases: List[Database]
    frontends: List[FrontendApp]
    webservers: List[WebServer]
    #: None in a world with neither a TP nor an admin host
    lsf: Optional[LsfCluster]
    lsf_master: Optional[LsfMaster]
    workload: Optional[OvernightWorkload]
    services: List[DistributedService]
    admin: Optional[AdministrationServers] = None
    jobmgr: Optional[JobManager] = None
    suites: Dict[str, AgentSuite] = field(default_factory=dict)
    #: relocation tier (only when spare_servers > 0 and agents on)
    spares: Optional[object] = None
    relocator: Optional[object] = None
    reroute: Optional[object] = None
    #: the site condition ledger (deployed with the agents)
    ledger: Optional[object] = None
    #: observability tier (config.observe): the telemetry hub and the
    #: alert manager riding its rollups
    telemetry: Optional[object] = None
    alerts: Optional[object] = None

    def run(self, seconds: float) -> None:
        self.sim.run(until=self.sim.now + seconds)

    def suite_for(self, host_name: str) -> AgentSuite:
        return self.suites[host_name]


def site_hosts(config: SiteConfig) -> Iterator[HostRow]:
    """Figure 1: every host on one or more public LANs plus the private
    agent network.  (Both public LANs here, so application traffic
    survives a single-LAN failure -- but never rides the agent
    network.)"""
    dbs: List[str] = []
    for i in range(config.db_servers):
        model = _DB_MODELS[i % len(_DB_MODELS)]
        db_type = "oracle" if i % 5 < 3 else "sybase"
        dbs.append(f"{db_type}_db{i:03d}")
        slots = 6 if model == "sun-e10k" else 4
        yield HostRow(f"db{i:03d}", model, "db", _LANS[i % 2], (
            ("db", dbs[-1], {"db_type": db_type, "max_job_slots": slots}),))

    def backend(i: int) -> dict:
        return {"backend": dbs[i % len(dbs)]} if dbs else {}

    for i in range(config.tp_servers):
        yield HostRow(f"tp{i:03d}", _TP_MODELS[i % len(_TP_MODELS)], "tp",
                      _LANS[i % 2])
    for i in range(config.fe_servers):
        yield HostRow(f"fe{i:03d}", _FE_MODEL, "frontend", _LANS[i % 2], (
            ("web", f"httpd_fe{i:03d}", {}),
            ("fe", f"finapp_fe{i:03d}", backend(i))))
    # spare servers: powerful boxes with one idle slot per tier, so any
    # relocatable service has somewhere templated to land
    cold = {"auto_start": False}
    for i in range(config.spare_servers):
        yield HostRow(f"sp{i:03d}", "sun-e10k", "spare", _LANS[i % 2], (
            ("db", f"oracle_sp{i:03d}", {"db_type": "oracle", **cold}),
            ("db", f"sybase_sp{i:03d}", {"db_type": "sybase", **cold}),
            ("web", f"httpd_sp{i:03d}", cold),
            ("fe", f"finapp_sp{i:03d}", {**backend(i), **cold})))
    # admin pair + the external market-data gateway
    for name in ("adm01", "adm02"):
        yield HostRow(name, "admin-server", "admin", _LANS[0],
                      boot_duration=180.0)
    yield HostRow("reuters-gw", "linux-x86", "external", _LANS[0])


def build_site(config: Optional[SiteConfig] = None,
               hosts: Optional[Iterable[HostRow]] = None) -> Site:
    """The world of ``hosts`` (by default ``site_hosts(config)``)."""
    config = config or SiteConfig()
    hosts = tuple(site_hosts(config) if hosts is None else hosts)
    sim = Simulator()
    streams = RandomStreams(config.seed)
    dc = Datacenter(sim)

    # -- networks (figure 1) -------------------------------------------------
    dc.add_lan(Lan(sim, "public0", kind="public", subnet="192.168.1"))
    dc.add_lan(Lan(sim, "public1", kind="public", subnet="192.168.2"))
    dc.add_lan(Lan(sim, "agentnet", kind="private", subnet="10.0.0"))
    nameservice = NameService(sim)
    notifications = NotificationChannel(sim)

    # -- hosts -----------------------------------------------------------------
    apps: Dict[str, object] = {}
    for row in hosts:
        host = dc.add_host(row.name, row.model, group=row.group,
                           site=config.site_name,
                           boot_duration=row.boot_duration)
        for lan in row.lans:
            dc.connect(host.name, lan)
        nameservice.register_host(host)
        for kind, name, kw in row.apps:
            if "backend" in kw:
                kw = {**kw, "backend": apps[kw["backend"]]}
            apps[name] = _APP_KINDS[kind](host, name, **kw)

    # -- tiers, by group ---------------------------------------------------
    databases, webservers, frontends = (
        [app for host in dc.group(group) for app in host.apps.values()
         if isinstance(app, kind)] for group, kind in (
            ("db", Database), ("frontend", WebServer),
            ("frontend", FrontendApp)))
    channel = AgentChannel(dc, "agentnet", ["public0", "public1"])
    pool = SharedPool(sim)

    # -- LSF on the first TP host, else the first admin host ------------------
    lsf = lsf_master = None
    lsf_host = next(iter(dc.group("tp") + dc.group("admin")), None)
    if lsf_host is not None:
        lsf_master = LsfMaster(lsf_host)
        lsf = LsfCluster(dc, lsf_master,
                         rng=streams.get("site.lsf"),
                         base_crash_prob=config.crash_coupling)
        for db in databases:
            lsf.register_server(db)

    # -- distributed services ------------------------------------------------------
    services: List[DistributedService] = []
    for i, fe in enumerate(frontends[: max(1, len(frontends) // 4)]):
        svc = DistributedService(dc, f"analytics{i}")
        if fe.backend is not None:
            svc.add_component("db", fe.backend, [])
            svc.add_component("web", webservers[i], ["db"])
            svc.add_component("gui", fe, ["web", "db"])
        else:
            svc.add_component("gui", fe, [])
        services.append(svc)

    # -- workload -----------------------------------------------------------
    workload = None
    if config.with_workload:
        workload = OvernightWorkload(
            lsf, streams.get("site.workload"),
            jobs_per_night=config.jobs_per_night)

    site = Site(sim=sim, streams=streams, config=config, hosts=hosts, dc=dc,
                notifications=notifications, channel=channel,
                nameservice=nameservice, pool=pool, databases=databases,
                frontends=frontends, webservers=webservers, lsf=lsf,
                lsf_master=lsf_master, workload=workload, services=services)

    # -- start applications (rc scripts) ---------------------------------------------
    for host in dc.all_hosts():
        for app in host.apps.values():
            if app.auto_start:      # idle spare slots stay cold
                app.start()
    # no admin pair: wake accounting and trigger dispatch are host-local,
    # and bare suites run from t=0
    if config.agents and not dc.group("admin"):
        site.suites = {h.name: AgentSuite(h, wake_policy=config.wake_policy)
                       for h in dc.managed_hosts()}
    # let everything reach RUNNING before agents capture their SLKTs
    sim.run(until=sim.now + 400.0)

    if config.agents and dc.group("admin"):
        _deploy_agents(site)
    if config.observe:
        _deploy_observability(site)
    if workload is not None:
        workload.start()
    return site


def _deploy_agents(site: Site) -> None:
    """Install the intelliagent stack: admin pair, suites, job manager."""
    dc = site.dc
    ledger = site.ledger = ConditionLedger()
    adm1, adm2 = dc.group("admin")
    admin = AdministrationServers(
        dc, adm1, adm2, site.pool,
        channel=site.channel, notifications=site.notifications,
        ledger=ledger)
    admin.site_name = site.config.site_name
    site.admin = admin
    admin_targets = (adm1.name, adm2.name)     # one tuple every agent shares
    # every datacentre server gets the agent complement -- including
    # the coordinators themselves (who else watches the watchers'
    # disks?).  Only the external market-data gateway is unmanaged.
    for host in dc.managed_hosts():
        suite = AgentSuite(host, channel=site.channel,
                           admin_targets=admin_targets,
                           notifications=site.notifications,
                           nameservice=site.nameservice,
                           deliver_dlsp=admin.receive_dlsp,
                           ledger=ledger,
                           wake_policy=site.config.wake_policy)
        site.suites[host.name] = suite
        admin.register_suite(suite)
    for svc in site.services:
        admin.register_service(svc)
    site.jobmgr = JobManager(admin, site.lsf,
                             notifications=site.notifications)

    spare_hosts = dc.group("spare")
    if spare_hosts:
        from repro.relocate import (PlacementPlanner, RerouteDirectory,
                                    ServiceRelocator, SparePool)
        spares = SparePool(dc)
        for host in spare_hosts:
            spares.register(host)
        reroute = RerouteDirectory(site.nameservice, ledger=ledger)
        planner = PlacementPlanner(dc, spares, admin.current_dgspl)
        relocator = ServiceRelocator(dc, planner, spares, reroute=reroute,
                                     page_cb=admin._page_human)
        admin.relocator = relocator
        site.spares, site.relocator, site.reroute = spares, relocator, reroute


def _deploy_observability(site: Site) -> None:
    """Install the telemetry hub + alert manager (config.observe).

    The hub rides the condition ledger (when one exists); traffic SLIs
    join later -- experiments that attach an engine call
    ``site.telemetry.attach_slis(engine.slis)``.
    """
    from repro.observe import AlertManager, TelemetryHub
    hub = TelemetryHub(site.sim)
    if site.ledger is not None:
        hub.attach_ledger(site.ledger)
    manager = AlertManager(site.sim, hub, channel=site.notifications)
    if site.ledger is not None:
        manager.attach_ledger(site.ledger)
    hub.start()
    site.telemetry = hub
    site.alerts = manager
