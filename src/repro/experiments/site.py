"""The pilot site (§4).

"Servers included SUN, HP, IBM and linux machines ... 100 database
servers, a mixture of Oracle and Sybase databases, running on Sun
Enterprise Series 4500, and E10Ks.  55 transaction processing servers a
mixture of E10Ks, Ultra 10s, linux, E450s, E220Rs HP K and T series and
60 front-end application IBM SP2 servers ... The network was 100 Base/T
ethernet for all servers."

:func:`build_site` assembles that datacentre (scaled down on request
for tests) with two public LANs, the private agent network, the admin
pair + NFS pool, LSF, the overnight workload, market feeds and --
optionally -- the complete intelliagent deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.database import Database
from repro.apps.distributed import DistributedService
from repro.apps.frontend import FrontendApp
from repro.apps.marketfeed import MarketFeed
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

__all__ = ["SiteConfig", "Site", "build_site"]

#: database host models, weighted like the paper's description
_DB_MODELS = ("sun-e4500", "sun-e4500", "sun-e10k")
_TP_MODELS = ("sun-e10k", "sun-ultra10", "linux-x86", "sun-e450",
              "sun-e220r", "hp-kclass", "hp-tclass")
_FE_MODEL = "ibm-sp2"


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
    agent_period: float = 300.0
    #: wake scheduling: "adaptive" (default: healthy agents back their
    #: period off toward ``wake_max_period``, triggers snap them back)
    #: or "fixed" (the pre-adaptive grid, the A/B baseline)
    wake_policy: str = "adaptive"
    wake_max_period: float = 1800.0
    jobs_per_night: int = 40
    manual_targeting: bool = True
    with_workload: bool = True
    with_feeds: bool = True
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


@dataclass
class Site:
    """Handles to everything the experiments poke at."""

    sim: Simulator
    streams: RandomStreams
    config: SiteConfig
    dc: Datacenter
    notifications: NotificationChannel
    channel: AgentChannel
    nameservice: NameService
    pool: SharedPool
    databases: List[Database]
    frontends: List[FrontendApp]
    webservers: List[WebServer]
    lsf: LsfCluster
    lsf_master: LsfMaster
    workload: Optional[OvernightWorkload]
    feeds: List[MarketFeed]
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


def build_site(config: Optional[SiteConfig] = None) -> Site:
    config = config or SiteConfig()
    sim = Simulator()
    streams = RandomStreams(config.seed)
    rng = streams.get("site.build")
    dc = Datacenter(sim, streams, "financial-dc")

    # -- networks (figure 1) -------------------------------------------------
    dc.add_lan(Lan(sim, "public0", kind="public", subnet="192.168.1"))
    dc.add_lan(Lan(sim, "public1", kind="public", subnet="192.168.2"))
    dc.add_lan(Lan(sim, "agentnet", kind="private", subnet="10.0.0"))
    nameservice = NameService(sim)
    notifications = NotificationChannel(sim)

    def wire(host, primary_lan: str) -> None:
        """Figure 1: every host on one or more public LANs plus the
        private agent network.  (Both public LANs here, so application
        traffic survives a single-LAN failure -- but never rides the
        agent network.)"""
        dc.connect(host.name, primary_lan)
        other = "public1" if primary_lan == "public0" else "public0"
        dc.connect(host.name, other)
        dc.connect(host.name, "agentnet")
        nameservice.register_host(host)

    # -- hosts -----------------------------------------------------------------
    databases: List[Database] = []
    for i in range(config.db_servers):
        model = _DB_MODELS[i % len(_DB_MODELS)]
        host = dc.add_host(f"db{i:03d}", model, group="db",
                           site=config.site_name)
        wire(host, "public0" if i % 2 == 0 else "public1")
        db_type = "oracle" if i % 5 < 3 else "sybase"
        slots = 6 if model == "sun-e10k" else 4
        db = Database(host, f"{db_type}_{host.name}", db_type=db_type,
                      max_job_slots=slots)
        databases.append(db)

    tp_hosts = []
    for i in range(config.tp_servers):
        model = _TP_MODELS[i % len(_TP_MODELS)]
        host = dc.add_host(f"tp{i:03d}", model, group="tp",
                           site=config.site_name)
        wire(host, "public0" if i % 2 == 0 else "public1")
        tp_hosts.append(host)

    webservers: List[WebServer] = []
    frontends: List[FrontendApp] = []
    for i in range(config.fe_servers):
        host = dc.add_host(f"fe{i:03d}", _FE_MODEL, group="frontend",
                           site=config.site_name)
        wire(host, "public0" if i % 2 == 0 else "public1")
        ws = WebServer(host, f"httpd_{host.name}")
        webservers.append(ws)
        backend = databases[i % len(databases)] if databases else None
        fe = FrontendApp(host, f"finapp_{host.name}", backend=backend)
        frontends.append(fe)

    # spare servers: powerful boxes with one idle slot per tier, so any
    # relocatable service has somewhere templated to land
    for i in range(config.spare_servers):
        host = dc.add_host(f"sp{i:03d}", "sun-e10k", group="spare",
                           site=config.site_name)
        wire(host, "public0" if i % 2 == 0 else "public1")
        Database(host, f"oracle_{host.name}", db_type="oracle",
                 auto_start=False)
        Database(host, f"sybase_{host.name}", db_type="sybase",
                 auto_start=False)
        WebServer(host, f"httpd_{host.name}", auto_start=False)
        FrontendApp(
            host, f"finapp_{host.name}",
            backend=databases[i % len(databases)] if databases else None,
            auto_start=False)

    # admin pair + the external feed source
    adm1 = dc.add_host("adm01", "admin-server", group="admin",
                       site=config.site_name, boot_duration=180.0)
    adm2 = dc.add_host("adm02", "admin-server", group="admin",
                       site=config.site_name, boot_duration=180.0)
    feed_src = dc.add_host("reuters-gw", "linux-x86", group="external",
                           site=config.site_name)
    for host in (adm1, adm2, feed_src):
        dc.connect(host.name, "public0")
        dc.connect(host.name, "public1")
        dc.connect(host.name, "agentnet")
        nameservice.register_host(host)

    channel = AgentChannel(dc, "agentnet", ["public0", "public1"])
    pool = SharedPool(sim)

    # -- LSF on the first TP host -----------------------------------------------
    lsf_host = tp_hosts[0] if tp_hosts else adm1
    lsf_master = LsfMaster(lsf_host)
    # format 3 checkpoints the stream the retired manual placement
    # policy drew from: it stays materialised until the next format
    streams.get("site.manual")
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

    # -- workload and feeds -----------------------------------------------------------
    workload = None
    if config.with_workload:
        workload = OvernightWorkload(
            lsf, streams.get("site.workload"),
            jobs_per_night=config.jobs_per_night,
            manual_targeting=config.manual_targeting)
    feeds: List[MarketFeed] = []
    if config.with_feeds and databases:
        feeds.append(MarketFeed(dc, "reuters", "reuters-gw",
                                databases[: min(8, len(databases))],
                                interval=120.0))

    site = Site(sim=sim, streams=streams, config=config, dc=dc,
                notifications=notifications, channel=channel,
                nameservice=nameservice, pool=pool, databases=databases,
                frontends=frontends, webservers=webservers, lsf=lsf,
                lsf_master=lsf_master, workload=workload, feeds=feeds,
                services=services)

    # -- start applications (rc scripts) ---------------------------------------------
    for host in dc.all_hosts():
        for app in host.apps.values():
            if app.auto_start:      # idle spare slots stay cold
                app.start()
    # let everything reach RUNNING before agents capture their SLKTs
    sim.run(until=sim.now + 400.0)

    if config.agents:
        _deploy_agents(site)
    if config.observe:
        _deploy_observability(site)
    if workload is not None:
        workload.start()
    for feed in feeds:
        feed.start()
    return site


def _deploy_agents(site: Site) -> None:
    """Install the intelliagent stack: admin pair, suites, job manager."""
    dc, sim = site.dc, site.sim
    ledger = site.ledger = ConditionLedger()
    admin = AdministrationServers(
        dc, dc.host("adm01"), dc.host("adm02"), site.pool,
        channel=site.channel, notifications=site.notifications,
        agent_period=site.config.agent_period, ledger=ledger)
    admin.site_name = site.config.site_name
    site.admin = admin
    admin_targets = ["adm01", "adm02"]
    for host in dc.all_hosts():
        # every datacentre server gets the agent complement -- including
        # the coordinators themselves (who else watches the watchers'
        # disks?).  Only the external feed gateway is unmanaged.
        if host.name == "reuters-gw":
            continue
        suite = AgentSuite(host, period=site.config.agent_period,
                           channel=site.channel,
                           admin_targets=admin_targets,
                           notifications=site.notifications,
                           nameservice=site.nameservice,
                           deliver_dlsp=admin.receive_dlsp,
                           ledger=ledger,
                           wake_policy=site.config.wake_policy,
                           wake_max_period=site.config.wake_max_period)
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
