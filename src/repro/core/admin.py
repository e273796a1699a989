"""Administration servers (§3.1.2).

"Dedicated administration servers that act as external agent
coordinators in a high-availability failover configuration and share a
common pool of NFS mounted disks, to avoid single points of failure."

Duties implemented here:

- **Flag watchdog** -- "Administration servers monitor the creation of
  these flags every X+5 minutes ... If these flags are not there, they
  start troubleshooting intelliagent processes."  A host whose agents
  stopped flagging gets its cron restarted remotely; a host that is
  down gets escalated to humans.
- **DLSP collection and DGSPL generation** -- profiles arrive from the
  status agents; "the administration servers generated dynamic global
  service profile lists per database type every 15 minutes on average",
  persisted to the shared NFS pool.
- **HA failover** -- both heads run the same cron jobs; only the active
  one (primary if up, else standby) acts.  State lives in the pool, so
  a failover loses nothing.

**One observation path.**  Both duties run incrementally over the site
condition ledger (:mod:`repro.controlplane`): flag raises, wake-interval
publications and DLSP arrivals append conditions; a sweep consumes only
conditions newer than its cursor, staleness comes from the deadline
wheel, and only *candidate* hosts (due, down, latched or unreachable)
are examined -- O(changes), not O(hosts x agents).  A sweep produces a
*plan*, an ordered list of (action, host, reason) decisions, each
appended to :attr:`decisions` as it is applied, so two runs of one
campaign compare byte for byte.  The paper-faithful full rescan is the
reference judge :class:`repro.chaos.oracles.ScanReference`, which the
chaos tier and the parity tests attach from outside.

**Lost conditions are a debt.**  A condition is delivered only while
its host can reach a live coordinator, and the ledger backlog is
bounded.  The pair remembers which hosts lost one (dropped in transit,
or trimmed past its cursor) and, on the first sweep that can reach them,
refreshes their model rows from the flag directories and live wake
periods.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.controlplane import ConditionLedger, DeadlineWheel
from repro.core.healing import apply_action
from repro.ontology.base import OntologyDoc
from repro.ontology.dgspl import Dgspl, GlobalServiceEntry, host_entries
from repro.ontology.dlsp import Dlsp
from repro.persist.core import (Persistent, pairs, part, record, rows,
                                scalar, scalars, sortedset, table, via)

__all__ = ["AdministrationServers"]

_NEG_INF = float("-inf")
_entry_from_row, _entry_row = record(GlobalServiceEntry)


class AdministrationServers(Persistent):
    """The coordinator pair."""

    DGSPL_PERIOD = 900.0        # 15 minutes
    #: "every 15 to 30 minutes we initiated a dummy process to run
    #: through all application components, simulating a user" (§3.6)
    SVC_PROBE_PERIOD = 1800.0

    #: the coordinator pair's whole evolving model.  Cron jobs are
    #: re-armed through each head's crond snapshot; the ledger and its
    #: cursors (including this object's two) snapshot with the ledger
    _persist = (
        via("registered_at", "_save_registered", "_load_registered"),
        pairs("intervals", float, attr="_intervals"),
        table("demand_woken", float, attr="_demand_woken"),
        scalar("demand_wakes", int),
        # -inf means "never flagged"; keep the snapshot strict-JSON
        pairs("latest_flags",
              lambda v: _NEG_INF if v is None else float(v),
              lambda v: None if v == _NEG_INF else v, "_latest_flags"),
        part("wheel", "_wheel"), sortedset("down_hosts", attr="_down_hosts"),
        table("suite_order", int, attr="_suite_order"),
        rows("decisions"), rows("decision_log", tuple, list),
        scalar("model_resyncs", int), scalar("wake_seen", int, "_wake_seen"),
        sortedset("dropped", attr="_dropped"),
        table("dgspl_cache",
              lambda saved: [_entry_from_row(row) for row in saved],
              lambda entries: [_entry_row(e) for e in entries],
              "_dgspl_cache"),
        via("dlsps", "_save_dlsps", "_load_dlsps"),
        via("dgspl", "_save_dgspl", "_load_dgspl"),
        *scalars(int, "dgspl_generations", "cron_repairs"),
        sortedset("hosts_escalated"),
        sortedset("recovered_since", attr="_recovered_since"),
        *scalars(int, "pool_write_failures", "failovers"),
        scalar("last_active", attr="_last_active"),
        sortedset("services_unhealthy"),
        *scalars(int, "service_probes", "service_probe_failures"))

    def __init__(self, dc, primary, standby, pool, *, channel,
                 notifications, agent_period: float = 300.0,
                 ledger: Optional[ConditionLedger] = None):
        self.dc = dc
        self.sim = dc.sim
        self.primary = primary
        self.standby = standby
        self.pool = pool
        self.channel = channel
        self.notifications = notifications
        #: optional relocation tier (repro.relocate.ServiceRelocator);
        #: sits between local healing and paging the on-call human
        self.relocator = None
        #: which federation site this admin pair administers (single-site
        #: worlds keep the default; the federation stamps its site name)
        self.site_name = "london"
        #: optional cross-site escalation hook wired by the federation:
        #: ``cb(host_name, reason) -> int`` tries to land the host's
        #: services at another site and returns how many relocations it
        #: started.  It is the tier between local relocation and paging.
        self.cross_site_cb = None
        self.agent_period = float(agent_period)
        #: "every X+5 minutes, where X is the frequency intelliagent run"
        self.watch_period = self.agent_period + 300.0
        #: slack added to an agent's *current* wake interval before its
        #: flags count as stale.  With fixed-period agents the staleness
        #: gap (interval + grace) equals ``watch_period`` exactly, which
        #: is the pre-adaptive contract; adaptive agents publish their
        #: interval through the ledger so backed-off hosts are not
        #: falsely judged quiet.
        self.flag_grace = 300.0
        #: published wake interval per (host, agent); absent means the
        #: configured base period
        self._intervals: Dict[Tuple[str, str], float] = {}
        #: hosts knocked with a demand wake, awaiting the verdict sweep
        self._demand_woken: Dict[str, float] = {}
        self.demand_wakes = 0

        self.ledger = ledger if ledger is not None else ConditionLedger()
        self._flag_cursor = self.ledger.subscribe("admin-watchdog")
        self._dlsp_cursor = self.ledger.subscribe("admin-dgspl")
        #: ledger version up to which wake-interval publications are in
        #: the model (see :meth:`_poll`)
        self._wake_seen = 0
        #: hosts that lost a condition -- dropped in transit (partition,
        #: no coordinator up) or trimmed past the watchdog cursor -- and
        #: whose model rows are stale until a sweep can reach them again
        self._dropped: set = set()
        #: the evolving model: freshest flag time per (host, agent)
        self._latest_flags: Dict[Tuple[str, str], float] = {}
        self._wheel = DeadlineWheel()
        self._down_hosts: set = set()
        #: canonical sweep order (suite registration order): decisions
        #: are emitted in this order so logs compare byte for byte
        self._suite_order: Dict[str, int] = {}
        #: applied-decision log: "t action host reason" per decision
        self.decisions: List[str] = []
        #: the same log as typed records (time, action, host, reason)
        #: for the incident-report joiner
        self.decision_log: List[Tuple[float, str, str, str]] = []
        self.model_resyncs = 0
        #: per-host cached DGSPL contributions
        self._dgspl_cache: Dict[str, list] = {}

        if pool is not None:
            pool.add_server(primary)
            pool.add_server(standby)

        #: monitored hosts -> their agent suites
        self.suites: Dict[str, object] = {}
        #: when each suite came under watch (warm-up grace)
        self._registered_at: Dict[str, float] = {}
        #: freshest DLSP per host
        self.dlsps: Dict[str, Dlsp] = {}
        self.dgspl: Optional[Dgspl] = None
        self.dgspl_generations = 0
        self.cron_repairs = 0
        self.hosts_escalated: set = set()
        #: escalated hosts that have come back up since their page; a
        #: further failure is a new incident, not the one already paged
        self._recovered_since: set = set()
        self.pool_write_failures = 0
        self.failovers = 0
        self._last_active: Optional[str] = None

        #: distributed services under end-to-end watch
        self.services: List[object] = []
        self.services_unhealthy: set = set()
        self.service_probes = 0
        self.service_probe_failures = 0

        for head in (primary, standby):
            head.crond.register("admin_watchdog", self.watch_period,
                                self._make_guarded(head, self._watchdog))
            head.crond.register("admin_dgspl", self.DGSPL_PERIOD,
                                self._make_guarded(head, self._build_dgspl))
            head.crond.register("admin_svcprobe", self.SVC_PROBE_PERIOD,
                                self._make_guarded(head,
                                                   self._probe_services))

    # -- HA -----------------------------------------------------------------------

    def active(self):
        """The coordinator currently in charge (primary unless down)."""
        head = (self.primary if self.primary.is_up
                else self.standby if self.standby.is_up else None)
        name = head.name if head is not None else None
        if name != self._last_active:
            if self._last_active is not None:
                self.failovers += 1
            self._last_active = name
        return head

    def _make_guarded(self, head, fn):
        def guarded():
            if self.active() is head:
                fn()
        return guarded

    # -- registration -----------------------------------------------------------------

    def register_suite(self, suite) -> None:
        host = suite.host
        self.suites[host.name] = suite
        self._suite_order[host.name] = len(self._suite_order)
        self._registered_at[host.name] = self.sim.now
        # bind the suite's flag stores to the ledger (idempotent if
        # the suite was already built with one) and bootstrap the
        # model from the flags already on disk
        for agent in suite.agents:
            agent.flags.bind(self.ledger, host.name, self._flag_reachable)
        self._resync_host(host.name)
        host.up_signal.subscribe(
            lambda _v, name=host.name: self._host_state(name, True))
        host.down_signal.subscribe(
            lambda reason, name=host.name:
            self._host_state(name, False, str(reason or "")))
        if not host.is_up:
            self._down_hosts.add(host.name)

    def _host_state(self, host_name: str, up: bool,
                    reason: str = "") -> None:
        if up:
            self._down_hosts.discard(host_name)
            # a boot re-arms the escalation latch, so a relapse pages
            # again even when the host flaps faster than the watchdog
            # can observe it green
            if host_name in self.hosts_escalated:
                self._recovered_since.add(host_name)
        else:
            self._down_hosts.add(host_name)
        self.ledger.append("host", host_name,
                           status="up" if up else "down",
                           time=self.sim.now, detail=reason)

    def _flag_reachable(self, host_name: str) -> bool:
        """The delivery leg of a flag or wake condition: can the host
        currently reach either coordinator?  A refusal means the caller
        drops its condition, so the host goes on the books as owed a
        model refresh."""
        for head in (self.primary, self.standby):
            if head.is_up and self.channel.reachable(host_name, head.name):
                return True
        self._dropped.add(host_name)
        return False

    def register_service(self, service) -> None:
        """Put a distributed service under dummy-user end-to-end watch."""
        self.services.append(service)

    def _probe_services(self) -> None:
        """The dummy user: walk every registered service end to end.
        Failures the local agents cannot see (network legs between
        components, cross-host dependency chains) surface here."""
        if self.active() is None:
            return
        tracer = self.sim.tracer
        probe_span = tracer.span("admin.service_probe",
                                 services=len(self.services))
        failures = 0
        for svc in self.services:
            self.service_probes += 1
            ok, ms, err = svc.end_to_end_probe()
            if ok:
                self.services_unhealthy.discard(svc.name)
                continue
            failures += 1
            self.service_probe_failures += 1
            if svc.name in self.services_unhealthy:
                continue        # already reported this outage
            self.services_unhealthy.add(svc.name)
            self.notifications.email(
                "administrators",
                f"service {svc.name} failing end-to-end: {err}",
                severity="critical", sender="admin-servers")
            self._log_pool(f"{self.sim.now:.0f} SERVICE-DOWN "
                           f"{svc.name}: {err}")
        probe_span.finish(failures=failures)
        if tracer.enabled:
            tracer.metrics.counter("admin.service_probes").inc(
                len(self.services))
            if failures:
                tracer.metrics.counter("admin.probe_failures").inc(failures)

    def receive_dlsp(self, dlsp: Dlsp) -> None:
        """Called (over the agent channel) by the status agents."""
        self.dlsps[dlsp.hostname] = dlsp
        self.ledger.append("dlsp", dlsp.hostname, time=dlsp.generated_at)
        head = self.active()
        if self.pool is not None and head is not None:
            try:
                self.pool.write(head, f"/dlsp/{dlsp.hostname}", dlsp.render())
            except Exception as exc:
                # pool outage: keep the in-memory copy, but observably
                self._pool_write_failed(head, f"dlsp/{dlsp.hostname}", exc)

    # -- the flag watchdog -----------------------------------------------------------------

    def _watchdog(self) -> None:
        head = self.active()
        if head is None:
            return
        now = self.sim.now
        tracer = self.sim.tracer
        sweep_span = tracer.span("admin.flag_sweep", head=head.name,
                                 hosts=len(self.suites))
        if tracer.enabled:
            tracer.metrics.counter("admin.flag_sweeps").inc()
        plan, examined = self._plan_sweep_ledger(now, head)
        stale_hosts = self._apply_sweep(now, plan)
        sweep_span.finish(stale_hosts=stale_hosts, examined=examined,
                          decisions=len(plan))

    def _judge_host(self, host_name: str, suite, now: float, head,
                    stale_of) -> Optional[tuple]:
        """The per-host decision.  ``stale_of(host, suite, now)`` names
        the agents whose flags are overdue from the caller's source of
        truth: the ledger model here, the flag directories for the
        chaos tier's reference rescan."""
        host = suite.host
        # warm-up: a freshly registered suite has not had a full grid
        # of wakes yet; judging it stale would be a false alarm
        registered = self._registered_at.get(host_name, 0.0)
        if now - registered < self.watch_period + self.agent_period:
            return None
        if not host.is_up:
            return ("escalate", host_name, "host is down")
        # reach the host over the agent network first
        d = self.channel.send(head.name, host_name, 256)
        if not d.ok:
            return ("escalate", host_name, f"unreachable: {d.error}")
        stale = stale_of(host, suite, now)
        if not stale:
            # flags green again: a latched host gets its escalation
            # latch cleared so the next failure is a new incident
            if (host_name in self.hosts_escalated
                    or host_name in self._recovered_since
                    or host_name in self._demand_woken):
                return ("clear", host_name, "")
            return None
        # "they start troubleshooting intelliagent processes": the
        # usual cause of *all* flags stopping is a dead cron
        if len(stale) == len(suite.agents) and not host.crond.running:
            return ("cron_repair", host_name, "")
        reason = f"agents not flagging: {', '.join(sorted(stale))}"
        # first offence gets a troubleshooting knock: demand-wake the
        # complement and give it one sweep to flag before escalating
        if host_name not in self._demand_woken:
            return ("demand_wake", host_name, reason)
        return ("escalate", host_name, reason)

    def _plan_sweep_ledger(self, now: float, head) -> tuple:
        """The incremental planner: consume new conditions, then
        examine only candidate hosts -- due on the deadline wheel,
        currently down, or still latched.  O(changes)."""
        conds, overrun = self._poll(self._flag_cursor)
        if overrun:
            # the ledger was trimmed past us, so deltas are gone: every
            # host is owed a refresh from ground truth
            self.model_resyncs += 1
            self._dropped.update(self.suites)
        for c in conds:
            if c.kind != "flag":
                continue
            key = (c.host, c.agent)
            if key not in self._latest_flags:
                continue        # agent not under watch
            if c.time > self._latest_flags[key]:
                self._latest_flags[key] = c.time
                self._wheel.set_deadline(key,
                                         c.time + self._ledger_gap(key))
        self._repay_dropped(head)
        candidates = {key[0] for key in self._wheel.due(now)}
        candidates |= self._down_hosts & self.suites.keys()
        candidates |= self.hosts_escalated
        candidates |= self._recovered_since
        candidates |= self._demand_woken.keys() & self.suites.keys()
        # the reachability leg: a host whose links all die emits no
        # condition (silence is not a delta), so the incremental model
        # alone cannot see it until the flag deadline fires -- under
        # deep adaptive-wake backoff that window is half an hour, where
        # a full rescan (which probes the channel on every host every
        # sweep) escalates immediately.  Probe liveness directly; the
        # probe is byte-free, and on a healthy site it adds no
        # candidates, keeping quiet sweeps at zero examined hosts.
        for host_name in self.suites:
            if host_name in candidates:
                continue
            host = self.dc.hosts.get(host_name)
            if (host is not None and host.is_up
                    and not self.channel.reachable(head.name, host_name)):
                candidates.add(host_name)
        order = self._suite_order
        plan = []
        for host_name in sorted(candidates,
                                key=lambda h: order.get(h, 1 << 30)):
            suite = self.suites.get(host_name)
            if suite is None:
                continue
            decision = self._judge_host(host_name, suite, now, head,
                                        self._model_stale)
            if decision is not None:
                plan.append(decision)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.metrics.counter("admin.conditions_consumed").inc(
                len(conds))
            tracer.metrics.counter("admin.sweep_candidates").inc(
                len(candidates))
        return plan, len(candidates)

    def _poll(self, cursor) -> tuple:
        """Drain ``cursor``.  Both cursors see every wake-interval
        publication; whichever polls first applies it, and the one that
        polls later must not replay it over a newer interval."""
        conds, overrun = cursor.poll()
        for c in conds:
            if c.kind == "wake" and c.version > self._wake_seen:
                self._note_wake_condition(c)
        self._wake_seen = cursor.last_seen
        return conds, overrun

    def _model_stale(self, host, suite, now: float) -> List[str]:
        """Agents overdue according to the ledger-fed model."""
        return [a.name for a in suite.agents
                if now - self._latest_flags.get((host.name, a.name),
                                                _NEG_INF)
                > self._ledger_gap((host.name, a.name))]

    def _ledger_gap(self, key: Tuple[str, str]) -> float:
        """Staleness gap from the published interval model."""
        return self._intervals.get(key, self.agent_period) + self.flag_grace

    def _note_wake_condition(self, c) -> None:
        """An agent published its wake interval: widen (or narrow) that
        agent's staleness gap and re-set its deadline accordingly."""
        if c.status != "interval":
            return              # "demand" markers are audit-only
        key = (c.host, c.agent)
        if key not in self._latest_flags:
            return              # agent not under watch
        try:
            interval = float(c.detail)
        except ValueError:
            return
        self._intervals[key] = interval
        latest = self._latest_flags[key]
        if latest > _NEG_INF:
            self._wheel.set_deadline(key,
                                     latest + interval + self.flag_grace)

    def _resync_host(self, host_name: str) -> None:
        """One host's model rows from ground truth: freshest flag per
        agent off the flag directories, wake interval off the live
        controller (agents without one -- fixtures, stubs -- run at the
        configured base period)."""
        registered = self._registered_at[host_name]
        for agent in self.suites[host_name].agents:
            key = (host_name, agent.name)
            latest = agent.flags.latest_time()
            self._latest_flags[key] = latest
            period = getattr(getattr(agent, "wake", None),
                             "current_period", self.agent_period)
            if period != self.agent_period:
                self._intervals[key] = period
            else:
                self._intervals.pop(key, None)
            if latest > _NEG_INF:
                deadline = latest + period + self.flag_grace
            else:
                # never flagged: first judgeable the moment the
                # warm-up grace expires
                deadline = (registered + self.watch_period
                            + self.agent_period)
            self._wheel.set_deadline(key, deadline)

    def _repay_dropped(self, head) -> None:
        """Refresh the model rows of every host that lost a condition
        (in transit, or to a cursor overrun) and is reachable now.  A
        host still dark keeps its debt: its flag directories cannot be
        read from here."""
        for host_name in sorted(self._dropped):
            if (self.channel.reachable(head.name, host_name)
                    and self.suites[host_name].host.is_up):
                self._resync_host(host_name)
                self._dropped.discard(host_name)

    def _apply_sweep(self, now: float, plan: List[tuple]) -> int:
        stale_hosts = 0
        tracer = self.sim.tracer
        for action, host_name, reason in plan:
            self.decisions.append(
                f"{now:.0f} {action} {host_name} {reason}".rstrip())
            self.decision_log.append((now, action, host_name, reason))
            if action == "clear":
                self.hosts_escalated.discard(host_name)
                self._recovered_since.discard(host_name)
                self._demand_woken.pop(host_name, None)
            elif action == "demand_wake":
                stale_hosts += 1
                self._demand_woken[host_name] = now
                self.demand_wakes += 1
                if tracer.enabled:
                    tracer.metrics.counter("admin.demand_wakes").inc()
                self.ledger.append("wake", host_name, status="demand",
                                   time=now, detail=reason)
                suite = self.suites.get(host_name)
                wake_all = getattr(suite, "demand_wake_all", None)
                woken = wake_all() if wake_all is not None else 0
                self._log_pool(f"{now:.0f} DEMAND-WAKE {host_name} "
                               f"({woken} agent(s)): {reason}")
            elif action == "cron_repair":
                stale_hosts += 1
                host = self.dc.hosts.get(host_name)
                if host is None:
                    continue
                apply_action("restart_cron", host, "crond")
                self.cron_repairs += 1
                if tracer.enabled:
                    tracer.metrics.counter("admin.cron_repairs").inc()
                self._log_pool(f"{now:.0f} restarted crond on {host_name}")
            else:
                if reason.startswith("agents not flagging"):
                    stale_hosts += 1
                self._escalate_host(host_name, reason)
        return stale_hosts

    def _escalate_host(self, host_name: str, reason: str) -> None:
        """Local healing failed: relocate if we can, else page a human.
        One escalation per incident -- a recovery re-arms the latch."""
        if host_name in self.hosts_escalated:
            if host_name not in self._recovered_since:
                return
            self._recovered_since.discard(host_name)
        self.hosts_escalated.add(host_name)
        if self.relocator is not None:
            started = self.relocator.relocate_host(host_name, reason)
            if started:
                self._log_pool(f"{self.sim.now:.0f} RELOCATING "
                               f"{host_name} ({started} service(s)): "
                               f"{reason}")
                return
        if self.cross_site_cb is not None:
            moved = self.cross_site_cb(host_name, reason)
            if moved:
                self._log_pool(f"{self.sim.now:.0f} CROSS-SITE RELOCATING "
                               f"{host_name} ({moved} service(s)) off "
                               f"{self.site_name}: {reason}")
                return
        self._page_human(host_name, reason)

    def _page_human(self, host_name: str, reason: str) -> None:
        """The last tier: SMS the on-call administrator."""
        self.notifications.sms(
            "oncall-admin", f"admin: {host_name} needs attention ({reason})",
            severity="critical", sender="admin-servers")
        self._log_pool(f"{self.sim.now:.0f} ESCALATED {host_name}: {reason}")

    # -- DGSPL generation ---------------------------------------------------------------------

    def _dlsp_window(self, host_name: str) -> float:
        """A backed-off status agent ships profiles less often; its
        host's DLSP stays serveable for two of *its* published
        intervals, not two base periods, so quiescent-but-healthy hosts
        keep their routes."""
        return 2.0 * self._intervals.get((host_name, "status"),
                                         self.agent_period) + 60.0

    def _assemble_dgspl_incremental(self, now: float) -> Dgspl:
        """Recompute per-host entries only for hosts whose DLSP changed
        since the last build; assemble the list from the cache.  The
        iteration order (DLSP arrival order) matches a full rebuild,
        so the result is byte-identical to one."""
        conds, overrun = self._poll(self._dlsp_cursor)
        dirty = set(self.dlsps) if overrun else set()
        dirty.update(c.host for c in conds if c.kind == "dlsp")
        cache = self._dgspl_cache
        for host in dirty:
            dlsp = self.dlsps.get(host)
            if dlsp is not None:
                cache[host] = host_entries(dlsp)
        out = Dgspl(now)
        for host, dlsp in self.dlsps.items():
            if dlsp.is_fresh(now, self._dlsp_window(host)):
                entries = cache.get(host)
                if entries is None:     # belt and braces: never stale-serve
                    entries = cache[host] = host_entries(dlsp)
                out.entries.extend(entries)
        return out

    def _build_dgspl(self) -> None:
        head = self.active()
        if head is None:
            return
        now = self.sim.now
        tracer = self.sim.tracer
        build_span = tracer.span("admin.dgspl_build", head=head.name)
        self.dgspl = self._assemble_dgspl_incremental(now)
        self.dgspl_generations += 1
        build_span.finish(entries=len(self.dgspl.entries))
        if tracer.enabled:
            tracer.metrics.counter("admin.dgspl_builds").inc()
        if self.pool is not None:
            # "per database type": one list per application type
            by_type: Dict[str, List[str]] = {}
            for entry in self.dgspl.entries:
                by_type.setdefault(entry.app_type, [])
            try:
                self.pool.write(head, "/dgspl/all", self.dgspl.render())
                for app_type in by_type:
                    sub = Dgspl(now)
                    sub.entries = self.dgspl.services_of_type(app_type)
                    self.pool.write(head, f"/dgspl/{app_type}", sub.render())
            except Exception as exc:
                self._pool_write_failed(head, "dgspl", exc)

    def _log_pool(self, line: str) -> None:
        head = self.active()
        if self.pool is None or head is None:
            return
        try:
            self.pool.append(head, "/admin/actions.log", line)
        except Exception as exc:
            self._pool_write_failed(head, "actions.log", exc)

    def _pool_write_failed(self, head, where: str, exc: Exception) -> None:
        """A degraded shared pool must be observable: count it and leave
        a syslog line on the acting head (the pool itself is what just
        refused the write)."""
        self.pool_write_failures += 1
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.metrics.counter("admin.pool_write_failures").inc()
        head.syslog.warning(self.sim.now, "admin-servers",
                            f"pool write failed ({where}): {exc}")

    # -- persistence ----------------------------------------------------------------------------

    def _save_registered(self) -> dict:
        return dict(sorted(self._registered_at.items()))

    def _load_registered(self, saved: dict) -> None:
        if set(saved) != set(self.suites):
            raise KeyError(
                f"admin snapshot watches {sorted(saved)} != "
                f"rebuilt suites {sorted(self.suites)}")
        self._registered_at = {h: float(t) for h, t in saved.items()}

    def _save_dlsps(self) -> list:
        """DLSPs and the DGSPL ride the loss-free ontology codec; DLSP
        insertion order is preserved because the incremental DGSPL
        assembly iterates arrival order."""
        return [[host, dlsp.render()] for host, dlsp in self.dlsps.items()]

    def _load_dlsps(self, saved: list) -> None:
        self.dlsps = {host: Dlsp.from_doc(OntologyDoc.parse(lines))
                      for host, lines in saved}

    def _save_dgspl(self) -> Optional[list]:
        return self.dgspl.render() if self.dgspl is not None else None

    def _load_dgspl(self, lines: Optional[list]) -> None:
        self.dgspl = (Dgspl.from_doc(OntologyDoc.parse(lines))
                      if lines is not None else None)

    # -- queries --------------------------------------------------------------------------------

    def current_dgspl(self) -> Optional[Dgspl]:
        return self.dgspl
