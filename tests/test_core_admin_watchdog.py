"""Watchdog and escalation behaviour of the administration servers.

Covers the paper's "monitor the creation of these flags every X+5
minutes" loop end to end: stale detection at the exact period
boundary, the SMS page + pool log line when agents go quiet, the
one-escalation-per-incident latch (including re-arming after a
recovery and after a flap too fast for the watchdog to observe), the
repayment of conditions dropped while no coordinator was reachable,
and the observability of shared-pool write failures.
"""

import pytest

from repro.chaos.oracles import ScanReference
from repro.cluster.filesystem import FsOfflineError
from repro.core.admin import AdministrationServers
from repro.core.flags import FlagStore
from repro.core.suite import AgentSuite
from repro.trace import install_tracer


@pytest.fixture(params=["ledger", "scan", "paired"])
def wired(request, dc, sim, channel, notifications, pool, database,
          frontend):
    """Suites on db01/fe01 under an admin pair (conftest topology),
    exercised three ways -- the watchdog behaviour must be identical
    whether hosts are found by ledger deltas or by full rescan:

    - ``ledger``: the pair as shipped;
    - ``scan``: the chaos tier's full-rescan reference alone plans the
      sweeps and builds the DGSPL (the paper's watchdog; also the check
      that the oracle itself honours the contract it judges by);
    - ``paired``: the reference attached -- both run every cycle, are
      compared, and the rescan result is applied."""
    admin = AdministrationServers(dc, dc.host("adm01"), dc.host("adm02"),
                                  pool, channel=channel,
                                  notifications=notifications)
    reference = None
    if request.param == "paired":
        reference = ScanReference.attach(admin)
    elif request.param == "scan":
        scan = ScanReference(admin)
        admin._plan_sweep_ledger = lambda now, head: (
            scan.plan_sweep(now, head), len(admin.suites))
        admin._assemble_dgspl_incremental = scan.build_dgspl
    suites = {}
    for hostname in ("db01", "fe01"):
        suite = AgentSuite(dc.host(hostname), channel=channel,
                           admin_targets=["adm01", "adm02"],
                           notifications=notifications,
                           deliver_dlsp=admin.receive_dlsp)
        suites[hostname] = suite
        admin.register_suite(suite)
    yield admin, suites
    # the reference cross-checks every sweep and every DGSPL build
    if reference is not None:
        assert reference.sweep_mismatches == 0
        assert reference.dgspl_mismatches == 0


def _sms_for(notifications, host_name):
    return [n for n in notifications.sent
            if n.medium == "sms" and host_name in n.subject]


# -- stale detection ---------------------------------------------------------

def test_stale_detection_at_period_boundary(wired, sim, dc):
    """An agent is stale strictly *after* watch_period since its last
    flag -- at exactly the boundary it is still considered alive."""
    admin, suites = wired
    sim.run(until=sim.now + 1200.0)
    host = dc.host("db01")
    suite = suites["db01"]
    stale_agents = ScanReference(admin).stale_agents
    latest = {a.name: FlagStore(host.fs, a.name).latest_time()
              for a in suite.agents}
    assert all(t > 0 for t in latest.values())

    at_boundary = min(latest.values()) + admin.watch_period
    assert stale_agents(host, suite, at_boundary) == sorted(
        name for name, t in latest.items()
        if at_boundary - t > admin.watch_period)
    # the earliest flag is exactly at the boundary: not stale yet
    assert min(latest, key=latest.get) not in stale_agents(
        host, suite, at_boundary)
    # one tick past the boundary it is
    assert min(latest, key=latest.get) in stale_agents(
        host, suite, at_boundary + 1.0)


def test_quiet_agents_escalate_with_sms_and_pool_log(wired, sim, dc,
                                                     notifications):
    """All of a host's agents silenced (cron alive, jobs gone): the
    watchdog cannot repair crond, so it pages and logs to the pool."""
    admin, suites = wired
    sim.run(until=sim.now + 1200.0)
    host = dc.host("db01")
    for agent in suites["db01"].agents:
        host.crond.remove(agent.name)
    sim.run(until=sim.now + 3 * admin.watch_period)
    assert "db01" in admin.hosts_escalated
    pages = _sms_for(notifications, "db01")
    assert len(pages) == 1
    assert "agents not flagging" in pages[0].subject
    log = admin.pool.fs.read("/admin/actions.log")
    assert any("ESCALATED db01" in line for line in log)


# -- the escalation latch ----------------------------------------------------

def test_escalation_is_one_page_per_incident(wired, sim, dc, notifications):
    admin, _ = wired
    sim.run(until=sim.now + 1200.0)
    dc.host("db01").crash("dead")
    sim.run(until=sim.now + 5 * admin.watch_period)
    # many sweeps saw the host down; exactly one page went out
    assert len(_sms_for(notifications, "db01")) == 1


def test_reescalates_after_observed_recovery(wired, sim, dc, notifications):
    """Down -> page -> recover (flags green again) -> down again is a
    second incident and pages a second time."""
    admin, _ = wired
    sim.run(until=sim.now + 1200.0)
    host = dc.host("db01")
    host.crash("dead")
    sim.run(until=sim.now + 2 * admin.watch_period)
    assert len(_sms_for(notifications, "db01")) == 1
    host.boot()
    # long enough for the boot, fresh flags and a green sweep
    sim.run(until=sim.now + host.boot_duration + 3 * admin.watch_period)
    assert "db01" not in admin.hosts_escalated
    host.crash("dead again")
    sim.run(until=sim.now + 2 * admin.watch_period)
    assert len(_sms_for(notifications, "db01")) == 2


def test_fast_flap_reescalates_via_up_signal(wired, sim, dc, notifications):
    """Crash -> boot -> crash again *before any sweep sees the host
    green*: the boot (up_signal) re-arms the latch, so the relapse is
    still paged as a new incident."""
    admin, _ = wired
    sim.run(until=sim.now + 1200.0)
    host = dc.host("db01")
    host.crash("dead")
    sim.run(until=sim.now + 2 * admin.watch_period)
    assert len(_sms_for(notifications, "db01")) == 1
    host.boot()
    # just past the boot: the host is up but no watchdog sweep has
    # observed fresh flags (those need a full agent period)
    sim.run(until=sim.now + host.boot_duration + 5.0)
    assert host.is_up
    assert "db01" in admin.hosts_escalated        # latch never cleared
    host.crash("flapped")
    sim.run(until=sim.now + 2 * admin.watch_period)
    assert len(_sms_for(notifications, "db01")) == 2


# -- conditions dropped in transit --------------------------------------------

def _blackout(dc, sim, seconds):
    """Both coordinators down for ``seconds`` (off the agents' 300 s
    grid), then the primary boots; returns once it is up."""
    for name in ("adm01", "adm02"):
        dc.host(name).crash("power feed")
    sim.run(until=sim.now + seconds)
    head = dc.host("adm01")
    head.boot()
    sim.run(until=sim.now + head.boot_duration + 1.0)
    assert head.is_up


def test_flags_raised_during_blackout_are_honoured(wired, sim, dc):
    """Flags raised while neither coordinator is up never reach the
    ledger.  The first sweep after a head boots must read them off the
    flag directories instead of false-alarming hosts that kept
    flagging all along."""
    admin, suites = wired
    sim.run(until=sim.now + 1200.0)
    _blackout(dc, sim, 1450.0)
    for name, suite in suites.items():
        fresh = min(a.flags.latest_time() for a in suite.agents)
        assert sim.now - fresh < admin.agent_period, name
    admin._watchdog()
    assert admin.decisions == []
    assert admin.demand_wakes == 0


@pytest.mark.parametrize("wired", ["ledger", "paired"], indirect=True)
def test_lagging_dgspl_cursor_cannot_regress_wake_interval(wired, sim, dc):
    """Both cursors consume wake-interval publications.  One the
    watchdog absorbed before a blackout must not be replayed by the
    DGSPL cursor, which polls later, over the newer interval the
    post-blackout refresh read off the live controller."""
    admin, suites = wired
    sim.run(until=sim.now + 1200.0)
    key = ("db01", "resource")
    admin.ledger.append("wake", "db01", agent="resource",
                        status="interval", time=sim.now, detail="600.0")
    admin._watchdog()               # the watchdog cursor alone sees it
    assert admin._intervals[key] == 600.0
    _blackout(dc, sim, 400.0)       # db01's flags are dropped: a debt
    sim.run(until=sim.now + 1000.0)  # >= one sweep and one DGSPL build
    live = suites["db01"].resource.wake.current_period
    assert admin._intervals.get(key, admin.agent_period) == live


# -- pool-write observability ------------------------------------------------

def test_pool_write_failure_counted_and_logged(wired, sim, dc, monkeypatch):
    admin, _ = wired
    tracer = install_tracer(sim)

    def boom(*args, **kwargs):
        raise FsOfflineError("nfs: server not responding")

    monkeypatch.setattr(admin.pool, "append", boom)
    admin._log_pool("probe line")
    recs = admin.primary.syslog.grep(tag="admin-servers",
                                     contains="pool write failed")
    assert len(recs) == 1 and "actions.log" in recs[-1].message
    assert tracer.metrics.snapshot()["counters"][
        "admin.pool_write_failures"] == 1


def test_dlsp_pool_write_failure_keeps_memory_copy(wired, sim, monkeypatch):
    admin, _ = wired
    sim.run(until=sim.now + 1000.0)
    dlsp = admin.dlsps["db01"]

    def boom(*args, **kwargs):
        raise FsOfflineError("nfs: server not responding")

    monkeypatch.setattr(admin.pool, "write", boom)
    admin.receive_dlsp(dlsp)
    recs = admin.active().syslog.grep(tag="admin-servers",
                                      contains="pool write failed")
    assert len(recs) == 1 and "dlsp/db01" in recs[-1].message
    assert admin.dlsps["db01"] is dlsp          # in-memory copy survives
