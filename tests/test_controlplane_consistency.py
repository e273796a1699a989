"""The paired cross-check: the ledger-driven control plane must make
exactly the decisions a full rescan makes.

The rescan is the chaos tier's :class:`ScanReference`.  Two angles:

- a site *paired* with an attached reference runs both planners every
  sweep and every DGSPL build, counting any divergence (and applying
  the rescan result);
- that site and a plain ledger site driven through an identical fault
  campaign must produce byte-identical decision logs.
"""

import pytest

from repro.chaos.oracles import ScanReference
from repro.experiments.site import SiteConfig, build_site
from repro.wake import WakePolicy


def _site(wake="adaptive"):
    return build_site(SiteConfig.test_scale(
        seed=29, with_workload=False, wake_policy=wake))


def _paired_site(wake="adaptive"):
    site = _site(wake)
    return site, ScanReference.attach(site.admin)


def _campaign(site):
    """Deterministic faults covering every decision type: a dead crond
    (cron_repair), a host crash (escalate), a recovery (clear), plus a
    silenced-but-crond-alive host (demand-wake knock, then escalate).
    Windows are generous enough for backed-off adaptive agents, whose
    staleness gap can reach wake_max_period + flag grace."""
    admin = site.admin
    site.run(1500.0)                        # past warm-up, flags green
    site.dc.host("db001").crond.kill()      # all agents stop; crond dead
    site.run(2 * admin.watch_period)
    fe = site.dc.host("fe001")
    fe.crash("power supply")                # host down
    site.run(2 * admin.watch_period)
    fe.boot()                               # recovery -> clear
    site.run(fe.boot_duration + 3 * admin.watch_period)
    db = site.dc.host("db000")
    for agent in site.suites["db000"].agents:
        db.crond.remove(agent.name)         # quiet agents, crond alive
    site.run(WakePolicy.max_period + 5 * admin.watch_period)


@pytest.mark.parametrize("wake", ["fixed", "adaptive"])
def test_paired_mode_never_diverges(wake):
    site, reference = _paired_site(wake)
    _campaign(site)
    admin = site.admin
    assert reference.sweep_mismatches == 0
    assert reference.dgspl_mismatches == 0
    assert admin.model_resyncs == 0
    # the campaign actually produced decisions of every kind
    actions = {d[1] for d in admin.decisions}
    assert actions == {"cron_repair", "escalate", "clear", "demand_wake"}
    assert admin.cron_repairs >= 1
    assert admin.demand_wakes >= 1
    assert "db000" in admin.hosts_escalated


@pytest.mark.parametrize("wake", ["fixed", "adaptive"])
def test_scan_and_ledger_runs_are_byte_identical(wake):
    """A run that applies the rescan's plans equals a plain run."""
    (scan, _reference), ledger = _paired_site(wake), _site(wake)
    _campaign(scan)
    _campaign(ledger)
    assert scan.admin.decisions            # non-trivial campaign
    assert scan.admin.decisions == ledger.admin.decisions
    assert scan.admin.cron_repairs == ledger.admin.cron_repairs
    assert scan.admin.hosts_escalated == ledger.admin.hosts_escalated
    # and the paging behaviour matched decision for decision
    sms = lambda s: [(n.subject, n.time) for n in s.notifications.sent
                     if n.medium == "sms"]
    assert sms(scan) == sms(ledger)


def test_ledger_sweeps_examine_only_candidates():
    """The point of the refactor: a quiet site's sweep touches nobody.
    Decisions come from the few hosts with conditions, not a rescan."""
    from repro.trace import install_tracer
    site = _site()
    tracer = install_tracer(site.sim)
    site.run(1500.0)
    sweeps = tracer.spans_named("admin.flag_sweep")
    settled = [s for s in sweeps if s.attrs.get("examined") is not None
               and s.start > 1200.0]
    assert settled, "expected post-warm-up sweeps on the record"
    # healthy steady state: no candidates at all, versus a full scan
    # which would have examined every registered host every time
    assert all(s.attrs["examined"] == 0 for s in settled)


def test_dgspl_identical_across_modes():
    (scan, reference), ledger = _paired_site(), _site()
    for s in (scan, ledger):
        s.run(3700.0)
    assert scan.admin.dgspl is not None
    assert reference.dgspl_mismatches == 0
    assert scan.admin.dgspl.render() == ledger.admin.dgspl.render()


def test_judging_the_flag_directories_writes_nothing():
    """The reference sweep and the harness's detection scan read every
    agent's flag directory -- including directories that are gone --
    and leave every host's directory set exactly as they found it."""
    from repro.experiments.runner import FidelityHarness
    from repro.faults.models import Category
    site = _site()
    harness = FidelityHarness(site)
    site.run(1500.0)
    suite = site.suites["db000"]
    fs = suite.host.fs
    for agent in suite.agents:              # the directories go too
        for path in fs.glob_files(agent.flags.dir):
            fs.remove(path)
        fs._dirs.pop(agent.flags.dir, None)
        fs._dir_index.pop(agent.flags.dir, None)
        agent.flags.forget()
    app = sorted(suite.host.apps)[0]
    harness.ledger.open_incident(Category.MID_CRASH, f"db000/{app}",
                                 site.sim.now)
    dirs = lambda: {name: host.fs.snapshot_state()["dirs"]
                    for name, host in site.dc.hosts.items()}
    before = dirs()
    ScanReference(site.admin).plan_sweep(site.sim.now, site.admin.active())
    harness.scan_flags_for_detection()
    assert harness.ledger.incidents[-1].detected_at is None
    assert dirs() == before
