"""Byte identity of the clean wake, host by host.

``tests/golden/clean_fleet.json`` holds, for a 12-host healthy fleet
under each wake policy run five simulated hours -- past the first DLSP
expiry at 1 h and the first flag expiry at 4 h -- the sha256 of every
host's state (the host with its filesystem, process table, syslog,
crond and shell; its applications; its agent suite) and the kernel's
pending heap tokens.  It was generated before the clean wake was made
cheaper, so any optimisation that moves a simulated byte shows up as
*that host's* hash.  Checkpoint format 4 regenerated it: every host's
document equals the format-3 one with the fields format 4 dropped
removed, and the event count and pending heap are unchanged.  Format 5
regenerated it again: with each heap token's priority, the signals'
counters and ``Periodic.cancelled`` dropped and each ``seq`` replaced
by its rank, every host's document equals the format-4 one, and
``now``, the event count and the 72 pending events are unchanged (each
agent's cron job is registered once, so every ``seq`` is 72 lower).
Format 6 regenerated it once more: with the members no product code
reads dropped (the hosts', NICs', applications', agents', wake
policies' and trigger buses' write-only counters), every host's
document equals the format-5 one, and ``now``, the event count and the
72 pending heap tokens are unchanged.

The second half is hostile to state the optimisations derive: it must
never outlive what it was derived from.

Regenerate with ``PYTHONPATH=src python tests/test_clean_fleet_golden.py``
-- only for a change that is *meant* to alter what a clean wake writes.
"""

import json
import os

import pytest

from repro.cluster.filesystem import FileSystem
from repro.core.flags import FlagStore
from repro.experiments.wakes import build_fleet
from repro.persist import state_hash

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "clean_fleet.json")
HOUR = 3600.0
POLICIES = ("fixed", "adaptive")


def fleet_hashes(policy: str) -> dict:
    sim, dc, suites = build_fleet(12, policy, seed=0)
    sim.run(until=sim.now + 5 * HOUR)
    hosts = {}
    for suite in suites:
        host = suite.host
        hosts[host.name] = state_hash({
            "host": host.snapshot_state(),
            "apps": {name: app.snapshot_state()
                     for name, app in sorted(host.apps.items())},
            "suite": suite.snapshot_state()})
    return {"hosts": hosts, "now": sim.now,
            "events_processed": sim.events_processed,
            "pending": [[ev.time, ev.seq]
                        for ev in sim.live_events()]}


@pytest.mark.parametrize("policy", POLICIES)
def test_every_host_hashes_to_the_golden(policy):
    with open(GOLDEN) as fh:
        want = json.load(fh)[policy]
    got = fleet_hashes(policy)
    differing = sorted(h for h in want["hosts"]
                       if got["hosts"].get(h) != want["hosts"][h])
    assert not differing, f"{policy}: hosts differ from golden: {differing}"
    assert got == want


# -- derived state never outlives its source ---------------------------------


def test_restore_into_a_used_world_forgets_derived_state():
    """Restoring an old snapshot into a world that has since run on
    must continue exactly like restoring it into a fresh one: whatever
    an agent remembered about its directories describes the files the
    restore just replaced."""
    from repro.experiments.site import SiteConfig, build_site
    from repro.persist import restore_site, snapshot_site
    used = build_site(SiteConfig.test_scale(seed=5,
                                            with_workload=False))
    used.run(2 * HOUR)
    snap = snapshot_site(used)
    used.run(5 * HOUR)
    used = restore_site(snap, site=used)
    used.run(3.5 * HOUR)
    fresh = restore_site(snap)
    fresh.run(3.5 * HOUR)
    assert snapshot_site(used)["state_hash"] == \
        snapshot_site(fresh)["state_hash"]


def _flag_files(fs) -> list:
    return fs.files_in_dir("/logs/intelliagents/probe")


def _reference_prune(fs, cutoff: float) -> list:
    """What a store that knows nothing but the directory would leave."""
    FlagStore(fs, "probe").clear_before(cutoff)
    return _flag_files(fs)


def test_flag_older_than_anything_the_store_has_seen_is_still_pruned():
    """The file name carries the stamp rounded to 0.1 s, and that is
    what pruning compares: a back-dated flag raised at 1000.04 is
    ``fault.1000.0`` and goes at cutoff 1000.02."""
    stamps = (5000.0, 5300.0, 5600.0, 1000.04, 999.96)
    fs = FileSystem()
    store = FlagStore(fs, "probe")
    for t in stamps[:3]:
        store.raise_flag("ok", t)
    assert store.clear_before(4000.0) == 0          # a real scan happened
    store.raise_flag("ok", stamps[3])
    assert store.clear_before(1000.02) == 1
    store.raise_flag("ok", stamps[4])               # also named ok.1000.0
    assert store.clear_before(1000.0) == 0
    assert store.clear_before(1000.01) == 1
    assert store.clear_before(5300.0) == 1
    twin = FileSystem()
    other = FlagStore(twin, "probe")
    for t in stamps:
        other.raise_flag("ok", t)
    assert _flag_files(fs) == _reference_prune(twin, 5300.0)


if __name__ == "__main__":
    golden = {policy: fleet_hashes(policy) for policy in POLICIES}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}: " + ", ".join(
        f"{p}={len(g['hosts'])} hosts, {len(g['pending'])} pending"
        for p, g in golden.items()))
