"""Control-plane bench: full-rescan sweeps vs the condition ledger.

The watchdog's job is unchanged -- notice "absence of flags" within a
watch period -- but the two observation paths price it differently:

- ``scan`` -- the chaos tier's :class:`ScanReference` planner, timed
  directly -- reads every agent's flag directory on every host, every
  sweep: O(hosts x agents) regardless of what happened;
- ``ledger`` -- the administration servers' watchdog -- consumes the
  conditions appended since its last sweep and examines only candidate
  hosts: O(changes).

Shape asserted: at a healthy steady state (every agent flagging every
period -- the *worst* case for the ledger, since every flag is a
condition) the ledger sweep still beats the scan by >= 5x at 1000
hosts; a ledger site 10x the size sweeps no slower than the scan at
1x; and sweep cost tracks the number of active hosts, not the size of
the site.  The measured table is written to ``BENCH_controlplane.json``
as the recorded baseline.
"""

import json
import os
import time

from conftest import emit

from repro.chaos.oracles import ScanReference
from repro.cluster.datacenter import Datacenter
from repro.core.admin import AdministrationServers
from repro.core.flags import FlagStore
from repro.sim import RandomStreams, Simulator

AGENTS_PER_HOST = 4
SWEEP_INTERVAL = 120.0
PRUNE_WINDOW = 900.0


class _StubAgent:
    """Just enough agent for the watchdog: a name and a flag store."""

    def __init__(self, host, name):
        self.name = name
        self.flags = FlagStore(host.fs, name)


class _StubSuite:
    def __init__(self, host):
        self.host = host
        self.agents = [_StubAgent(host, f"agent{i}")
                       for i in range(AGENTS_PER_HOST)]


def _build(n_hosts):
    sim = Simulator()
    dc = Datacenter(sim, RandomStreams(0), "bench-dc")
    adm1 = dc.add_host("adm01", "admin-server", group="admin")
    adm2 = dc.add_host("adm02", "admin-server", group="admin")
    admin = AdministrationServers(dc, adm1, adm2, None)
    # the bench drives sweeps by hand; the cron grid must not slip
    # extra sweeps in during sim.run and drain the cursor first
    adm1.crond.kill()
    adm2.crond.kill()
    suites = []
    for i in range(n_hosts):
        host = dc.add_host(f"h{i:04d}", "linux-x86")
        suite = _StubSuite(host)
        admin.register_suite(suite)
        suites.append(suite)
    return sim, admin, suites


def _flag_all(suites, now):
    for suite in suites:
        for agent in suite.agents:
            agent.flags.raise_flag("ok", now)
            agent.flags.clear_before(now - PRUNE_WINDOW)


def _sweep_cost(sim, admin, suites, *, rounds, active=None, scan=False):
    """Minimum wall time of a steady-state sweep, plus the conditions
    the watchdog consumed during the measured rounds.  Flags are raised
    for ``active`` suites (default: all) right before each sweep;
    rounds x interval stays within watch_period so nobody goes stale.
    With ``scan`` the timed call is the reference rescan planner."""
    if active is None:
        active = suites
    if scan:
        plan_sweep = ScanReference(admin).plan_sweep
        sweep = lambda: plan_sweep(sim.now, admin.active())
    else:
        sweep = admin._watchdog
    assert rounds * SWEEP_INTERVAL <= admin.watch_period
    # past the warm-up grace, with one full grid of flags on record
    t = sim.now + admin.watch_period + admin.agent_period + 100.0
    _flag_all(suites, t)
    sim.run(until=t)
    admin._watchdog()                       # absorb the bootstrap sweep
    consumed0 = admin._flag_cursor.consumed
    best = float("inf")
    for _ in range(rounds):
        t += SWEEP_INTERVAL
        _flag_all(active, t)
        sim.run(until=t)
        t0 = time.perf_counter()
        plan = sweep()      # the rescan's plan; the watchdog's None
        best = min(best, time.perf_counter() - t0)
        assert not plan, "bench must stay fault-free"
    assert not admin.decisions, "bench must stay fault-free"
    return best, admin._flag_cursor.consumed - consumed0


def test_sweep_cost_scales_with_changes_not_site_size(one_shot, quick):
    sizes = (30, 100, 300) if quick else (100, 300, 1000)
    rounds = 3 if quick else 5
    min_speedup = 2.0 if quick else 5.0

    def run():
        out = {"scan_ms": {}, "ledger_ms": {}}
        for n in sizes:
            for mode in ("scan", "ledger"):
                sim, admin, suites = _build(n)
                cost, _ = _sweep_cost(sim, admin, suites, rounds=rounds,
                                      scan=mode == "scan")
                out[f"{mode}_ms"][n] = cost * 1000.0

        # partial activity at the largest site: only k hosts flag
        n = sizes[-1]
        sim, admin, suites = _build(n)
        out["active_ms"] = {}
        out["conditions"] = {}
        for k in (0, n // 10, n):
            cost, consumed = _sweep_cost(
                sim, admin, suites, rounds=rounds, active=suites[:k])
            out["active_ms"][k] = cost * 1000.0
            out["conditions"][k] = consumed
        return out

    res = one_shot(run)
    n_max, n_min = sizes[-1], sizes[0]
    speedup = {n: res["scan_ms"][n] / res["ledger_ms"][n] for n in sizes}

    lines = [f"{'hosts':>6} {'scan ms':>9} {'ledger ms':>10} {'speedup':>8}"]
    for n in sizes:
        lines.append(f"{n:>6} {res['scan_ms'][n]:>9.3f} "
                     f"{res['ledger_ms'][n]:>10.3f} {speedup[n]:>7.1f}x")
    lines.append(f"{n_max}-host ledger vs {n_min}-host scan: "
                 f"{res['ledger_ms'][n_max]:.3f} ms vs "
                 f"{res['scan_ms'][n_min]:.3f} ms")
    lines.append("active-host sensitivity at "
                 f"{n_max} hosts: " + "  ".join(
                     f"k={k}: {ms:.3f} ms ({res['conditions'][k]} conds)"
                     for k, ms in res["active_ms"].items()))
    emit("\n".join(lines))

    # headline: steady-state sweeps get cheaper by >= 5x at 1000 hosts
    assert speedup[n_max] >= min_speedup

    # scale: a site 10x the size sweeps at the old path's wall-clock,
    # i.e. the freed budget funds an order of magnitude more servers.
    # (Quick mode shrinks to 30..300 hosts where fixed per-sweep costs
    # still show; allow it proportionally more timing slack.)
    tolerance = 1.5 if quick else 1.15
    assert res["ledger_ms"][n_max] <= res["scan_ms"][n_min] * tolerance

    # O(changes): conditions consumed track the active hosts exactly,
    # an idle sweep consumes nothing, and cost follows activity
    assert res["conditions"][0] == 0
    for k in (n_max // 10, n_max):
        assert res["conditions"][k] == k * AGENTS_PER_HOST * rounds
    assert res["active_ms"][0] < res["active_ms"][n_max]
    assert res["active_ms"][0] * 5 < res["scan_ms"][n_max]

    # scan cost, by contrast, grows with the site whether or not
    # anything happened
    assert res["scan_ms"][n_max] > res["scan_ms"][n_min]

    if quick:
        return      # the committed baseline records the full-size run
    baseline = {
        "bench": "controlplane_sweep",
        "quick": False,
        "agents_per_host": AGENTS_PER_HOST,
        "sizes": list(sizes),
        "scan_ms": {str(k): round(v, 4) for k, v in res["scan_ms"].items()},
        "ledger_ms": {str(k): round(v, 4)
                      for k, v in res["ledger_ms"].items()},
        "speedup": {str(k): round(v, 2) for k, v in speedup.items()},
        "active_ms": {str(k): round(v, 4)
                      for k, v in res["active_ms"].items()},
        "conditions": {str(k): v for k, v in res["conditions"].items()},
    }
    path = os.path.join(os.path.dirname(__file__),
                        "BENCH_controlplane.json")
    with open(path, "w") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
