"""Consistency between the campaign fast path and full fidelity.

DESIGN.md's simulation-speed note claims the event-driven fast path is
semantically equivalent to full-fidelity mode for detection timing:
detection happens at the next cron grid point after the fault.  These
tests hold the two modes against each other on the same kinds of fault.
"""

import numpy as np
import pytest

from repro.core.agent import AGENT_PERIOD
from repro.experiments.runner import FidelityHarness
from repro.experiments.site import SiteConfig, build_site
from repro.ops.operators import OperatorModel
from repro.sim import RandomStreams
from repro.sim.calendar import MINUTE, next_grid


def test_fast_path_detection_matches_cron_grid_bound():
    """Fast path: agent detection = next grid + run time, so it is
    bounded by period + max run time.  Full fidelity must obey the
    same bound."""
    rs = RandomStreams(5)
    ops = OperatorModel(rs.get("ops"), agent_period=5 * MINUTE)
    for t in np.linspace(0.0, 7 * 86400.0, 40):
        d = ops.agent_detection_delay(float(t))
        grid_wait = next_grid(float(t), 5 * MINUTE) - float(t)
        assert grid_wait < d <= grid_wait + 20.0


def test_full_fidelity_detection_within_fast_path_bound():
    # the fast path models cron-grid detection, so hold the fixed wake
    # policy against it (adaptive triggers detect faster than the grid)
    site = build_site(SiteConfig.test_scale(seed=23,
                                            with_workload=False,
                                            wake_policy="fixed"))
    harness = FidelityHarness(site)
    latencies = []
    for k in range(6):
        db = site.databases[k % len(site.databases)]
        # desynchronise fault times from the cron grid
        site.run(1700.0 + 137.0 * k)
        if not db.is_healthy():
            continue
        harness.injector.db_crash(db)
        site.run(1500.0)
        harness.scan_flags_for_detection()
    for inc in harness.ledger.incidents:
        if inc.detection_latency is not None:
            latencies.append(inc.detection_latency)
    assert latencies, "no detections recorded"
    # every detection within one agent period (+ slack for the run)
    assert max(latencies) <= AGENT_PERIOD + 60.0


def test_full_fidelity_repair_times_match_campaign_profile():
    """The campaign's MID_CRASH auto-repair mean (8 min) should be of
    the same order as real restart-based healing in full fidelity."""
    site = build_site(SiteConfig.test_scale(seed=29,
                                            with_workload=False,
                                            wake_policy="fixed"))
    harness = FidelityHarness(site)
    durations = []
    for k in range(4):
        db = site.databases[k % len(site.databases)]
        site.run(1900.0 + 211.0 * k)
        if not db.is_healthy():
            continue
        t0 = site.sim.now
        harness.injector.db_crash(db)
        site.run(2400.0)
        if db.is_healthy():
            closed = [i for i in harness.ledger.incidents
                      if not i.open and i.start >= t0]
            durations.extend(i.duration for i in closed)
    assert durations
    mean_min = np.mean(durations) / 60.0
    # campaign says ~5 min grid + ~8 min repair: same order of magnitude
    assert 2.0 < mean_min < 30.0
