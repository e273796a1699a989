"""Checkpoint cost: snapshot/restore wall time and the end-to-end
overhead of running segmented instead of monolithic.

The segmented full-year driver is only worth shipping if epoch
checkpoints are cheap relative to simulation: the overhead bench runs
the same campaign with and without per-hour checkpoints and asserts
the checkpointed run stays within 10% wall (plus a small absolute
grace for timer noise on short quick-mode runs).
"""

import json
import time

from repro.experiments.runner import FidelityHarness
from repro.experiments.site import SiteConfig, build_site
from repro.faults.models import Category
from repro.persist import CheckpointManager, snapshot_site

from conftest import emit

RATES = {Category.MID_CRASH: 4.0, Category.FRONT_END: 3.0,
         Category.FIREWALL_NETWORK: 1.0}


def _harness(seed: int, horizon_h: float) -> FidelityHarness:
    harness = FidelityHarness(build_site(SiteConfig.test_scale(
        seed=seed, spare_servers=1,
        with_workload=False, with_feeds=False)))
    harness.injector.schedule_poisson(RATES, horizon_h * 3600.0)
    return harness


def test_snapshot_cost(benchmark):
    """Whole-world snapshot of a warmed test-scale site."""
    harness = _harness(0, 2.0)
    harness.run_hours(2.0)

    snap = benchmark(snapshot_site, harness.site,
                     extras=harness._extras())
    size_kb = len(json.dumps(snap)) / 1024.0
    emit(f"snapshot: {size_kb:.0f} KiB, "
         f"{len(snap['hosts'])} hosts, hash {snap['state_hash'][:12]}")
    assert snap["state_hash"]


def test_restore_cost(benchmark):
    """Rebuild + restore a live harness from a snapshot dict."""
    harness = _harness(0, 2.0)
    harness.run_hours(2.0)
    snap = harness.snapshot()

    resumed = benchmark.pedantic(FidelityHarness.resume, args=(snap,),
                                 rounds=3, iterations=1)
    assert resumed.sim.now == harness.sim.now
    assert resumed.snapshot()["state_hash"] == snap["state_hash"]


def test_checkpoint_overhead_bounded(benchmark, quick, tmp_path):
    """Segmented-with-checkpoints wall <= 1.10x monolithic wall.

    Epoch cadence matters: a snapshot costs O(world state) once per
    epoch while simulation costs O(events per epoch), so the bench
    uses the full-year driver's production cadence (many simulated
    hours per checkpoint), not a checkpoint-per-wall-second torture
    loop that no driver runs."""
    hours = 8.0 if quick else 24.0
    segments = 2

    def monolithic():
        harness = _harness(7, hours)
        harness.run_hours(hours)
        return harness

    def segmented():
        harness = _harness(7, hours)
        mgr = CheckpointManager(harness.site, str(tmp_path),
                                every_hours=hours / segments, retain=2,
                                extras=harness._extras())
        for _ in range(segments):
            harness.run_hours(hours / segments)
            mgr.epoch(force=True)
        return harness, mgr

    t0 = time.perf_counter()
    mono = monolithic()
    mono_wall = time.perf_counter() - t0

    def timed_segmented():
        t0 = time.perf_counter()
        harness, mgr = segmented()
        return harness, mgr, time.perf_counter() - t0

    harness, mgr, seg_wall = benchmark.pedantic(timed_segmented,
                                                rounds=1, iterations=1)
    # same world either way -- the contract test proves it in bytes;
    # here just confirm the campaign actually did the same work
    assert harness.summary()["events_processed"] \
        == mono.summary()["events_processed"]
    assert mgr.stats()["written"] == segments

    overhead = seg_wall / mono_wall - 1.0
    emit(f"checkpoint overhead: mono {mono_wall:.3f}s, "
         f"segmented {seg_wall:.3f}s ({segments} epochs, "
         f"ckpt wall {mgr.wall_seconds:.3f}s) -> {overhead:+.1%}")
    # the accounted snapshot+write time is the principled overhead
    # number (end-to-end deltas on ~1 s runs are timer-noise bound);
    # quick mode halves the horizon, doubling checkpoint density past
    # the production cadence, so it only smoke-checks the shape
    bound = 0.20 if quick else 0.10
    assert mgr.wall_seconds <= bound * seg_wall, (
        f"checkpoints cost {mgr.wall_seconds:.3f}s of "
        f"{seg_wall:.3f}s wall (> 10%)")
    # end-to-end backstop: 10% relative + 250 ms noise grace
    assert seg_wall <= 1.10 * mono_wall + 0.25, (
        f"checkpointing cost {overhead:+.1%} wall "
        f"({seg_wall:.3f}s vs {mono_wall:.3f}s)")
