"""Fig. 2 at full fidelity: a simulated year on a live 1000-host site.

The calibrated campaign fast path (:mod:`repro.experiments.fig2`)
scores the paper's year in seconds but models the site statistically.
This driver runs the *live* site -- every host, agent, ledger delta and
relocation -- for the same horizon, which is only practical because the
run is **segmented**: the world checkpoints at every segment boundary
(atomic JSON via :mod:`repro.persist`), so a killed or preempted
campaign resumes from the last epoch instead of restarting a multi-hour
job, and retained state stays ring-bounded so RSS does not grow with
the horizon.

The determinism contract guarantees the segmentation is free:
resuming from any checkpoint reproduces the exact event sequence the
uninterrupted run would have produced (see
``tests/integration/test_persist_contract.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.report import table
from repro.faults.models import (CATEGORY_PROFILES, Category,
                                 PAPER_FIG2_HOURS)
from repro.sim.calendar import YEAR

__all__ = ["SegmentStats", "FullYearResult", "site_config",
           "run_full_year", "format_result"]

#: the paper's host mix (100 db : 55 tp : 60 fe), rescaled
_TIER_RATIO = (100, 55, 60)


@dataclass
class SegmentStats:
    """Wall/RSS accounting for one resumable segment."""

    index: int
    sim_hours_end: float
    events: int
    wall_seconds: float
    rss_mb: float
    checkpoint: Optional[str]
    checkpoint_wall: float


@dataclass
class FullYearResult:
    hosts: int
    seed: int
    horizon_hours: float
    downtime_hours: Dict[Category, float]
    segments: List[SegmentStats] = field(default_factory=list)
    deferred_checkpoints: int = 0
    resumed_from: Optional[str] = None

    @property
    def total_hours(self) -> float:
        return sum(self.downtime_hours.values())


def site_config(hosts: int = 1000, seed: int = 0, **kw):
    """A live site with ~``hosts`` servers at the paper's tier mix."""
    from repro.experiments.site import SiteConfig
    total = sum(_TIER_RATIO)
    db = max(1, hosts * _TIER_RATIO[0] // total)
    tp = max(1, hosts * _TIER_RATIO[1] // total)
    fe = max(1, hosts - db - tp - 3)        # admin pair + feed gw
    defaults = dict(db_servers=db, tp_servers=tp, fe_servers=fe,
                    spare_servers=3, with_workload=False, seed=seed)
    defaults.update(kw)
    return SiteConfig(**defaults)


def _fault_rates() -> Dict[Category, float]:
    """The paper's per-category arrival rates, per simulated day."""
    return {p.category: p.rate_per_year / 365.0
            for p in CATEGORY_PROFILES.values()}


def run_full_year(seed: int = 0, *, hosts: int = 1000,
                  hours: float = YEAR / 3600.0, segments: int = 12,
                  checkpoint_dir: str = "checkpoints",
                  resume: Optional[str] = None) -> FullYearResult:
    """Run (or resume) the segmented full-fidelity year, keeping the
    newest two epoch checkpoints.

    ``resume`` names a checkpoint file: the world restores from it and
    the remaining segments run to the same ``hours`` horizon -- fault
    arrivals are part of the checkpoint, so nothing is re-drawn.
    """
    from repro.experiments.runner import FidelityHarness
    from repro.persist import CheckpointManager
    from repro.persist.checkpoint import rss_mb

    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments!r}")
    horizon_s = hours * 3600.0

    if resume is not None:
        snap = CheckpointManager.load(resume)
        harness = FidelityHarness.resume(snap)
        seed = harness.site.config.seed
    else:
        from repro.experiments.site import build_site
        harness = FidelityHarness(build_site(
            site_config(hosts=hosts, seed=seed)))
        harness.injector.schedule_poisson(_fault_rates(), horizon_s)

    sim = harness.sim
    epoch_hours = hours / segments
    mgr = CheckpointManager(harness.site, checkpoint_dir,
                            every_hours=epoch_hours, retain=2,
                            extras=harness._extras())
    result = FullYearResult(
        hosts=len(harness.site.dc.hosts), seed=seed, horizon_hours=hours,
        downtime_hours={}, resumed_from=resume)

    index = int(round(sim.now / (epoch_hours * 3600.0)))
    while sim.now < horizon_s - 1e-9:
        index += 1
        barrier = min(horizon_s, index * epoch_hours * 3600.0)
        ev0, t0 = sim.events_processed, time.perf_counter()
        sim.run(until=barrier)
        wall = time.perf_counter() - t0
        c0 = time.perf_counter()
        path = mgr.epoch(force=True)
        result.segments.append(SegmentStats(
            index=index, sim_hours_end=sim.now / 3600.0,
            events=sim.events_processed - ev0, wall_seconds=wall,
            rss_mb=rss_mb(), checkpoint=path,
            checkpoint_wall=time.perf_counter() - c0))

    harness.scan_flags_for_detection()
    result.downtime_hours = harness.downtime_hours()
    result.deferred_checkpoints = mgr.deferred
    return result


def format_result(result: FullYearResult) -> str:
    rows = []
    for cat in Category:
        paper_before, paper_after = PAPER_FIG2_HOURS[cat]
        rows.append((cat.value, paper_before, paper_after,
                     round(result.downtime_hours.get(cat, 0.0), 1)))
    rows.append(("TOTAL", 550.0, 39.0, round(result.total_hours, 1)))
    body = table(
        ["category", "paper before (h)", "paper after (h)",
         "live site (h)"],
        rows,
        title=(f"Full-fidelity year -- {result.hosts} hosts, seed "
               f"{result.seed}, {result.horizon_hours:.0f} simulated "
               f"hours in {len(result.segments)} segment(s)"))
    seg_rows = [(s.index, round(s.sim_hours_end, 1), s.events,
                 round(s.wall_seconds, 1), round(s.rss_mb, 0),
                 round(s.checkpoint_wall, 2),
                 "deferred" if s.checkpoint is None else "written")
                for s in result.segments]
    body += "\n\n" + table(
        ["segment", "sim h", "events", "wall s", "RSS MiB",
         "ckpt s", "checkpoint"],
        seg_rows, title="Per-segment wall clock and memory")
    if result.resumed_from:
        body += f"\nresumed from {result.resumed_from}"
    if result.deferred_checkpoints:
        body += (f"\n{result.deferred_checkpoints} checkpoint(s) "
                 f"deferred on non-quiescent barriers")
    return body
