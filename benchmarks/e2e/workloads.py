"""The five end-to-end workloads.

Each workload is a class with the same four steps -- ``setup`` (build
and warm the world; what ``setup_s`` prices), ``run`` (the timed
region), ``summary`` (exact simulated statistics, read after the clock
stops; its sha256 is the run digest) and ``failures`` (the invariant).
All are closed-loop: one simulation at a time, the next step only after
the previous one completes.  The seed feeds ``SiteConfig.seed`` /
``three_site_config(seed=)`` / ``ScenarioFuzzer(seed=)`` and nothing
else.  ``repro`` imports are function-local so :func:`layers.traced`
can patch before any name is bound here.  Why each workload exists is
recorded once, in ``BENCHMARK.json`` (and argued in README.md).

Sizes: ``full`` is what ``BENCHMARK.json`` gates (each timed region
about 5 s on a 2-core box, so three fresh children per run fit the
driver's time cap); ``quick`` is the < 40 s smoke pass.
"""

from __future__ import annotations

import os
from typing import Dict, List

__all__ = ["WORKLOADS"]

#: per-category arrival rate of the fault storms, per simulated day
STORM_RATE = 150.0
PERSIST_RATE = 60.0
#: a deferred epoch retries after this many simulated seconds ...
DEFER_STEP_S = 60.0
#: ... at most this often before the cycle counts as failed
DEFER_TRIES = 10


class _Workload:
    name = ""
    sizes: Dict[str, dict] = {}

    def __init__(self, seed: int, size: str, scratch: str):
        self.seed = seed
        self.size = self.sizes[size]
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def summary(self) -> dict:
        raise NotImplementedError

    def failures(self, summary: dict) -> List[str]:
        raise NotImplementedError


def _suite_totals(suites) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for suite in suites:
        for key, value in suite.totals().items():
            out[key] = out.get(key, 0) + value
    return out


class FleetClean(_Workload):
    name = "fleet-clean-1k"
    sizes = {"full": {"hosts": 1000, "horizon_s": 2700.0},
             "quick": {"hosts": 100, "horizon_s": 2700.0}}

    def setup(self) -> None:
        from repro.experiments.wakes import build_fleet
        self.sim, self.dc, self.suites = build_fleet(
            self.size["hosts"], "fixed", seed=self.seed)
        self.events0 = self.sim.events_processed

    def run(self) -> None:
        self.sim.run(until=self.sim.now + self.size["horizon_s"])

    def summary(self) -> dict:
        totals = _suite_totals(self.suites)
        return {
            "sim.events": self.sim.events_processed - self.events0,
            "faults.detected": int(totals["faults_found"]),
            "wake.demand_wakes": int(totals["demand_wakes"]),
            "detail": {"now": self.sim.now, "agent_runs": totals["runs"],
                       "agent_skipped": totals["skipped"],
                       "agent_cpu_s": round(totals["cpu_seconds"], 6)},
        }

    def failures(self, summary: dict) -> List[str]:
        # 6 agents per host, one wake each per 300 s grid point
        want = 6 * self.size["hosts"] * int(self.size["horizon_s"] / 300.0)
        out = []
        if summary["sim.events"] != want:
            out.append(f"sim.events {summary['sim.events']} != {want}")
        if summary["faults.detected"]:
            out.append(f"{summary['faults.detected']} fault findings on "
                       f"a clean fleet")
        return out


class SiteStorm(_Workload):
    name = "site-storm-200"
    # The region is a fixed number of events, not a fixed horizon: how
    # long faults linger (and keep agents off their back-off) swings
    # events per simulated hour by +-15 % between seeds, while host
    # cost per event is steady.  ``storm_h`` only has to outlast it.
    sizes = {"full": {"hosts": 200, "events": 24_000, "storm_h": 8.0,
                      "min_faults": 120},
             "quick": {"hosts": 50, "events": 3_000, "storm_h": 4.0,
                       "min_faults": 20}}

    def setup(self) -> None:
        from repro.experiments.fullyear import site_config
        from repro.experiments.runner import FidelityHarness
        from repro.experiments.site import build_site
        from repro.faults.models import Category
        from repro.trace import install_tracer
        from repro.traffic.engine import FluidTrafficEngine, doors_for_site
        from repro.traffic.workload import financial_curve

        site = build_site(site_config(hosts=self.size["hosts"],
                                      seed=self.seed, observe=True))
        self.site = site
        self.tracer = install_tracer(site.sim)
        self.harness = FidelityHarness(site)
        self.curve = financial_curve(1_000_000)
        doors = doors_for_site(site)
        self.engine = FluidTrafficEngine(site.sim, self.curve, doors,
                                         site.streams, step=60.0)
        for door in doors.values():
            door.attach_ledger(site.ledger)
        self.engine.start()
        site.telemetry.attach_slis(self.engine.slis)
        self.harness.injector.schedule_poisson(
            {c: STORM_RATE for c in Category},
            self.size["storm_h"] * 3600.0)
        self.events0 = site.sim.events_processed

    def run(self) -> None:
        from repro.observe.incidents import build_reports, reconcile
        site, harness = self.site, self.harness
        site.sim.run(max_events=self.size["events"])
        harness.scan_flags_for_detection()
        horizon = site.sim.now
        self.reports = build_reports(
            self.tracer, downtime=harness.ledger, horizon=horizon,
            hub=site.telemetry, admin=site.admin, relocator=site.relocator,
            alerts=site.alerts, curve=self.curve, qos_step=60.0)
        self.recon = reconcile(self.reports, downtime=harness.ledger,
                               curve=self.curve, horizon=horizon,
                               qos_step=60.0)

    def summary(self) -> dict:
        from repro.traffic.slo import rollup_slis
        site, harness = self.site, self.harness
        incidents = harness.ledger.incidents
        relocator = site.relocator
        return {
            "sim.events": site.sim.events_processed - self.events0,
            "faults.injected": len(harness.injector.injected),
            "faults.detected": sum(1 for i in incidents
                                   if i.detected_at is not None),
            "ops.downtime_h": round(
                sum(harness.downtime_hours().values()), 9),
            "core.admin.decisions": len(site.admin.decisions),
            "controlplane.ledger.conditions": site.ledger.appended,
            "wake.demand_wakes": int(_suite_totals(
                site.suites.values())["demand_wakes"]),
            "relocate.attempted": len(relocator.records),
            "relocate.succeeded": relocator.succeeded,
            "trace.spans": len(self.tracer.spans),
            "observe.hub.ticks": site.telemetry.ticks,
            "observe.alerts.pages": site.alerts.pages_sent,
            "traffic.availability": round(rollup_slis(
                self.engine.slis.values())["availability"], 9),
            "traffic.user_minutes_lost": round(
                self.recon["user_minutes_joined"], 6),
            "detail": {"harness": harness.summary(),
                       "reports": len(self.reports),
                       "downtime_ok": self.recon["downtime_ok"]},
        }

    def failures(self, summary: dict) -> List[str]:
        out = []
        if summary["sim.events"] != self.size["events"]:
            out.append(f"sim.events {summary['sim.events']} != "
                       f"{self.size['events']}")
        if summary["faults.injected"] < self.size["min_faults"]:
            out.append(f"only {summary['faults.injected']} faults injected "
                       f"(< {self.size['min_faults']})")
        if not summary["detail"]["downtime_ok"]:
            out.append("incident reports do not reconcile with the "
                       "downtime ledger")
        return out


class FedSiteLoss(_Workload):
    name = "fed-siteloss-1m"
    sizes = {"full": {"population": 1_000_000, "loss_at_h": 3.0,
                      "observe_h": 39.0},
             "quick": {"population": 1_000_000, "loss_at_h": 3.0,
                       "observe_h": 9.0}}
    lost_site = "hkg"

    def setup(self) -> None:
        from repro.federation import build_federation
        from repro.federation.config import three_site_config
        self.fed = build_federation(three_site_config(
            population=self.size["population"], seed=self.seed))
        self.fed.start_traffic()
        self.start = self.fed.now
        self.events0 = self._events()

    def _events(self) -> int:
        return sum(site.sim.events_processed
                   for site in self.fed.sites.values())

    def run(self) -> None:
        fed = self.fed
        fed.run(self.size["loss_at_h"] * 3600.0 - fed.now)
        hosts = fed.sites[self.lost_site].dc.hosts
        for name in sorted(hosts):
            hosts[name].crash()
        fed.run(self.size["observe_h"] * 3600.0)

    def summary(self) -> dict:
        fed = self.fed
        detail = fed.summary()
        return {
            "sim.events": self._events() - self.events0,
            "federation.barriers": round((fed.now - self.start)
                                         / fed.config.epoch),
            "relocate.crosssite.succeeded": detail["crosssite"]["succeeded"],
            "traffic.availability": detail["global"]["availability"],
            "traffic.user_minutes_lost":
                detail["global"]["user_minutes_lost"],
            "core.admin.decisions": sum(len(site.admin.decisions)
                                        for site in fed.sites.values()),
            "controlplane.ledger.conditions": sum(
                site.ledger.appended for site in fed.sites.values()),
            "detail": detail,
        }

    def failures(self, summary: dict) -> List[str]:
        out = []
        if summary["detail"]["site_loss_events"] != 1:
            out.append(f"site_loss_events "
                       f"{summary['detail']['site_loss_events']} != 1")
        if not summary["relocate.crosssite.succeeded"] > 0:
            out.append("no cross-site takeover succeeded")
        if not 0.0 < summary["traffic.availability"] < 1.0:
            out.append(f"availability {summary['traffic.availability']} "
                       f"not strictly inside (0, 1)")
        return out


class ChaosFuzz(_Workload):
    name = "chaos-fuzz-36"
    sizes = {"full": {"episodes": 36}, "quick": {"episodes": 14}}

    def setup(self) -> None:
        from repro.chaos.fuzzer import ScenarioFuzzer
        n = self.size["episodes"]
        self.fuzzer = ScenarioFuzzer(self.seed, episodes=n, batch=10,
                                     max_violations=n, processes=1)

    def run(self) -> None:
        self.result = self.fuzzer.run()

    def summary(self) -> dict:
        detail = self.result.to_dict()
        return {
            "chaos.coverage_markers": detail["coverage_markers"],
            "chaos.admitted": len(detail["admitted"]),
            "chaos.violations": len(detail["violations"]),
            "detail": detail,
        }

    def failures(self, summary: dict) -> List[str]:
        # An oracle violation is the fuzzer's finding about the system
        # (seed 25 finds a scan/ledger divergence with both admin hosts
        # down), counted in ``chaos.violations``; only an episode that
        # crashed is a failed operation.
        detail = summary["detail"]
        out = []
        if detail["episodes"] != self.size["episodes"]:
            out.append(f"{detail['episodes']} episodes ran, wanted "
                       f"{self.size['episodes']}")
        if detail["errors"]:
            out.append(f"{len(detail['errors'])} episode error(s): "
                       f"{detail['errors'][0]}")
        return out


class PersistCycle(_Workload):
    name = "persist-cycle-300"
    # The storm stops with the warm-up and the site then settles: a
    # data restore in flight defers a checkpoint for tens of simulated
    # minutes, so cycling under a live storm makes the number of cycles
    # that complete a property of the seed.
    sizes = {"full": {"hosts": 300, "cycles": 3, "storm_h": 0.5,
                      "settle_h": 0.5, "segment_h": 0.25},
             "quick": {"hosts": 200, "cycles": 1, "storm_h": 0.5,
                       "settle_h": 0.5, "segment_h": 0.25}}

    def setup(self) -> None:
        from repro.experiments.fullyear import site_config
        from repro.experiments.runner import FidelityHarness
        from repro.experiments.site import build_site
        from repro.faults.models import Category
        size = self.size
        self.harness = FidelityHarness(build_site(
            site_config(hosts=size["hosts"], seed=self.seed)))
        self.harness.injector.schedule_poisson(
            {c: PERSIST_RATE for c in Category}, size["storm_h"] * 3600.0)
        self.harness.run_hours(size["storm_h"] + size["settle_h"])
        self.events0 = self.harness.sim.events_processed
        self.hashes: List[str] = []
        self.mismatches: List[str] = []
        self.bytes = 0
        self.deferred = 0

    def run(self) -> None:
        from repro.experiments.runner import FidelityHarness
        from repro.persist import CheckpointManager
        for cycle in range(self.size["cycles"]):
            harness = self.harness
            mgr = CheckpointManager(harness.site, self.scratch,
                                    extras=harness._extras(),
                                    label=f"cycle{cycle}")
            path = mgr.epoch(force=True)
            while path is None and mgr.deferred <= DEFER_TRIES:
                harness.sim.run(until=harness.sim.now + DEFER_STEP_S)
                path = mgr.epoch(force=True)
            self.deferred += mgr.deferred
            if path is None:
                self.mismatches.append(
                    f"cycle {cycle}: still not quiescent after "
                    f"{DEFER_TRIES} retries")
                return
            self.bytes += os.path.getsize(path)
            self.harness = FidelityHarness.resume(
                CheckpointManager.load(path))
            rehash = self.harness.snapshot()["state_hash"]
            if rehash != mgr.last_hash:
                self.mismatches.append(
                    f"cycle {cycle}: restored world hashes to {rehash}, "
                    f"checkpoint was {mgr.last_hash}")
            self.hashes.append(mgr.last_hash)
            self.harness.run_hours(self.size["segment_h"])

    def summary(self) -> dict:
        harness = self.harness
        return {
            "sim.events": harness.sim.events_processed - self.events0,
            "faults.injected": len(harness.injector.injected),
            "ops.downtime_h": round(
                sum(harness.downtime_hours().values()), 9),
            "persist.checkpoint.bytes": self.bytes,
            "persist.deferred": self.deferred,
            "detail": {"state_hashes": self.hashes,
                       "mismatches": self.mismatches,
                       "harness": harness.summary()},
        }

    def failures(self, summary: dict) -> List[str]:
        out = list(summary["detail"]["mismatches"])
        if len(summary["detail"]["state_hashes"]) != self.size["cycles"]:
            out.append(f"{len(summary['detail']['state_hashes'])} of "
                       f"{self.size['cycles']} cycles completed")
        return out


WORKLOADS = {cls.name: cls for cls in (FleetClean, SiteStorm, FedSiteLoss,
                                       ChaosFuzz, PersistCycle)}
