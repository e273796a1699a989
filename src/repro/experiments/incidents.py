"""The incident-report workflow: campaign -> alerts -> post-mortems.

Runs a short full-fidelity fault storm on the live site with the whole
observability tier deployed: traffic flows through the front doors, the
telemetry hub rolls SLIs and conditions into ring series, burn-rate
rules page the simulated on-call, and afterwards every fault id is
joined into a causal :class:`~repro.observe.incidents.IncidentReport`.

Two claims are checked every run (and asserted by the tier-1 tests):

- **accounting closes** -- the reports' downtime and user-minutes
  totals reconcile with the :class:`~repro.ops.downtime.DowntimeLedger`
  and the ``traffic/slo.py`` demand join (same windows, same grid);
- **alerts beat the cron grid** -- the paper's agents detect on a
  ~``agent_period`` (300 s) wake grid; the burn-rate page for each
  user-visible fault must land inside that bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.report import table
from repro.experiments.runner import FidelityHarness
from repro.experiments.site import SiteConfig, build_site
from repro.observe.incidents import (IncidentReport, build_reports,
                                     reconcile, render_markdown_all,
                                     reports_to_json)
from repro.sim.calendar import HOUR, MINUTE
from repro.trace import install_tracer
from repro.traffic.engine import FluidTrafficEngine, doors_for_site
from repro.traffic.workload import financial_curve

__all__ = ["IncidentRunResult", "run", "format_result"]


@dataclass
class IncidentRunResult:
    """Everything the CLI, tests and CI artifacts need from one run."""

    seed: int
    population: int
    horizon: float
    agent_period: float
    reports: List[IncidentReport]
    reconciliation: dict
    #: fault_id -> seconds from injection to first burn-rate page
    alert_latency: Dict[str, float] = field(default_factory=dict)
    pages_sent: int = 0
    board: str = ""
    #: where --json / --markdown wrote the reports, as printed lines
    artifacts: str = ""

    @property
    def detection_bound(self) -> float:
        """The cron-grid bound alerts must beat: one agent period."""
        return self.agent_period

    @property
    def alerts_beat_cron(self) -> bool:
        if not self.alert_latency:
            return False
        return all(lat < self.detection_bound
                   for lat in self.alert_latency.values())

    def to_json(self) -> dict:
        doc = reports_to_json(self.reports, self.reconciliation)
        doc["run"] = {
            "seed": self.seed, "population": self.population,
            "horizon_s": self.horizon,
            "detection_bound_s": self.detection_bound,
            "alert_latency_s": dict(sorted(self.alert_latency.items())),
            "alerts_beat_cron": self.alerts_beat_cron,
            "pages_sent": self.pages_sent,
        }
        return doc

    def to_markdown(self) -> str:
        head = [
            "# Incident-report workflow run", "",
            f"- seed {self.seed}, population {self.population:,}, "
            f"horizon {self.horizon / HOUR:.1f} h",
            f"- burn-rate pages: {self.pages_sent} sent",
            f"- cron-grid detection bound: {self.detection_bound:.0f} s; "
            f"alerts beat it: {self.alerts_beat_cron}", "",
        ]
        return "\n".join(head) + render_markdown_all(self.reports,
                                                     self.reconciliation)


def _observed_site(seed: int, population: int):
    """The test-scale live site with one spare and the observability
    tier, ``population`` users flowing through front doors that the
    relocation tier reroutes: ``(site, harness, tracer, curve, doors)``.
    """
    site = build_site(SiteConfig.test_scale(
        seed=seed, spare_servers=1, with_workload=False, with_feeds=False,
        observe=True))
    tracer = install_tracer(site.sim)
    harness = FidelityHarness(site)

    curve = financial_curve(population)
    doors = doors_for_site(site)
    engine = FluidTrafficEngine(site.sim, curve, doors, site.streams,
                                step=60.0)
    for door in doors.values():
        # drain / cutover reach the door; so do the ledger's conditions
        site.reroute.register_door(door)
    engine.start()
    site.telemetry.attach_slis(engine.slis)
    return site, harness, tracer, curve, doors


def run(seed: int = 0, *, population: int = 1_000_000,
        json_out: Optional[str] = None,
        markdown: Optional[str] = None) -> IncidentRunResult:
    """One observed fault storm on the test-scale live site.

    Traffic runs two hours before the first injection (burn-rate
    baselines need history) and two hours after the last, so
    healing/relocation and alert resolution complete.  ``json_out`` /
    ``markdown`` name files for the full reports, machine- and
    human-readable.
    """
    site, harness, tracer, curve, _doors = _observed_site(seed, population)
    site.run(2 * HOUR)

    inj = harness.injector
    faults = []
    faults.append(inj.db_crash(site.databases[1]))
    site.run(40 * MINUTE)
    faults.append(inj.app_hang(site.frontends[0]))
    site.run(40 * MINUTE)
    faults.append(inj.app_crash(site.webservers[1]))
    site.run(2 * HOUR)

    harness.scan_flags_for_detection()
    horizon = site.sim.now

    reports = build_reports(
        tracer, downtime=harness.ledger, horizon=horizon,
        hub=site.telemetry, admin=site.admin, relocator=site.relocator,
        alerts=site.alerts, curve=curve, qos_step=MINUTE)
    recon = reconcile(reports, downtime=harness.ledger, curve=curve,
                      horizon=horizon, qos_step=MINUTE)

    latency: Dict[str, float] = {}
    for rep in reports:
        if rep.injected_at is not None and rep.first_alert_at is not None:
            latency[rep.fault_id] = rep.first_alert_at - rep.injected_at

    from repro.ops.console import OperatorConsole
    console = OperatorConsole(site.notifications, site.sim)
    console.attach_alerts(site.alerts)

    result = IncidentRunResult(
        seed=seed, population=population, horizon=horizon,
        agent_period=site.config.agent_period, reports=reports,
        reconciliation=recon,
        alert_latency=latency,
        pages_sent=site.alerts.pages_sent,
        board=console.board())
    if json_out:
        with open(json_out, "w") as fh:
            json.dump(result.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        result.artifacts += f"\n[incident reports written to {json_out}]"
    if markdown:
        with open(markdown, "w") as fh:
            fh.write(result.to_markdown())
        result.artifacts += (f"\n[markdown post-mortems written to "
                             f"{markdown}]")
    return result


def format_result(result: IncidentRunResult) -> str:
    rows = []
    for rep in result.reports:
        lat = result.alert_latency.get(rep.fault_id)
        det = rep.detected_at
        rows.append((
            rep.fault_id or "(none)", rep.kind or rep.category or "?",
            rep.target,
            "-" if lat is None else f"{lat:.0f}",
            "-" if det is None or rep.injected_at is None
            else f"{det - rep.injected_at:.0f}",
            rep.resolved_by,
            f"{rep.downtime_s / 60.0:.1f}",
            f"{rep.user_minutes:,.0f}"))
    body = table(
        ["fault", "kind", "target", "page (s)", "agent det (s)",
         "resolved by", "downtime (min)", "user-min lost"],
        rows,
        title=(f"Incident reports -- seed {result.seed}, "
               f"{result.population:,} users, "
               f"{result.horizon / HOUR:.1f} h horizon"))
    recon = result.reconciliation
    lines = [
        body, "",
        f"burn-rate pages: {result.pages_sent} sent; detection bound "
        f"{result.detection_bound:.0f} s (cron grid); "
        f"alerts beat it: {result.alerts_beat_cron}",
        f"reconciliation: downtime reports "
        f"{recon['downtime_reports_h']:.4f} h vs ledger "
        f"{recon['downtime_ledger_h']:.4f} h "
        f"[{'OK' if recon['downtime_ok'] else 'MISMATCH'}]",
    ]
    if "user_minutes_joined" in recon:
        lines.append(
            f"                user-minutes reports "
            f"{recon['user_minutes_reports']:,.1f} vs joined "
            f"{recon['user_minutes_joined']:,.1f} "
            f"[{'OK' if recon['user_minutes_ok'] else 'MISMATCH'}]")
    lines.append("")
    lines.append(result.board)
    return "\n".join(lines) + result.artifacts
