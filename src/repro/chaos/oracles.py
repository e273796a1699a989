"""Invariant oracles: the guardrails the repo already trusts, packaged.

Each oracle inspects one site's share of a finished
:class:`~repro.chaos.executor.Episode` (its book: ``site``,
``reference``, ``reconciliation``, ``horizon``) and returns a list of
violation strings (empty = clean); :func:`run_oracles` runs them over
every site of the episode.  None of them
encode new theory -- they are exactly the invariants earlier PRs
established as permanent regression guards, now run after *every*
fuzzed episode instead of only inside their home test files:

- **scan-ledger-parity** -- the ledger-driven sweep plans and DGSPL
  builds must be byte-identical to a full rescan's (PR 4's contract).
  The rescan is :class:`ScanReference`, below: the executor attaches
  one to every site it builds, so the comparison is made on every
  sweep and every build of every episode.
- **deadline-wheel** -- the watchdog's staleness wheel must never lose
  a watched agent key and never resurrect a dropped one.
- **stuck-relocations** -- every relocation that started with enough
  budget left must finish: cutover or rollback, never limbo.
- **downtime-reconciliation** -- per-incident report downtime must sum
  exactly to the DowntimeLedger's horizon-clamped total
  (:func:`repro.observe.incidents.reconcile`).
- **notification-storm** -- no recipient is paged more than a bounded
  number of times per simulated hour; a healing system that fixes the
  fault but melts the pager is a failure.
- **host-books** -- what a host keeps instead of recounting (the
  process table's runnable / blocked counts, the inventory's online
  units and effective capacity) equals a from-scratch recount, on
  every host, after whatever the episode did to it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.cluster.hardware import ComponentKind, ComponentState
from repro.cluster.process import RUNNABLE_CPU_THRESHOLD, ProcState
from repro.persist.core import Persistent, scalars

__all__ = ["OracleVerdict", "ORACLES", "run_oracles", "ScanReference",
           "NOTIFY_STORM_BOUND", "table_books", "inventory_books"]

#: max pages one recipient may receive per simulated hour
NOTIFY_STORM_BOUND = 30


@dataclass(frozen=True)
class OracleVerdict:
    """One oracle's view of one episode."""

    oracle: str
    ok: bool
    violations: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"oracle": self.oracle, "ok": self.ok,
                "violations": list(self.violations)}


class ScanReference(Persistent):
    """The paper-faithful control plane (§3.1.2), kept as the reference
    judge outside the system under test: read every agent's flag
    directory on every host every sweep, rebuild the DGSPL from every
    fresh DLSP every cycle.

    :meth:`plan_sweep` and :meth:`build_dgspl` recompute from scratch,
    through the pair's own per-host judgement, what the pair derives
    from its ledger.  :meth:`attach` wraps the pair's planner and DGSPL
    assembly so every cycle is compared, divergences are counted here
    and the rescan result is what gets applied.  Snapshottable, so an
    attached reference rides a checkpoint's ``extras``.
    """

    _persist = scalars(int, "sweep_mismatches", "dgspl_mismatches")

    def __init__(self, admin):
        self.admin = admin
        self.sweep_mismatches = 0
        self.dgspl_mismatches = 0

    @classmethod
    def attach(cls, admin) -> "ScanReference":
        ref = cls(admin)
        plan_ledger = admin._plan_sweep_ledger
        assemble = admin._assemble_dgspl_incremental

        def plan_checked(now, head):
            plan, examined = plan_ledger(now, head)
            truth = ref.plan_sweep(now, head)
            if plan != truth:
                ref.sweep_mismatches += 1
            return truth, examined

        def assemble_checked(now):
            dgspl = assemble(now)
            truth = ref.build_dgspl(now)
            if truth.render() != dgspl.render():
                ref.dgspl_mismatches += 1
                return truth
            return dgspl

        admin._plan_sweep_ledger = plan_checked
        admin._assemble_dgspl_incremental = assemble_checked
        return ref

    def stale_agents(self, host, suite, now: float) -> List[str]:
        """Agents whose freshest flag *on disk* is older than their
        *live* wake period plus the grace (agents without a wake
        controller -- fixtures, stubs -- run at the base period).  The
        directory is read through the agent's own store: a pure read."""
        admin = self.admin
        stale = []
        for agent in suite.agents:
            latest = agent.flags.latest_time()
            period = getattr(getattr(agent, "wake", None),
                             "current_period", admin.agent_period)
            if now - latest > period + admin.flag_grace:
                stale.append(agent.name)
        return stale

    def plan_sweep(self, now: float, head) -> List[tuple]:
        """Examine every host, read every flag directory:
        O(hosts x agents) per sweep."""
        admin = self.admin
        plan = []
        for host_name, suite in admin.suites.items():
            decision = admin._judge_host(host_name, suite, now, head,
                                         self.stale_agents)
            if decision is not None:
                plan.append(decision)
        return plan

    def build_dgspl(self, now: float):
        """Walk every DLSP on the books and rebuild the whole list."""
        from repro.ontology.dgspl import build_dgspl
        admin = self.admin
        return build_dgspl(
            [d for d in admin.dlsps.values()
             if d.is_fresh(now, admin._dlsp_window(d.hostname))], now)


def scan_ledger_parity(ep) -> List[str]:
    ref = ep.reference
    out = []
    if ref.sweep_mismatches:
        out.append(f"{ref.sweep_mismatches} sweep plan(s) diverged "
                   f"between scan and ledger control planes")
    if ref.dgspl_mismatches:
        out.append(f"{ref.dgspl_mismatches} DGSPL build(s) diverged "
                   f"between scan and ledger control planes")
    return out


def deadline_wheel(ep) -> List[str]:
    admin = ep.site.admin
    if admin is None:
        return []
    wheel = admin._wheel
    out = []
    tracked = set(wheel._deadline)
    # never lose: every agent of every registered suite stays tracked
    for host_name, suite in admin.suites.items():
        for agent in suite.agents:
            key = (host_name, agent.name)
            if key not in tracked:
                out.append(f"watched agent key {key} lost from the "
                           f"deadline wheel")
    # never resurrect: the due set only contains tracked keys
    for key in wheel._due:
        if key not in tracked:
            out.append(f"dropped key {key} resurrected in the due set")
    return out


def stuck_relocations(ep) -> List[str]:
    relocator = ep.site.relocator
    if relocator is None:
        return []
    out = []
    horizon = ep.horizon
    for rec in relocator.records:
        if rec.finished is None and \
                rec.started + relocator.budget < horizon:
            out.append(f"relocation of {rec.subject} stuck in phase "
                       f"{rec.phase!r} (started {rec.started:.0f}, "
                       f"budget long expired)")
    for subject in relocator.active:
        recs = [r for r in relocator.records if r.subject == subject]
        if recs and recs[-1].started + relocator.budget < horizon:
            out.append(f"relocation of {subject} still marked active "
                       f"at horizon")
    return out


def downtime_reconciliation(ep) -> List[str]:
    recon = ep.reconciliation
    if not recon:
        return []
    if recon.get("downtime_ok", True):
        return []
    return [f"incident-report downtime {recon['downtime_reports_h']:.6f} h "
            f"!= downtime-ledger {recon['downtime_ledger_h']:.6f} h"]


def notification_storm(ep) -> List[str]:
    """Pages per recipient per simulated hour stay bounded."""
    buckets: Dict[Tuple[str, int], int] = defaultdict(int)
    for note in ep.site.notifications.sent:
        buckets[(note.recipient, int(note.time // 3600.0))] += 1
    out = []
    for (recipient, hour), n in sorted(buckets.items()):
        if n > NOTIFY_STORM_BOUND:
            out.append(f"{recipient} paged {n}x in sim hour {hour} "
                       f"(bound {NOTIFY_STORM_BOUND})")
    return out


def table_books(ptable) -> Tuple[Dict[str, int], Dict[str, int]]:
    """(kept, recounted): the process table's run-queue books beside
    the same numbers counted from its entries."""
    procs = list(ptable)
    return ({"runnable": ptable.runnable(), "blocked": ptable.blocked()},
            {"runnable": sum(1 for p in procs
                             if p.state is ProcState.RUNNING
                             and p.cpu_pct >= RUNNABLE_CPU_THRESHOLD),
             "blocked": sum(1 for p in procs
                            if p.state is ProcState.BLOCKED)})


def inventory_books(inv) -> Tuple[Dict[str, int], Dict[str, int]]:
    """(kept, recounted): the inventory's capacity books beside the
    same numbers counted from its components."""
    kept = {kind.value: inv.online(kind) for kind in ComponentKind}
    kept["cpus"] = inv.effective_cpus()
    kept["ram_mb"] = inv.effective_ram_mb()
    recount = {kind.value: sum(1 for c in inv.of_kind(kind)
                               if c.state is not ComponentState.FAILED)
               for kind in ComponentKind}
    recount["cpus"] = inv._scaled(inv.spec.cpus, ComponentKind.CPU_BOARD)
    recount["ram_mb"] = inv._scaled(inv.spec.ram_mb,
                                    ComponentKind.MEMORY_BANK)
    return kept, recount


def host_books(ep) -> List[str]:
    out = []
    for name, host in sorted(ep.site.dc.hosts.items()):
        for kept, recount in (table_books(host.ptable),
                              inventory_books(host.inventory)):
            out.extend(f"{name}: kept {key} {kept[key]} != recount {n}"
                       for key, n in recount.items() if kept[key] != n)
    return out


#: name -> oracle fn(one site's episode book) -> violations
ORACLES: Dict[str, Callable] = {
    "scan-ledger-parity": scan_ledger_parity,
    "deadline-wheel": deadline_wheel,
    "stuck-relocations": stuck_relocations,
    "downtime-reconciliation": downtime_reconciliation,
    "notification-storm": notification_storm,
    "host-books": host_books,
}


def run_oracles(ep, names=None) -> List[OracleVerdict]:
    """Run every (or the named) oracle over every site of a finished
    episode; a multi-site episode labels its verdicts ``site:oracle``."""
    verdicts = []
    for site_name, book in ep.books.items():
        label = f"{site_name}:" if len(ep.books) > 1 else ""
        for name in (names if names is not None else ORACLES):
            violations = tuple(ORACLES[name](book))
            verdicts.append(OracleVerdict(label + name, not violations,
                                          violations))
    return verdicts
