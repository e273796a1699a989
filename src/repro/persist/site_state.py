"""Whole-site snapshot/restore.

:func:`snapshot_site` walks every stateful layer of a built
:class:`~repro.experiments.site.Site` and returns one strictly-JSON
dict; :func:`restore_site` rebuilds the same site fresh (via
:func:`~repro.experiments.site.build_site`, which is deterministic),
wipes its schedule, and overwrites every layer from the snapshot,
re-arming each pending event at its exact saved heap token.  The two
are inverses: a restored world produces byte-identical summaries,
decision logs and coverage signatures to the world that never stopped.

Two safety rails make that claim checkable rather than hopeful:

- **claimed-event coverage** -- every live heap event must be claimed
  by exactly one component's ``claimed_seqs()``.  An unclaimed event
  means some layer scheduled work the snapshot cannot carry across;
  the snapshot is refused (:class:`QuiescenceError`) instead of
  silently dropping the event.
- **quiescence predicates** -- in-flight relocations, open tracer
  spans, live batch jobs and in-progress DB backups have no
  serialisable representation; snapshots are only legal at barriers
  where none exist.  The checkpoint manager defers to the next epoch
  when one trips.

Checkpointable configurations run with the overnight workload and the
market feeds off: both drive generator processes whose continuations
live in Python frames, which this layer deliberately refuses to pickle.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Mapping, Optional

from repro.persist.core import (FORMAT_VERSION, QuiescenceError,
                                check_format, claimed_of, state_hash)

__all__ = ["snapshot_site", "restore_site"]


# -- quiescence --------------------------------------------------------------

def _check_quiescent(site, extras: Mapping[str, object]) -> None:
    """All the reasons a snapshot must be refused, with names."""
    cfg = site.config
    if cfg.with_workload or cfg.with_feeds:
        raise QuiescenceError(
            "checkpointable configurations need with_workload=False and "
            "with_feeds=False (their generator processes cannot be "
            "serialised)")
    tracer = site.sim.tracer
    if getattr(tracer, "_stack", None):
        raise QuiescenceError(
            f"{len(tracer._stack)} tracer span(s) still open")
    if site.relocator is not None and site.relocator.active:
        raise QuiescenceError(
            f"relocations in flight: {sorted(site.relocator.active)}")
    if site.lsf.pending or site.lsf.running:
        raise QuiescenceError(
            f"batch jobs on the books (pending={len(site.lsf.pending)} "
            f"running={len(site.lsf.running)})")
    for db in site.databases:
        if getattr(db, "active_jobs", None):
            raise QuiescenceError(
                f"{db.host.name}/{db.name} has attached batch jobs")


def _coverage_check(site, claimed: Dict[int, str]) -> None:
    """Every live heap event must be claimed by exactly one owner."""
    unclaimed = []
    for ev in site.sim.live_events():
        if ev.seq not in claimed:
            fn = getattr(ev.fn, "__qualname__", repr(ev.fn))
            unclaimed.append(f"seq={ev.seq} t={ev.time:.3f} fn={fn}")
    if unclaimed:
        raise QuiescenceError(
            "unclaimed pending events (no component owns their "
            "re-arm): " + "; ".join(unclaimed[:8])
            + (f" ... +{len(unclaimed) - 8} more"
               if len(unclaimed) > 8 else ""))


def _claim(claimed: Dict[int, str], owner: str, seqs: List[int]) -> None:
    for seq in seqs:
        prev = claimed.get(seq)
        if prev is not None:
            raise QuiescenceError(
                f"event seq {seq} claimed twice: by {prev} and {owner}")
        claimed[seq] = owner


# -- the component walk -------------------------------------------------------

def _tracer_of(site):
    from repro.trace.tracer import NULL_TRACER
    tracer = site.sim.tracer
    return None if tracer is NULL_TRACER else tracer


def snapshot_site(site, *, extras: Optional[Mapping[str, object]] = None
                  ) -> dict:
    """One dict for the whole world.

    ``extras`` adds harness-owned components (fault injector, downtime
    ledger, traffic engine, ...) by name; each must be Snapshottable
    and participates in claimed-event coverage when it owns events.
    The same names must be passed to :func:`restore_site`.
    """
    extras = dict(extras or {})
    _check_quiescent(site, extras)

    claimed: Dict[int, str] = {}
    state: dict = {
        "format": FORMAT_VERSION,
        "config": asdict(site.config),
        "kernel": site.sim.snapshot_state(),
        "rng": site.streams.getstate(),
    }

    tracer = _tracer_of(site)
    state["tracer"] = tracer.snapshot_state() if tracer is not None else None

    state["lans"] = {name: lan.snapshot_state()
                     for name, lan in sorted(site.dc.lans.items())}
    hosts: Dict[str, dict] = {}
    apps: Dict[str, Dict[str, dict]] = {}
    for name, host in sorted(site.dc.hosts.items()):
        hosts[name] = host.snapshot_state()
        _claim(claimed, f"host:{name}", host.claimed_seqs())
        apps[name] = {}
        for app_name, app in sorted(host.apps.items()):
            apps[name][app_name] = app.snapshot_state()
            _claim(claimed, f"app:{name}/{app_name}", app.claimed_seqs())
    state["hosts"] = hosts
    state["apps"] = apps

    state["nameservice"] = site.nameservice.snapshot_state()
    state["channel"] = site.channel.snapshot_state()
    state["pool"] = site.pool.snapshot_state()
    state["notifications"] = site.notifications.snapshot_state()

    state["lsf"] = site.lsf.snapshot_state()
    _claim(claimed, "lsf", site.lsf.claimed_seqs())

    state["services"] = {svc.name: svc.snapshot_state()
                         for svc in site.services}

    state["suites"] = {}
    for name, suite in sorted(site.suites.items()):
        state["suites"][name] = suite.snapshot_state()
        _claim(claimed, f"suite:{name}", suite.claimed_seqs())

    state["ledger"] = (site.ledger.snapshot_state()
                       if site.ledger is not None else None)
    state["admin"] = (site.admin.snapshot_state()
                      if site.admin is not None else None)
    state["jobmgr"] = (site.jobmgr.snapshot_state()
                       if site.jobmgr is not None else None)

    state["spares"] = (site.spares.snapshot_state()
                       if site.spares is not None else None)
    state["relocator"] = (site.relocator.snapshot_state()
                          if site.relocator is not None else None)
    state["reroute"] = (site.reroute.snapshot_state()
                        if site.reroute is not None else None)

    state["telemetry"] = (site.telemetry.snapshot_state()
                          if site.telemetry is not None else None)
    if site.telemetry is not None:
        _claim(claimed, "telemetry", site.telemetry.claimed_seqs())
    state["alerts"] = (site.alerts.snapshot_state()
                       if site.alerts is not None else None)

    state["extras"] = {}
    for name, comp in sorted(extras.items()):
        state["extras"][name] = comp.snapshot_state()
        _claim(claimed, f"extra:{name}", claimed_of(comp))

    _coverage_check(site, claimed)
    state["state_hash"] = state_hash(
        {k: v for k, v in state.items() if k != "state_hash"})
    return state


def restore_site(snapshot: dict, *, site=None,
                 extras: Optional[Mapping[str, object]] = None):
    """Rebuild the snapshotted world and return the restored Site.

    Without ``site``, a fresh one is built from the snapshot's config
    (the caller then wires its own harness around the result *before*
    restoring extras -- pass the pre-built site and the extras mapping
    in that case).  The fresh world's schedule is wiped and every
    pending event re-armed at its exact saved token, so the first event
    the resumed run pops is the one the snapshotted run would have
    popped next.
    """
    check_format(snapshot)
    extras = dict(extras or {})
    missing = set(snapshot.get("extras", {})) - set(extras)
    if missing:
        raise KeyError(
            f"snapshot carries extras {sorted(missing)} with no restore "
            f"target supplied")

    if site is None:
        from repro.experiments.site import SiteConfig, build_site
        site = build_site(SiteConfig(**snapshot["config"]))
    else:
        if asdict(site.config) != snapshot["config"]:
            raise ValueError(
                "supplied site was built from a different config than "
                "the snapshot's")

    sim = site.sim
    sim.restore_state(snapshot["kernel"])
    sim.clear_events()
    site.streams.setstate(snapshot["rng"])

    if snapshot["tracer"] is not None:
        tracer = _tracer_of(site)
        if tracer is None:
            from repro.trace import install_tracer
            tracer = install_tracer(sim)
        tracer.restore_state(snapshot["tracer"])

    for name, lan_state in snapshot["lans"].items():
        site.dc.lans[name].restore_state(lan_state)
    saved_hosts = set(snapshot["hosts"])
    built_hosts = set(site.dc.hosts)
    if saved_hosts != built_hosts:
        raise KeyError(
            f"host set mismatch: snapshot-only={sorted(saved_hosts - built_hosts)} "
            f"build-only={sorted(built_hosts - saved_hosts)}")
    for name in sorted(saved_hosts):
        site.dc.hosts[name].restore_state(snapshot["hosts"][name])
    for name, app_states in snapshot["apps"].items():
        host = site.dc.hosts[name]
        if set(app_states) != set(host.apps):
            raise KeyError(
                f"{name}: app set mismatch (snapshot "
                f"{sorted(app_states)} vs built {sorted(host.apps)})")
        for app_name, app_state in app_states.items():
            host.apps[app_name].restore_state(app_state)

    site.nameservice.restore_state(snapshot["nameservice"])
    site.channel.restore_state(snapshot["channel"])
    site.pool.restore_state(snapshot["pool"])
    site.notifications.restore_state(snapshot["notifications"])
    site.lsf.restore_state(snapshot["lsf"])

    by_name = {svc.name: svc for svc in site.services}
    for name, svc_state in snapshot["services"].items():
        by_name[name].restore_state(svc_state)

    if set(snapshot["suites"]) != set(site.suites):
        raise KeyError("suite set mismatch between snapshot and build")
    for name, suite_state in snapshot["suites"].items():
        site.suites[name].restore_state(suite_state)

    if snapshot["ledger"] is not None:
        site.ledger.restore_state(snapshot["ledger"])
    if snapshot["admin"] is not None:
        site.admin.restore_state(snapshot["admin"])
    if snapshot["jobmgr"] is not None:
        site.jobmgr.restore_state(snapshot["jobmgr"])
    if snapshot["spares"] is not None:
        site.spares.restore_state(snapshot["spares"])
    if snapshot["relocator"] is not None:
        site.relocator.restore_state(snapshot["relocator"])
    if snapshot["reroute"] is not None:
        site.reroute.restore_state(snapshot["reroute"])
    if snapshot["telemetry"] is not None:
        site.telemetry.restore_state(snapshot["telemetry"])
    if snapshot["alerts"] is not None:
        site.alerts.restore_state(snapshot["alerts"])

    for name, comp_state in snapshot.get("extras", {}).items():
        extras[name].restore_state(comp_state)

    # the re-armed heap must be exactly the claimed set the snapshot
    # covered -- anything else means a restore path scheduled fresh work
    live = sorted(ev.seq for ev in sim.live_events())
    claimed: Dict[int, str] = {}
    for name, host in site.dc.hosts.items():
        _claim(claimed, f"host:{name}", host.claimed_seqs())
        for app_name, app in host.apps.items():
            _claim(claimed, f"app:{name}/{app_name}", app.claimed_seqs())
    _claim(claimed, "lsf", site.lsf.claimed_seqs())
    for name, suite in site.suites.items():
        _claim(claimed, f"suite:{name}", suite.claimed_seqs())
    if site.telemetry is not None:
        _claim(claimed, "telemetry", site.telemetry.claimed_seqs())
    for name, comp in extras.items():
        _claim(claimed, f"extra:{name}", claimed_of(comp))
    if live != sorted(claimed):
        raise QuiescenceError(
            f"restored heap does not match claims: live={live[:12]} "
            f"claimed={sorted(claimed)[:12]}")
    return site
