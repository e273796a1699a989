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
  spans and live batch jobs have no serialisable representation;
  snapshots are only legal at barriers where none exist.  The
  checkpoint manager defers to the next epoch when one trips.

Checkpointable configurations run with the overnight workload off: it
drives generator processes whose continuations live in Python frames,
which this layer deliberately refuses to pickle.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, Optional

from repro.persist.core import (FORMAT_VERSION, QuiescenceError,
                                check_format, claimed_of, collector_paused,
                                discard, restore_node, seal, snapshot_node)

__all__ = ["snapshot_site", "sealed_site", "restore_site", "fresh_site"]


# -- quiescence --------------------------------------------------------------

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


# -- the component table --------------------------------------------------------

def _attr(name: str):
    return name, attrgetter(name)


#: Every stateful layer of a Site above the kernel, in document order:
#: ``(snapshot key, site -> component | {name: ...} | None)``.  The
#: snapshot walk, the restore walk and the claimed-event walk all read
#: this one table, so a new layer is one row.
_LAYERS = (
    ("lans", lambda site: dict(sorted(site.dc.lans.items()))),
    ("hosts", lambda site: dict(sorted(site.dc.hosts.items()))),
    ("apps", lambda site: {name: dict(sorted(host.apps.items()))
                           for name, host in sorted(site.dc.hosts.items())}),
    *map(_attr, ("nameservice", "channel", "pool", "notifications", "lsf")),
    ("services", lambda site: {svc.name: svc for svc in site.services}),
    ("suites", lambda site: dict(sorted(site.suites.items()))),
    *map(_attr, ("ledger", "admin", "jobmgr", "spares", "relocator",
                 "reroute", "telemetry", "alerts")),
)


def _layers(site, extras: Mapping[str, object]):
    """``(key, node)`` per layer, the harness extras last.  Lazy: a
    layer is looked up when the walk reaches it."""
    for key, get in _LAYERS:
        yield key, get(site)
    yield "extras", dict(sorted(extras.items()))


def _claims(layers) -> Dict[int, str]:
    """seq -> owner for every pending event a component of the given
    ``(key, node)`` layers claims."""
    claimed: Dict[int, str] = {}

    def walk(node, owner: str) -> None:
        if isinstance(node, dict):
            for name, child in node.items():
                walk(child, f"{owner}/{name}")
        elif node is not None:
            _claim(claimed, owner, claimed_of(node))

    for key, node in layers:
        walk(node, key)
    return claimed


def _tracer_of(site):
    from repro.trace.tracer import NULL_TRACER
    tracer = site.sim.tracer
    return None if tracer is NULL_TRACER else tracer


def snapshot_site(site, *, extras: Optional[Mapping[str, object]] = None
                  ) -> dict:
    """One dict for the whole world, sealed.

    ``extras`` adds harness-owned components (fault injector, downtime
    ledger, ...) by name; each must be Snapshottable
    and participates in claimed-event coverage when it owns events.
    The same names must be passed to :func:`restore_site`.  The hash is
    taken without keeping a piece of the encoding.
    """
    return sealed_site(site, extras, write=discard)


def sealed_site(site, extras: Optional[Mapping[str, object]] = None, *,
                write: Callable[[str], object]) -> dict:
    """:func:`snapshot_site`'s document, its canonical JSON handed to
    ``write`` in pieces as it is sealed (:func:`~repro.persist.core.seal`)
    -- for the checkpoint writer and the federation walk, which would
    otherwise encode the document again."""
    extras = dict(extras or {})
    if site.config.with_workload:       # the rest is each component's guard
        raise QuiescenceError(
            "checkpointable configurations need with_workload=False (its "
            "generator processes cannot be serialised)")

    tracer = _tracer_of(site)
    state: dict = {
        "format": FORMAT_VERSION,
        "config": asdict(site.config),
        "kernel": site.sim.snapshot_state(),
        "rng": site.streams.getstate(),
        "tracer": tracer.snapshot_state() if tracer is not None else None,
    }
    layers = list(_layers(site, extras))
    for key, node in layers:
        state[key] = snapshot_node(node)

    _coverage_check(site, _claims(layers))
    seal(state, write=write)
    return state


@collector_paused
def fresh_site(snapshot: dict):
    """Check a site document, then build the (not yet restored) site it
    describes -- for callers that wire a harness around the site before
    handing both to :func:`restore_site`.  A config whose keys are not
    :class:`SiteConfig`'s fields is refused before anything is built."""
    from repro.experiments.site import SiteConfig, build_site
    check_format(snapshot, "site")
    config = snapshot["config"]
    known = {f.name for f in fields(SiteConfig)}
    if set(config) != known:
        raise ValueError(
            f"checkpoint config does not match SiteConfig: "
            f"unknown={sorted(set(config) - known)} "
            f"missing={sorted(known - set(config))}")
    return build_site(SiteConfig(**config))


@collector_paused
def restore_site(snapshot: dict, *, site=None,
                 extras: Optional[Mapping[str, object]] = None):
    """Rebuild the snapshotted world and return the restored Site.

    Without ``site``, a fresh one is built from the snapshot's config
    (a caller with a harness builds it through :func:`fresh_site`,
    wires the harness, and passes both the site and the extras
    mapping).  The fresh world's schedule is wiped and every
    pending event re-armed at its exact saved token, so the first event
    the resumed run pops is the one the snapshotted run would have
    popped next.
    """
    check_format(snapshot, "site")
    extras = dict(extras or {})
    if set(snapshot["extras"]) != set(extras):
        raise KeyError(
            f"snapshot carries extras {sorted(snapshot['extras'])} but "
            f"the restore targets supplied are {sorted(extras)}")
    if site is None:
        site = fresh_site(snapshot)
    elif asdict(site.config) != snapshot["config"]:
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

    for key, node in _layers(site, extras):
        restore_node(node, snapshot[key], key)

    # the re-armed heap must be exactly the claimed set the snapshot
    # covered -- anything else means a restore path scheduled fresh work
    live = sorted(ev.seq for ev in sim.live_events())
    claimed = sorted(_claims(_layers(site, extras)))
    if live != claimed:
        raise QuiescenceError(
            f"restored heap does not match claims: live={live[:12]} "
            f"claimed={claimed[:12]}")
    return site
