"""Layer attribution measured from outside ``src/``.

One table (:data:`LAYERS`) names the public callables that sit on a
layer boundary of this repo's packages; :func:`traced` swaps each for
a timing shim *before the world is built* (crond captures
``agent.run`` as a bound method at construction) and puts every
original back on exit.  A shim records inclusive wall time, pushes a
frame on an explicit span stack so a layer's **self time** is its
duration minus the time its wrapped children covered, and aggregates
per ``(name, parent name)``.  Nothing under ``src/`` knows it is being
measured; spans inside the program are a later change (ROADMAP item 1).
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "TALLIES", "CRON_JOBS", "BUILDERS", "Recorder",
           "traced"]

#: individual spans are kept only for names rarer than this per child;
#: hotter names keep their aggregate row alone
SPAN_KEEP = 10_000

#: metric prefix -> [(module, class or None, attribute)].  A ``None``
#: class means a module-level function: every ``repro.*`` module that
#: imported it by name is rebound too, so ``from x import f`` call
#: sites see the shim.
LAYERS: Dict[str, List[Tuple[str, Optional[str], str]]] = {
    # sim: Simulator.run minus every wrapped callback = heap + cron re-arm
    "sim.dispatch": [("repro.sim.kernel", "Simulator", "run")],
    # cluster
    "cluster.filesystem.write": [("repro.cluster.filesystem", "FileSystem", "write")],
    "cluster.filesystem.append": [("repro.cluster.filesystem", "FileSystem", "append")],
    "cluster.filesystem.read": [("repro.cluster.filesystem", "FileSystem", "read")],
    "cluster.syslog.log": [("repro.cluster.syslog", "Syslog", "log")],
    "cluster.host.os_metrics": [("repro.cluster.host", "Host", "os_metrics")],
    "cluster.shell.run": [("repro.cluster.shell", "Shell", "run")],
    # core
    "core.agent.run": [("repro.core.agent", "Intelliagent", "run")],
    "core.monitor.os-network": [("repro.core.os_agent", "OsNetworkAgent", "monitor")],
    "core.monitor.hardware": [("repro.core.hardware_agent", "HardwareAgent", "monitor")],
    "core.monitor.performance": [("repro.core.performance_agent", "PerformanceAgent", "monitor")],
    "core.monitor.resource": [("repro.core.resource_agent", "ResourceAgent", "monitor")],
    "core.monitor.service": [("repro.core.service_agent", "ServiceAgent", "monitor")],
    "core.monitor.status": [("repro.core.status_agent", "StatusAgent", "monitor")],
    # the base hook and its one override: together, every clean run
    "core.agent.clean_run": [("repro.core.agent", "Intelliagent", "on_clean_run"),
                             ("repro.core.status_agent", "StatusAgent", "on_clean_run")],
    "core.reasoning.diagnose": [("repro.core.reasoning", "RuleEngine", "diagnose")],
    "core.healing.apply_action": [("repro.core.healing", None, "apply_action")],
    "core.flags.raise_flag": [("repro.core.flags", "FlagStore", "raise_flag")],
    "core.flags.clear_before": [("repro.core.flags", "FlagStore", "clear_before")],
    # metrics
    "metrics.samplers.sample_all": [("repro.metrics.samplers", "SamplerSuite", "sample_all")],
    # ontology
    "ontology.dlsp.build": [("repro.ontology.dlsp", "DlspBuilder", "build"),
                            ("repro.ontology.dlsp", None, "build_dlsp")],
    "ontology.doc.render": [("repro.ontology.base", "OntologyDoc", "render")],
    "ontology.doc.write_to": [("repro.ontology.base", "OntologyDoc", "write_to")],
    "ontology.doc.parse": [("repro.ontology.base", "OntologyDoc", "parse")],
    # controlplane
    "controlplane.ledger.append": [("repro.controlplane.ledger", "ConditionLedger", "append")],
    "controlplane.ledger.poll": [("repro.controlplane.ledger", "LedgerCursor", "poll")],
    "controlplane.deadline.due": [("repro.controlplane.deadline", "DeadlineWheel", "due")],
    # wake / ops / relocate
    "wake.triggers.publish": [("repro.wake.triggers", "TriggerBus", "publish")],
    "ops.notifications.send": [("repro.ops.notifications", "NotificationChannel", "send")],
    "relocate.planner.plan": [("repro.relocate.planner", "PlacementPlanner", "plan")],
    "relocate.crosssite.tick": [("repro.relocate.crosssite", "CrossSiteRelocator", "tick")],
    # traffic / apps
    "traffic.dispatch_fluid": [("repro.traffic.engine", None, "dispatch_fluid")],
    "traffic.frontdoor.route": [("repro.traffic.frontdoor", "FrontDoor", "route")],
    "apps.serve_batch": [("repro.apps.base", "Application", "serve_batch"),
                         ("repro.apps.frontend", "FrontendApp", "serve_batch"),
                         ("repro.apps.webserver", "WebServer", "serve_batch")],
    "apps.probe": [("repro.apps.base", "Application", "probe"),
                   ("repro.apps.database", "Database", "probe")],
    # federation / net: Federation.run minus site sim.run and the rest
    "federation.barrier": [("repro.federation.build", "Federation", "run")],
    "federation.traffic.tick": [("repro.federation.traffic", "GeoTrafficDriver", "tick")],
    "federation.build_federation": [("repro.federation.build", None, "build_federation")],
    "net.wan.send": [("repro.net.routing", "WanCourier", "send")],
    # observe
    "observe.build_reports": [("repro.observe.incidents", None, "build_reports")],
    "observe.reconcile": [("repro.observe.incidents", None, "reconcile")],
    # persist
    "persist.snapshot_site": [("repro.persist.site_state", None, "snapshot_site")],
    "persist.restore_site": [("repro.persist.site_state", None, "restore_site")],
    "persist.checkpoint.epoch": [("repro.persist.checkpoint", "CheckpointManager", "epoch")],
    "persist.checkpoint.load": [("repro.persist.checkpoint", "CheckpointManager", "load")],
    # chaos / experiments
    "chaos.run_episode": [("repro.chaos.executor", None, "run_episode")],
    "chaos.oracles": [("repro.chaos.oracles", None, "run_oracles")],
    "chaos.coverage.signature": [("repro.chaos.coverage", None, "signature_of")],
    "chaos.fuzzer.mutate": [("repro.chaos.fuzzer", "ScenarioFuzzer", "mutate")],
    "experiments.build_site": [("repro.experiments.site", None, "build_site")],
}

#: shim prefix -> (counter, fn(result) -> increment): counts that only
#: the call boundary can see
TALLIES: Dict[str, Tuple[str, Callable[[object], float]]] = {
    "core.healing.apply_action": ("core.healing.apply_action.failed",
                                  lambda r: not r.success),
    "net.wan.send": ("net.wan.send.failed", lambda r: not r.ok),
    "cluster.filesystem.write": ("cluster.filesystem.bytes_written",
                                 lambda f: f.size),
    "cluster.filesystem.append": ("cluster.filesystem.bytes_written",
                                  lambda f: len(f.lines[-1]) + 1),
    # the fuzzer's worlds live and die inside run_episode
    "chaos.run_episode": ("sim.events",
                          lambda ep: ep.site.sim.events_processed),
}

#: cron job name -> metric prefix its body is timed under.  Agent jobs
#: are already ``core.agent.run``; the admin pair's jobs are closures
#: with no public name, so ``Crond.register`` is their boundary.
CRON_JOBS = {"admin_watchdog": "core.admin.watchdog",
             "admin_dgspl": "core.admin.dgspl"}

#: builders run in set-up on most workloads; their rows are reported
#: over the whole child, every other layer over the timed region only
BUILDERS = ("experiments.build_site", "federation.build_federation")


class Recorder:
    """In-memory span aggregation for one traced child."""

    def __init__(self) -> None:
        #: frames are [name, ns covered by wrapped children]
        self.stack: List[list] = [["<root>", 0]]
        #: phase -> (name, parent) -> [calls, inclusive ns, self ns]
        self.phases: Dict[str, Dict[Tuple[str, str], List[int]]] = {}
        #: name -> [(start ns, duration ns, parent)] while rarer than SPAN_KEEP
        self.spans: Dict[str, Optional[list]] = {}
        #: phase -> counter -> value
        self.phase_tallies: Dict[str, Dict[str, float]] = {}
        self.begin_phase("setup")

    def begin_phase(self, phase: str) -> None:
        self.rows = self.phases.setdefault(phase, {})
        self.tallies = self.phase_tallies.setdefault(phase, {})

    def tally(self, counter: str, amount: float = 1) -> None:
        self.tallies[counter] = self.tallies.get(counter, 0) + amount

    def wrap(self, name: str, fn: Callable, tally=None) -> Callable:
        """``fn`` timed under ``name``; ``tally`` as in :data:`TALLIES`."""
        stack, spans = self.stack, self.spans
        spans.setdefault(name, [])

        def shim(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if tally is not None:
                    self.tally(tally[0], tally[1](result))
                return result
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                parent[1] += dt
                key = (name, parent[0])
                row = self.rows.get(key)
                if row is None:
                    row = self.rows[key] = [0, 0, 0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[1]
                kept = spans[name]
                if kept is not None:
                    if len(kept) < SPAN_KEEP:
                        kept.append((t0, dt, parent[0]))
                    else:
                        spans[name] = None

        return shim

    def totals(self, phases=("run",)) -> Dict[str, Tuple[int, float]]:
        """name -> (calls, self seconds) summed over parents and the
        given phases."""
        out: Dict[str, List[float]] = {}
        for phase in phases:
            for (name, _parent), (calls, _incl, self_ns) in \
                    self.phases.get(phase, {}).items():
                acc = out.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += self_ns / 1e9
        return {name: (int(c), s) for name, (c, s) in out.items()}

    def durations_ms(self, name: str) -> List[float]:
        return [dt / 1e6 for _t0, dt, _parent in self.spans.get(name) or ()]

    def to_json(self) -> dict:
        return {
            "phases": {
                phase: [{"name": name, "parent": parent, "calls": calls,
                         "inclusive_s": incl / 1e9, "self_s": self_ns / 1e9}
                        for (name, parent), (calls, incl, self_ns)
                        in sorted(rows.items())]
                for phase, rows in self.phases.items()},
            "tallies": {phase: dict(sorted(t.items()))
                        for phase, t in self.phase_tallies.items()},
            "spans": {name: [{"start_ns": t0, "dur_ns": dt, "parent": parent}
                             for t0, dt, parent in kept]
                      for name, kept in sorted(self.spans.items()) if kept},
        }


def _import_all_of_repro() -> None:
    """So every by-name import of a table function exists to rebind."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _patch_points(rec: Recorder):
    """Yield (owner, attribute, original, replacement) for the table."""
    for prefix, targets in LAYERS.items():
        tally = TALLIES.get(prefix)
        for mod_name, cls_name, attr in targets:
            module = importlib.import_module(mod_name)
            if cls_name is None:
                fn = getattr(module, attr)
                shim = rec.wrap(prefix, fn, tally)
                for name, mod in list(sys.modules.items()):
                    if (name == "repro" or name.startswith("repro.")) \
                            and vars(mod).get(attr) is fn:
                        yield mod, attr, fn, shim
                continue
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                shim = type(raw)(rec.wrap(prefix, raw.__func__, tally))
            else:
                shim = rec.wrap(prefix, raw, tally)
            yield cls, attr, raw, shim

    from repro.cluster.cron import Crond
    register = Crond.__dict__["register"]

    def counting_register(self, name, period, fn, offset=0.0):
        prefix = CRON_JOBS.get(name)
        body = fn if prefix is None else rec.wrap(prefix, fn)

        def fired():
            rec.tally("cluster.cron.jobs_fired")
            body()

        return register(self, name, period, fired, offset)

    yield Crond, "register", register, counting_register


@contextmanager
def traced():
    """Patch every :data:`LAYERS` boundary, yield the :class:`Recorder`,
    restore every original (by identity) on exit."""
    _import_all_of_repro()
    rec = Recorder()
    undo = []
    try:
        for owner, attr, original, replacement in _patch_points(rec):
            setattr(owner, attr, replacement)
            undo.append((owner, attr, original))
        yield rec
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
