"""Status intelliagents.

"Status intelliagents that dynamically generate status profiles for
servers, resources and services in terms of availability, load,
capacity and geographical location."  §3.4: the local status agent is
woken by cron, "compiles dynamically its local DLSP" (invoking the
local service probes), writes it under the agent log tree, and ships it
to the administration servers over the private network.

It also self-maintains "old local dynamic service profiles", listing
the directory only once the retention cutoff passes a derived lower
bound on the oldest stamp, as :mod:`repro.core.flags` does for flags.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.cluster.filesystem import FsError
from repro.core.agent import Intelliagent
from repro.core.parts import Finding
from repro.ontology.dlsp import Dlsp, DlspBuilder, build_dlsp
from repro.persist.core import part, scalar

__all__ = ["StatusAgent"]

DLSP_DIR = "/logs/intelliagents/dlsp"
DLSP_RETENTION = 3600.0     # keep an hour of profiles locally

#: every Nth profile is also built the exhaustive way and compared --
#: a live self-check that the incremental cache never drifts
FULL_REBUILD_EVERY = 8


class StatusAgent(Intelliagent):
    """One per host."""

    category = "status"
    #: the build count (every FULL_REBUILD_EVERY-th build is checked
    #: against a full one) plus the incremental builder's cache, which
    #: determines which apps get re-probed, so a resumed run carries
    #: it over rather than rebuild cold
    _persist_extra = (scalar("profiles_built", int),
                      part("builder", "_builder"))
    RUN_CPU_SECONDS = 0.020

    def __init__(self, host, *, deliver: Optional[Callable[[Dlsp], None]] = None,
                 **kw):
        #: callback reaching the administration servers (wired by the
        #: suite; physically the bytes ride the agent channel)
        self.deliver = deliver
        self.profiles_built = 0
        super().__init__(host, "status", **kw)
        self._builder = DlspBuilder(host)
        #: no profile in the directory is stamped earlier (None: unknown)
        self._oldest_profile: Optional[float] = None
        #: the lines of the profile filed last: a new line equal to its
        #: counterpart there is filed as that object, not a copy
        self._filed: Sequence[str] = ()
        host.fs.mkdir(DLSP_DIR)

    # status agents report, they do not repair
    def monitor(self) -> List[Finding]:
        return []

    def on_clean_run(self) -> None:
        self.build_and_ship()

    def build_and_ship(self) -> Optional[Dlsp]:
        dlsp = self._builder.build()
        self.profiles_built += 1
        # rendered once: the same lines are compared, filed and weighed
        lines = dlsp.render()
        if self.profiles_built % FULL_REBUILD_EVERY == 0:
            full = build_dlsp(self.host)
            full_lines = full.render()
            if full_lines != lines:
                self._builder = DlspBuilder(self.host)  # probes all anew
                dlsp, lines = full, full_lines      # ground truth wins
                tracer = self.sim.tracer
                if tracer.enabled:
                    tracer.metrics.counter(
                        "status.rebuild_mismatches").inc()
        lines = [old if old == new else new
                 for old, new in zip(self._filed, lines)] + lines[len(self._filed):]
        path = f"{DLSP_DIR}/{self.host.name}.{self.sim.now:.0f}"
        try:
            self._filed = self.host.fs.write(path, lines,
                                             now=dlsp.generated_at).lines
        except FsError:
            pass        # a full disk must not stop the shipment
        if self._oldest_profile is not None:
            # the name carries the stamp rounded to the second
            self._oldest_profile = min(self._oldest_profile,
                                       self.sim.now - 0.5)
        self._prune_old_profiles()
        if self.deliver is not None and self.channel is not None:
            payload = sum(len(l) + 1 for l in lines)
            for target in self.admin_targets:
                d = self.channel.send(self.host.name, target, payload)
                if d.ok:
                    self.deliver(dlsp)
                    break       # one coordinator copy is enough (NFS-shared)
        elif self.deliver is not None:
            self.deliver(dlsp)
        return dlsp

    def _prune_old_profiles(self) -> None:
        cutoff = self.sim.now - DLSP_RETENTION
        if self._oldest_profile is not None and cutoff <= self._oldest_profile:
            return              # nothing here can have expired yet
        oldest = float("inf")
        for path in self.host.fs.files_in_dir(DLSP_DIR):
            name = path.rsplit("/", 1)[-1]
            if not name.startswith(self.host.name + "."):
                continue
            try:
                stamp = float(name.rsplit(".", 1)[-1])
            except ValueError:
                continue
            if stamp < cutoff:
                self.host.fs.remove(path)
            elif stamp < oldest:
                oldest = stamp
        self._oldest_profile = oldest

    def restore_state(self, state: dict) -> None:
        """The directory was restored under the bound: forget it."""
        super().restore_state(state)
        self._oldest_profile = None
