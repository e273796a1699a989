"""Multi-component distributed services.

§5: "all interdependent distributed application components must be up
and running for the distributed service to be considered healthy", and
§3.6: "every 15 to 30 minutes we initiated a dummy process to run
through all application components, simulating a user and measure the
total response time".

A :class:`DistributedService` names a set of components (applications
on possibly different hosts) with a dependency DAG.  Health requires
every component healthy *and* its dependencies reachable over the
public LAN; the end-to-end probe walks the DAG in topological order
accumulating response time, exactly like the paper's dummy user.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.tcp import tcp_connect
from repro.persist.core import Persistent, scalars

__all__ = ["Component", "DistributedService"]


@dataclass
class Component:
    """One component of a distributed service."""

    name: str
    app: object                     # the Application instance
    depends_on: List[str]           # names of other components

    @property
    def host_name(self) -> str:
        return self.app.host.name


class DistributedService(Persistent):
    """A named service spanning several hosts."""

    _persist = scalars(int, "probes_run", "probe_failures")

    def __init__(self, dc, name: str):
        self.dc = dc
        self.name = name
        self.components: Dict[str, Component] = {}
        self._order: Optional[List[str]] = None
        self.probes_run = 0
        self.probe_failures = 0

    def add_component(self, name: str, app, depends_on: List[str]) -> Component:
        if name in self.components:
            raise ValueError(f"duplicate component {name!r}")
        comp = Component(name, app, list(depends_on))
        self.components[name] = comp
        self._order = None
        return comp

    # -- DAG ------------------------------------------------------------------

    def startup_order(self) -> List[str]:
        """Topological order (dependencies first) -- the SLKT 'component
        startup sequence' for the whole service."""
        if self._order is not None:
            return self._order
        order: List[str] = []
        state: Dict[str, int] = {}      # 0=unseen 1=visiting 2=done

        def visit(name: str) -> None:
            st = state.get(name, 0)
            if st == 2:
                return
            if st == 1:
                raise ValueError(
                    f"dependency cycle in service {self.name!r} at {name!r}")
            state[name] = 1
            comp = self.components.get(name)
            if comp is None:
                raise KeyError(f"unknown component {name!r}")
            for dep in comp.depends_on:
                visit(dep)
            state[name] = 2
            order.append(name)

        for name in sorted(self.components):
            visit(name)
        self._order = order
        return order

    # -- health ----------------------------------------------------------------

    def end_to_end_probe(self) -> Tuple[bool, float, str]:
        """The dummy user: walk every component in dependency order,
        connect to it from its dependents' side, and run its probe.
        Returns (ok, total_response_ms, first_error)."""
        self.probes_run += 1
        total_ms = 0.0
        for name in self.startup_order():
            comp = self.components[name]
            app = comp.app
            # network leg: reach the component from each dependency's host
            for dep in comp.depends_on:
                dep_host = self.components[dep].host_name
                if dep_host != comp.host_name and app.port is not None:
                    res = tcp_connect(self.dc, dep_host, comp.host_name,
                                      app.port,
                                      timeout_ms=app.connect_timeout_ms,
                                      restrict_kind="public")
                    if not res.ok:
                        self.probe_failures += 1
                        return (False, total_ms,
                                f"{name}: link {dep_host}->{comp.host_name} "
                                f"{res.error}")
                    total_ms += res.latency_ms
            ok, ms, err = app.probe()
            total_ms += ms
            if not ok:
                self.probe_failures += 1
                return (False, total_ms, f"{name}: {err or 'down'}")
        return (True, total_ms, "")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<DistributedService {self.name} "
                f"components={list(self.components)}>")
