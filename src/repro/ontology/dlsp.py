"""Dynamic local service profiles (DLSP).

"Generated by each agent controlled server in regular intervals and
contain information about server hardware, software, load, capacity and
services."  The status intelliagent regenerates the DLSP every cycle;
the administration servers collect them to build the global DGSPL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ontology.base import OntologyDoc, OntologyError
from repro.persist.core import (Persistent, record, scalar, scalars,
                                table)

__all__ = ["ServiceStatus", "Dlsp", "DlspBuilder", "build_dlsp"]


@dataclass(frozen=True)
class ServiceStatus:
    """One service's live status on the host."""

    name: str
    app_type: str
    version: str
    state: str
    port: int
    healthy: bool
    response_ms: float


@dataclass
class Dlsp:
    """A host's live profile."""

    hostname: str
    generated_at: float
    model: str
    os: str
    cpus: int
    ram_mb: int
    load_avg: float
    cpu_util: float
    free_mem_mb: float
    users: int
    site: str
    location: str
    up: bool
    services: List[ServiceStatus]

    def is_fresh(self, now: float, window: float) -> bool:
        """Whether this profile is recent enough to act on -- the one
        freshness rule shared by the full DGSPL rebuild and the
        ledger-driven incremental assembly."""
        return now - self.generated_at <= window

    # -- codec -----------------------------------------------------------------

    def render(self) -> List[str]:
        """The document's lines in one pass: ints ``str``, floats
        ``repr``, flags ``yes``/``no``; only free text is checked."""
        one_line = OntologyDoc._check_value
        lines = OntologyDoc.header("DLSP", self.generated_at)
        lines += (
            "", "record=host", f"name={one_line(self.hostname)}",
            f"model={one_line(self.model)}", f"os={one_line(self.os)}",
            f"cpus={self.cpus}", f"ram_mb={self.ram_mb}",
            f"load_avg={self.load_avg!r}", f"cpu_util={self.cpu_util!r}",
            f"free_mem_mb={self.free_mem_mb!r}", f"users={self.users}",
            f"site={one_line(self.site)}",
            f"location={one_line(self.location)}",
            "up=yes" if self.up else "up=no")
        for s in self.services:
            lines += (
                "", "record=service", f"name={one_line(s.name)}",
                f"type={one_line(s.app_type)}",
                f"version={one_line(s.version)}",
                f"state={one_line(s.state)}", f"port={s.port}",
                "healthy=yes" if s.healthy else "healthy=no",
                f"response_ms={s.response_ms!r}")
        return lines

    @classmethod
    def from_doc(cls, doc: OntologyDoc) -> "Dlsp":
        if doc.kind != "DLSP":
            raise OntologyError(f"not a DLSP document: {doc.kind!r}")
        h = doc.first("host")
        if h is None:
            raise OntologyError("DLSP without host record")
        services = [ServiceStatus(
            name=r["name"], app_type=r["type"], version=r["version"],
            state=r["state"], port=int(r["port"]),
            healthy=r["healthy"] == "yes",
            response_ms=float(r["response_ms"]))
            for r in doc.of_type("service")]
        return cls(
            hostname=h["name"], generated_at=doc.generated_at,
            model=h["model"], os=h["os"], cpus=int(h["cpus"]),
            ram_mb=int(h["ram_mb"]), load_avg=float(h["load_avg"]),
            cpu_util=float(h["cpu_util"]),
            free_mem_mb=float(h["free_mem_mb"]), users=int(h["users"]),
            site=h["site"], location=h["location"], up=h["up"] == "yes",
            services=services)


def build_dlsp(host) -> Dlsp:
    """Snapshot a live host into its profile (the status agent's job).
    Service health here is the *local* probe -- connect to the port and
    run the basic command, reading the exit status."""
    services = []
    for app in host.apps.values():
        ok, ms, _err = app.probe()
        services.append(ServiceStatus(
            name=app.name, app_type=app.app_type, version=app.version,
            state=app.state.value, port=app.port or 0,
            healthy=ok, response_ms=ms))
    services.sort(key=lambda s: s.name)
    return _profile(host, host.load_average(), services)


def _profile(host, load: float, services: List[ServiceStatus]) -> Dlsp:
    """The host half of a profile; capacity is read once."""
    cpus = host.effective_cpus()
    ram = host.effective_ram_mb()
    return Dlsp(
        hostname=host.name, generated_at=host.sim.now,
        model=host.spec.model, os=host.spec.os,
        cpus=cpus, ram_mb=int(ram),
        load_avg=load, cpu_util=host.cpu_utilization(),
        free_mem_mb=max(0.0, ram - host.memory_used_mb()),
        users=len(host.logged_in_users),
        site=host.site, location=host.location,
        up=host.is_up, services=services)


class DlspBuilder(Persistent):
    """Incremental profile generation for one host.

    An app's probe is a pure function of its (state, version, port)
    fingerprint and the host's load average, so a service entry can be
    reused verbatim while both are unchanged -- the common case on a
    healthy, quiescent host.  Only fingerprint changes (crash, heal,
    redeploy) or a load shift re-probe, and then only the changed apps.
    The assembled profile is byte-identical to :func:`build_dlsp`.
    """

    _persist = (table("entries", *record(ServiceStatus), attr="_entries"),
                table("fingerprints", tuple, list, "_fingerprints"),
                scalar("load_key", attr="_load_key"),
                *scalars(int, "probes", "reused"))

    def __init__(self, host):
        self.host = host
        self._entries: Dict[str, ServiceStatus] = {}
        self._fingerprints: Dict[str, tuple] = {}
        self._load_key: Optional[float] = None
        self.probes = 0
        self.reused = 0

    @staticmethod
    def _fingerprint(app) -> tuple:
        return (app.state.value, app.version, app.port or 0)

    def build(self) -> Dlsp:
        host = self.host
        load = host.load_average()
        reuse_ok = load == self._load_key
        self._load_key = load
        services = []
        for name in sorted(host.apps):
            app = host.apps[name]
            fp = self._fingerprint(app)
            entry = self._entries.get(name)
            if reuse_ok and entry is not None \
                    and self._fingerprints.get(name) == fp:
                self.reused += 1
            else:
                ok, ms, _err = app.probe()
                self.probes += 1
                entry = ServiceStatus(
                    name=app.name, app_type=app.app_type,
                    version=app.version, state=app.state.value,
                    port=app.port or 0, healthy=ok, response_ms=ms)
                self._entries[name] = entry
                self._fingerprints[name] = fp
            services.append(entry)
        return _profile(host, load, services)
