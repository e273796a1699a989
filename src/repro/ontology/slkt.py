"""Static local knowledge templates (SLKT).

"Information about what the server should be like hardware-wise, which
applications it should run, all application external and internal
dependencies and requirements (file systems, path names, application
component startup sequences, binary location, application type,
version, name, IP address, port it listens to -- if any, application
process names and numbers, etc.)."

The SLKT is the constraint set for the agents' causal reasoning: a
:meth:`Slkt.check` compares a live host against its template and
returns typed deviations; the job manager also reads the hardware
template to honour the "equal or higher in power" reallocation rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.ontology.base import (OntologyDoc, OntologyError, decode_list,
                                 encode_list)

__all__ = ["HardwareTemplate", "AppTemplate", "Deviation", "Slkt",
           "build_slkt", "app_template_of"]


@dataclass(frozen=True)
class HardwareTemplate:
    """What the box should be."""

    model: str
    cpus: int
    ram_mb: int
    disks: int
    max_load: float

    @property
    def power(self) -> float:
        """Capability scalar used for 'equal or higher in power'."""
        from repro.cluster.specs import SPEC_CATALOGUE
        spec = SPEC_CATALOGUE.get(self.model)
        if spec is not None:
            return spec.power
        return float(self.cpus * 400 + self.ram_mb / 16.0)


@dataclass(frozen=True)
class AppTemplate:
    """What an application on the box should look like."""

    name: str
    app_type: str
    version: str
    port: int                       # 0 = no listener
    binary_path: str
    user: str
    #: (command, count) pairs
    processes: Tuple[Tuple[str, int], ...]
    #: component startup sequence step names
    startup_sequence: Tuple[str, ...]
    #: (host, app) external dependencies
    depends_on: Tuple[Tuple[str, str], ...]
    #: filesystems the app requires mounted
    filesystems: Tuple[str, ...]
    connect_timeout_ms: float
    auto_start: bool = True


@dataclass(frozen=True)
class Deviation:
    """One live-vs-template mismatch."""

    kind: str          # missing-app | proc-count | hw-degraded | fs-missing | not-listening
    subject: str       # app or component name
    detail: str
    severity: str = "err"   # err | warning


class Slkt:
    """A host's static knowledge template."""

    def __init__(self, hostname: str, hardware: HardwareTemplate):
        self.hostname = hostname
        self.hardware = hardware
        self.apps: Dict[str, AppTemplate] = {}

    def add_app(self, tmpl: AppTemplate) -> None:
        self.apps[tmpl.name] = tmpl

    def app(self, name: str) -> AppTemplate:
        return self.apps[name]

    # -- constraint checking ----------------------------------------------------

    def check(self, host) -> List[Deviation]:
        """Compare a live host against this template."""
        devs: List[Deviation] = []
        inv = host.inventory
        if host.spec.model != self.hardware.model:
            devs.append(Deviation("hw-model", host.spec.model,
                                  f"expected {self.hardware.model}"))
        if inv.effective_cpus() < self.hardware.cpus:
            devs.append(Deviation(
                "hw-degraded", "cpu",
                f"{inv.effective_cpus()}/{self.hardware.cpus} cpus online"))
        if inv.effective_ram_mb() < self.hardware.ram_mb:
            devs.append(Deviation(
                "hw-degraded", "memory",
                f"{inv.effective_ram_mb()}/{self.hardware.ram_mb} MB online"))
        for tmpl in self.apps.values():
            devs.extend(self._check_app(host, tmpl))
        return devs

    def _check_app(self, host, tmpl: AppTemplate) -> List[Deviation]:
        devs: List[Deviation] = []
        app = host.apps.get(tmpl.name)
        if app is None:
            devs.append(Deviation("missing-app", tmpl.name,
                                  "application not installed"))
            return devs
        for fs_point in tmpl.filesystems:
            mount = host.fs.mounts.get(fs_point)
            if mount is None or not mount.online:
                devs.append(Deviation("fs-missing", tmpl.name,
                                      f"required filesystem {fs_point} "
                                      "unavailable"))
        if not app.is_running():
            if not tmpl.auto_start and app.state.value == "stopped":
                return devs        # idle slot: stopped on purpose
            devs.append(Deviation("app-down", tmpl.name,
                                  f"state={app.state.value}"))
            return devs
        for command, count in tmpl.processes:
            have = len(host.ptable.by_command(command))
            if have < count:
                devs.append(Deviation(
                    "proc-count", tmpl.name,
                    f"{command}: {have}/{count} processes"))
        return devs

    # -- codec -------------------------------------------------------------------------

    def to_doc(self, now: float = 0.0) -> OntologyDoc:
        doc = OntologyDoc("SLKT", now)
        hw = self.hardware
        doc.add("host", name=self.hostname, model=hw.model,
                cpus=str(hw.cpus), ram_mb=str(hw.ram_mb),
                disks=str(hw.disks), max_load=repr(hw.max_load))
        for name in sorted(self.apps):
            t = self.apps[name]
            doc.add(
                "application",
                name=t.name, type=t.app_type, version=t.version,
                port=str(t.port), binary=t.binary_path, user=t.user,
                processes=encode_list(
                    f"{cmd}:{cnt}" for cmd, cnt in t.processes),
                startup=encode_list(t.startup_sequence),
                depends=encode_list(
                    f"{h}/{a}" for h, a in t.depends_on),
                filesystems=encode_list(t.filesystems),
                timeout_ms=repr(t.connect_timeout_ms),
                auto_start="yes" if t.auto_start else "no",
            )
        return doc

    @classmethod
    def from_doc(cls, doc: OntologyDoc) -> "Slkt":
        if doc.kind != "SLKT":
            raise OntologyError(f"not a SLKT document: {doc.kind!r}")
        hostrec = doc.first("host")
        if hostrec is None:
            raise OntologyError("SLKT without host record")
        hw = HardwareTemplate(
            model=hostrec["model"], cpus=int(hostrec["cpus"]),
            ram_mb=int(hostrec["ram_mb"]), disks=int(hostrec["disks"]),
            max_load=float(hostrec["max_load"]))
        slkt = cls(hostrec["name"], hw)
        for rec in doc.of_type("application"):
            procs = []
            for token in decode_list(rec.get("processes", "")):
                cmd, _, cnt = token.rpartition(":")
                procs.append((cmd, int(cnt)))
            deps = []
            for token in decode_list(rec.get("depends", "")):
                h, _, a = token.partition("/")
                deps.append((h, a))
            slkt.add_app(AppTemplate(
                name=rec["name"], app_type=rec["type"],
                version=rec["version"], port=int(rec["port"]),
                binary_path=rec["binary"], user=rec["user"],
                processes=tuple(procs),
                startup_sequence=tuple(decode_list(rec.get("startup", ""))),
                depends_on=tuple(deps),
                filesystems=tuple(decode_list(rec.get("filesystems", ""))),
                connect_timeout_ms=float(rec["timeout_ms"]),
                auto_start=rec.get("auto_start", "yes") == "yes"))
        return slkt

    def write_to(self, fs, path: str, now: float = 0.0) -> None:
        self.to_doc(now).write_to(fs, path, now=now)

    @classmethod
    def read_from(cls, fs, path: str) -> "Slkt":
        return cls.from_doc(OntologyDoc.read_from(fs, path))


def app_template_of(app) -> AppTemplate:
    """Capture one live application as its SLKT template (also what the
    relocation planner feeds the constraint checks)."""
    return AppTemplate(
        name=app.name, app_type=app.app_type, version=app.version,
        port=app.port or 0, binary_path=app.binary_path, user=app.user,
        processes=tuple((s.command, s.count) for s in app.process_specs),
        startup_sequence=tuple(s.name for s in app.startup_steps),
        depends_on=tuple(app.depends_on),
        filesystems=("/apps", "/logs"),
        connect_timeout_ms=app.connect_timeout_ms,
        auto_start=app.auto_start)


def build_slkt(host) -> Slkt:
    """Capture a healthy host as its own template ("customised system
    builds for each hardware, operating system and application type").
    """
    hw = HardwareTemplate(
        model=host.spec.model, cpus=host.spec.cpus,
        ram_mb=host.spec.ram_mb, disks=host.spec.disks,
        max_load=host.spec.max_load)
    slkt = Slkt(host.name, hw)
    for app in host.apps.values():
        slkt.add_app(app_template_of(app))
    return slkt
