"""Static local knowledge templates (SLKT).

"Information about what the server should be like hardware-wise, which
applications it should run, all application external and internal
dependencies and requirements (file systems, path names, application
component startup sequences, binary location, application type,
version, name, IP address, port it listens to -- if any, application
process names and numbers, etc.)."

The SLKT is the constraint set for the agents' causal reasoning: a
:meth:`Slkt.check` compares a live host against its template and
returns typed deviations.  Products hold it as objects; the ISSL is
the one static ontology still written as a flat file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

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
