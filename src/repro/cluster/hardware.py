"""Hardware component inventory and failure states.

The paper's hardware intelliagents "look after hardware components
(CPU, memory, boards etc)".  Each host carries an inventory of discrete
components; a component can degrade or fail, which the hardware agent
can *detect and report* but -- matching the paper's §4 finding that
"our software was unable to take care of ... hardware related errors"
-- cannot repair.  Repair requires a (simulated) field engineer.

The inventory keeps its own books.  What the host can still use --
``online(kind)``, ``effective_cpus()``, ``effective_ram_mb()`` -- is
derived once per component state change and read back as plain
attributes, not recounted per load reading.  ``Component.state`` has
two writers, both of which re-derive: ``Component._set_state`` (behind
``degrade`` / ``fail`` / ``replace``) and
``HardwareInventory.restore_state``.  The books are derived state and
are never serialised.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["ComponentKind", "ComponentState", "Component",
           "HardwareInventory"]


class ComponentKind(enum.Enum):
    CPU_BOARD = "cpu_board"
    MEMORY_BANK = "memory_bank"
    DISK = "disk"
    NIC = "nic"
    PSU = "psu"
    SYSTEM_BOARD = "system_board"


class ComponentState(enum.Enum):
    OK = "ok"
    DEGRADED = "degraded"
    FAILED = "failed"


@dataclass
class Component:
    """One field-replaceable unit."""

    kind: ComponentKind
    index: int
    state: ComponentState = ComponentState.OK
    error_count: int = 0
    failed_at: Optional[float] = None
    #: the inventory whose books this unit's state feeds
    inventory: Optional["HardwareInventory"] = field(
        default=None, repr=False, compare=False)

    @property
    def name(self) -> str:
        return f"{self.kind.value}{self.index}"

    def _set_state(self, state: ComponentState) -> None:
        if state is self.state:
            return
        self.state = state
        if self.inventory is not None:
            self.inventory._derive()

    def degrade(self, now: float) -> None:
        """Record a correctable error; enough of them degrade the unit."""
        self.error_count += 1
        if self.state is ComponentState.OK and self.error_count >= 3:
            self._set_state(ComponentState.DEGRADED)
            self.failed_at = now

    def fail(self, now: float) -> None:
        self._set_state(ComponentState.FAILED)
        self.failed_at = now


@functools.lru_cache(maxsize=64)
def _layout(spec) -> Dict[ComponentKind, slice]:
    """Where each kind's units sit in the FRU list a spec builds.  The
    list is fixed at build time (faults and restores change a unit's
    state, never the list), so one layout -- shared, never mutated --
    serves every host of a spec."""
    layout, start = {}, 0
    for kind, count in (
            # one board per 4 CPUs (minimum one), one bank per GB-ish chunk
            (ComponentKind.CPU_BOARD, max(1, spec.cpus // 4)),
            (ComponentKind.MEMORY_BANK, max(1, spec.ram_mb // 2048)),
            (ComponentKind.DISK, spec.disks),
            (ComponentKind.NIC, spec.nics),
            (ComponentKind.PSU, 1),
            (ComponentKind.SYSTEM_BOARD, 1)):
        layout[kind] = slice(start, start + count)
        start += count
    return layout


def _online(units: List[Component]) -> int:
    ok = 0
    for unit in units:
        if unit.state is not ComponentState.FAILED:
            ok += 1
    return ok


class HardwareInventory:
    """All FRUs of one host, built from its :class:`ServerSpec`."""

    def __init__(self, spec) -> None:
        self.spec = spec
        self._layout = _layout(spec)
        self.components: List[Component] = [
            Component(kind, i, inventory=self)
            for kind, span in self._layout.items()
            for i in range(span.stop - span.start)]
        self._derive()

    # -- queries ---------------------------------------------------------

    def of_kind(self, kind: ComponentKind) -> List[Component]:
        return self.components[self._layout[kind]]

    def online(self, kind: ComponentKind) -> int:
        """How many units of ``kind`` have not failed."""
        return self._online_units[kind]

    def fatal(self) -> bool:
        """True when the host cannot stay up: dead system board or PSU,
        or every unit of a mandatory kind is gone."""
        for kind in (ComponentKind.SYSTEM_BOARD, ComponentKind.PSU):
            if all(c.state is ComponentState.FAILED
                   for c in self.of_kind(kind)):
                return True
        for kind in (ComponentKind.CPU_BOARD, ComponentKind.MEMORY_BANK):
            units = self.of_kind(kind)
            if units and all(c.state is ComponentState.FAILED for c in units):
                return True
        return False

    # -- capacity effects --------------------------------------------------

    def _scaled(self, nominal: int, kind: ComponentKind) -> int:
        """``nominal`` capacity times the share of ``kind`` units that
        have not failed (every spec builds at least one board and bank).
        Counted from the units themselves: this is what the books are
        derived from, and checked against."""
        units = self.of_kind(kind)
        return max(0, round(nominal * _online(units) / len(units)))

    def _derive(self) -> None:
        """Bring the books up to date with the components' states."""
        self._online_units = {kind: _online(self.components[span])
                              for kind, span in self._layout.items()}
        self._cpus = self._scaled(self.spec.cpus, ComponentKind.CPU_BOARD)
        self._ram_mb = self._scaled(self.spec.ram_mb,
                                    ComponentKind.MEMORY_BANK)

    def effective_cpus(self) -> int:
        return self._cpus

    def effective_ram_mb(self) -> int:
        return self._ram_mb

    def status_report(self) -> Dict[str, str]:
        """Component-name → state map (what ``prtdiag``-style probes show)."""
        return {c.name: c.state.value for c in self.components}

    # -- persistence -------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Positional: the component list is built deterministically
        from the spec, so state rows line up index-for-index."""
        return {
            "components": [[c.state.value, c.error_count, c.failed_at]
                           for c in self.components],
        }

    def restore_state(self, state: dict) -> None:
        rows = state["components"]
        if len(rows) != len(self.components):
            raise ValueError(
                f"inventory shape changed: snapshot has {len(rows)} "
                f"components, spec builds {len(self.components)}")
        for comp, (st, errs, failed_at) in zip(self.components, rows):
            comp.state = ComponentState(st)
            comp.error_count = int(errs)
            comp.failed_at = failed_at
        self._derive()
