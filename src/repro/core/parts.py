"""The five intelliagent parts (§3.3).

"Each intelliagent has 5 major parts: a) Monitoring, b) Diagnosing,
c) Self-Healing/Action/Repair, d) Communication/Logging, e)
Self-maintenance ... Each of the five intelliagent parts can get
activated or deactivated either during installation or subsequently."

The parts are small strategy objects owned by the agent; the base agent
drives them in order.  :class:`PartSwitches` is the activation state.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding", "PartSwitches"]


@dataclass(frozen=True)
class Finding:
    """One anomaly the monitoring part observed.

    ``kind`` is a stable symptom identifier the rule engine dispatches
    on (e.g. ``service-down``, ``service-timeout``, ``threshold``,
    ``hw-failed``); ``subject`` names the afflicted entity.
    """

    kind: str
    subject: str
    detail: str = ""
    severity: str = "err"        # err | warning
    metric: str = ""
    value: float = 0.0


@dataclass(slots=True)
class PartSwitches:
    """Which of the five parts are active on this agent."""

    monitoring: bool = True
    diagnosing: bool = True
    healing: bool = True
    communication: bool = True
    self_maintenance: bool = True

    def deactivate(self, part: str) -> None:
        self._flip(part, False)

    def activate(self, part: str) -> None:
        self._flip(part, True)

    def _flip(self, part: str, value: bool) -> None:
        if part not in self.__slots__:
            raise ValueError(f"unknown part {part!r}")
        setattr(self, part, value)
